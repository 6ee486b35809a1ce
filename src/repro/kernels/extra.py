"""Extended kernel library (paper future work: richer analysis kernels).

All are streaming/checkpointable like the two paper benchmarks.  Their
default rates are rough arithmetic-intensity-scaled estimates relative
to the paper's calibrated SUM/Gaussian rates; ``calibrate_rate`` can
replace them with measured host rates.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro.kernels.base import Kernel, KernelExecutionError, KernelState
from repro.kernels.costs import MB, ack_result, reduction_result

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class MinMaxKernel(Kernel):
    """Global minimum and maximum of the input."""

    name = "minmax"
    default_rate = 800 * MB
    dtype = "float64"

    def result_bytes(self, input_bytes: float) -> float:
        return 16.0

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        state = KernelState()
        state["min"] = float("inf")
        state["max"] = float("-inf")
        return state

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        if chunk.size:
            state["min"] = min(state["min"], float(np.min(chunk)))
            state["max"] = max(state["max"], float(np.max(chunk)))

    def finalize(self, state: KernelState) -> tuple:
        return (state["min"], state["max"])

    def combine(self, partials: Sequence[Any]) -> tuple:
        return (
            min(p[0] for p in partials),
            max(p[1] for p in partials),
        )


class MeanKernel(Kernel):
    """Arithmetic mean (count-weighted combination across stripes)."""

    name = "mean"
    default_rate = 800 * MB
    dtype = "float64"

    def result_bytes(self, input_bytes: float) -> float:
        return 16.0

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        state = KernelState()
        state["total"] = 0.0
        state["count"] = 0
        return state

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        state["total"] = state["total"] + float(np.sum(chunk, dtype=np.float64))
        state["count"] = state["count"] + int(chunk.size)

    def finalize(self, state: KernelState) -> tuple:
        # Return (mean, count) so stripes can combine exactly.
        count = state["count"]
        mean = state["total"] / count if count else 0.0
        return (mean, count)

    def combine(self, partials: Sequence[Any]) -> tuple:
        total = sum(mean * count for mean, count in partials)
        count = sum(count for _mean, count in partials)
        return (total / count if count else 0.0, count)


class VarianceKernel(Kernel):
    """Population variance via Chan's parallel-merge formulation."""

    name = "variance"
    default_rate = 500 * MB
    dtype = "float64"

    def result_bytes(self, input_bytes: float) -> float:
        return 24.0

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        state = KernelState()
        state["count"] = 0
        state["mean"] = 0.0
        state["m2"] = 0.0
        return state

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        nb = int(chunk.size)
        if nb == 0:
            return
        mean_b = float(np.mean(chunk))
        m2_b = float(np.sum((chunk - mean_b) ** 2, dtype=np.float64))
        na, mean_a, m2_a = state["count"], state["mean"], state["m2"]
        n = na + nb
        delta = mean_b - mean_a
        state["mean"] = mean_a + delta * nb / n
        state["m2"] = m2_a + m2_b + delta * delta * na * nb / n
        state["count"] = n

    def finalize(self, state: KernelState) -> tuple:
        n = state["count"]
        var = state["m2"] / n if n else 0.0
        return (var, state["mean"], n)

    def combine(self, partials: Sequence[Any]) -> tuple:
        count = 0
        mean = 0.0
        m2 = 0.0
        for var_b, mean_b, nb in partials:
            if nb == 0:
                continue
            m2_b = var_b * nb
            n = count + nb
            delta = mean_b - mean
            mean = mean + delta * nb / n
            m2 = m2 + m2_b + delta * delta * count * nb / n
            count = n
        return (m2 / count if count else 0.0, mean, count)


class HistogramKernel(Kernel):
    """Fixed-bin histogram over a configured value range."""

    name = "histogram"
    default_rate = 400 * MB
    dtype = "float64"

    def __init__(self, rate: Optional[float] = None, bins: int = 64,
                 lo: float = 0.0, hi: float = 1.0) -> None:
        super().__init__(rate)
        if bins <= 0:
            raise KernelExecutionError("bins must be positive")
        if not hi > lo:
            raise KernelExecutionError("hi must exceed lo")
        self.bins = int(bins)
        self.lo = float(lo)
        self.hi = float(hi)

    def result_bytes(self, input_bytes: float) -> float:
        return float(self.bins * 8)

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        import numpy as np

        state = KernelState()
        state["counts"] = np.zeros(self.bins, dtype=np.int64)
        return state

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        counts, _edges = np.histogram(chunk, bins=self.bins, range=(self.lo, self.hi))
        state["counts"] = state["counts"] + counts

    def finalize(self, state: KernelState) -> np.ndarray:
        return state["counts"].copy()

    def combine(self, partials: Sequence[Any]) -> np.ndarray:
        import numpy as np

        out = np.zeros(self.bins, dtype=np.int64)
        for p in partials:
            out += p
        return out


class ThresholdCountKernel(Kernel):
    """Count of elements exceeding a threshold (feature detection)."""

    name = "threshold_count"
    default_rate = 700 * MB
    dtype = "float64"

    def __init__(self, rate: Optional[float] = None, threshold: float = 0.5) -> None:
        super().__init__(rate)
        self.threshold = float(threshold)

    def result_bytes(self, input_bytes: float) -> float:
        return reduction_result(input_bytes)

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        state = KernelState()
        state["count"] = 0
        return state

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        state["count"] = state["count"] + int(np.count_nonzero(chunk > self.threshold))

    def finalize(self, state: KernelState) -> int:
        return int(state["count"])

    def combine(self, partials: Sequence[Any]) -> int:
        return int(sum(partials))


class SobelKernel(Kernel):
    """Sobel gradient-magnitude filter (edge detection).

    Like the Gaussian filter, a 3×3 stencil whose output is written
    back at the producing node — only an ack is returned.  State
    carries a one-row halo; the implementation reuses the Gaussian
    kernel's row-block streaming scheme with different taps.
    """

    name = "sobel"
    default_rate = 60 * MB
    dtype = "float64"
    writes_output = True

    def result_bytes(self, input_bytes: float) -> float:
        return ack_result(input_bytes)

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        import numpy as np

        if not meta or "width" not in meta:
            raise KernelExecutionError("sobel needs meta={'width': <pixels per row>}")
        width = int(meta["width"])
        if width <= 0:
            raise KernelExecutionError(f"width must be positive, got {width}")
        state = KernelState()
        state["width"] = width
        state["leftover"] = np.empty(0, dtype=np.float64)
        state["pending"] = np.empty(0, dtype=np.float64)
        state["pending_rows"] = 0
        state["halo"] = np.empty(0, dtype=np.float64)
        state["out_rows"] = 0
        state["output"] = np.empty(0, dtype=np.float64)
        return state

    @staticmethod
    def _sobel_rows(block: np.ndarray, top: Optional[np.ndarray],
                    bottom: Optional[np.ndarray]) -> np.ndarray:
        import numpy as np

        rows = [block]
        rows.insert(0, top.reshape(1, -1) if top is not None else block[:1])
        rows.append(bottom.reshape(1, -1) if bottom is not None else block[-1:])
        padded = np.pad(np.vstack(rows), ((0, 0), (1, 1)), mode="edge")
        h, w = block.shape
        gx = np.zeros_like(block)
        gy = np.zeros_like(block)
        kx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
        ky = kx.T
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                window = padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
                gx += kx[dy + 1, dx + 1] * window
                gy += ky[dy + 1, dx + 1] * window
        return np.hypot(gx, gy)

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        width = state["width"]
        data = np.concatenate([state["leftover"], np.asarray(chunk, dtype=np.float64)])
        nrows = data.size // width
        state["leftover"] = data[nrows * width :].copy()
        if nrows == 0:
            return
        rows = data[: nrows * width].reshape(nrows, width)

        if state["pending_rows"]:
            pending = state["pending"].reshape(state["pending_rows"], width)
            top = state["halo"] if state["halo"].size else None
            filtered = self._sobel_rows(pending, top, rows[0])
            state["output"] = np.concatenate([state["output"], filtered.reshape(-1)])
            state["out_rows"] = state["out_rows"] + state["pending_rows"]
            state["halo"] = pending[-1].copy()

        if nrows > 1:
            top = state["halo"] if state["halo"].size else None
            filtered = self._sobel_rows(rows[:-1], top, rows[-1])
            state["output"] = np.concatenate([state["output"], filtered.reshape(-1)])
            state["out_rows"] = state["out_rows"] + (nrows - 1)
            state["halo"] = rows[-2].copy()

        state["pending"] = rows[-1].copy()
        state["pending_rows"] = 1

    def finalize(self, state: KernelState) -> np.ndarray:
        import numpy as np

        width = state["width"]
        if state["leftover"].size:
            raise KernelExecutionError("input was not a whole number of rows")
        if state["pending_rows"]:
            pending = state["pending"].reshape(state["pending_rows"], width)
            top = state["halo"] if state["halo"].size else None
            filtered = self._sobel_rows(pending, top, None)
            state["output"] = np.concatenate([state["output"], filtered.reshape(-1)])
            state["out_rows"] = state["out_rows"] + state["pending_rows"]
            state["pending_rows"] = 0
        return state["output"].reshape(state["out_rows"], width)

    def reference(self, image: np.ndarray) -> np.ndarray:
        """One-shot Sobel magnitude of a whole image (test oracle)."""
        import numpy as np

        return self._sobel_rows(np.asarray(image, dtype=np.float64), None, None)


class WordCountKernel(Kernel):
    """Whitespace-delimited word count over byte data.

    Demonstrates a non-numeric kernel: the input dtype is uint8 and the
    state carries the in-word flag across chunk boundaries.
    """

    name = "wordcount"
    default_rate = 300 * MB
    dtype = "uint8"

    _WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")

    def result_bytes(self, input_bytes: float) -> float:
        return reduction_result(input_bytes)

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        state = KernelState()
        state["words"] = 0
        state["in_word"] = False
        return state

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        if chunk.size == 0:
            return
        data = np.asarray(chunk, dtype=np.uint8)
        is_space = (
            (data == 0x20) | (data == 0x09) | (data == 0x0A)
            | (data == 0x0D) | (data == 0x0B) | (data == 0x0C)
        )
        is_word = ~is_space
        # Word starts: word byte preceded by space (or by carry state).
        starts = int(np.count_nonzero(is_word[1:] & is_space[:-1]))
        if is_word[0] and not state["in_word"]:
            starts += 1
        state["words"] = state["words"] + starts
        state["in_word"] = bool(is_word[-1])

    def finalize(self, state: KernelState) -> int:
        return int(state["words"])

    def combine(self, partials: Sequence[Any]) -> int:
        # Stripe boundaries may split words; combining counts is then
        # an upper bound.  Exact combination needs boundary flags, so
        # we document the approximation and still combine.
        return int(sum(partials))
