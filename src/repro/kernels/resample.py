"""Downsampling kernel — a *partial*-reduction workload.

SUM returns 8 bytes; the Gaussian filter (with write-back) returns an
ack; ``DownsampleKernel`` sits between: it returns every k-th element,
so h(x) = x/k.  That makes the DOSAS objective genuinely size-coupled
— the g(h(d_i)) term is no longer negligible — and shifts the
AS-vs-TS crossover, which the kernel-spectrum ablation bench sweeps.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro.kernels.base import Kernel, KernelExecutionError, KernelState
from repro.kernels.costs import MB

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class DownsampleKernel(Kernel):
    """Keep every ``factor``-th float64 element (phase-exact).

    State carries the sampling phase so chunk boundaries anywhere
    produce the same output as a one-shot pass.
    """

    name = "downsample"
    default_rate = 600 * MB
    dtype = "float64"

    def __init__(self, rate: Optional[float] = None, factor: int = 8) -> None:
        super().__init__(rate)
        if factor < 1:
            raise KernelExecutionError("factor must be >= 1")
        self.factor = int(factor)

    def result_bytes(self, input_bytes: float) -> float:
        return float(input_bytes) / self.factor

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        import numpy as np

        state = KernelState()
        #: Elements consumed so far (mod factor drives the phase).
        state["consumed"] = 0
        state["output"] = np.empty(0, dtype=np.float64)
        return state

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        if chunk.size == 0:
            return
        consumed = state["consumed"]
        # First kept element in this chunk: the next index that is
        # ≡ 0 (mod factor) in global element coordinates.
        first = (-consumed) % self.factor
        kept = np.asarray(chunk, dtype=np.float64)[first :: self.factor]
        state["output"] = np.concatenate([state["output"], kept])
        state["consumed"] = consumed + int(chunk.size)

    def finalize(self, state: KernelState) -> np.ndarray:
        return state["output"].copy()

    def combine(self, partials: Sequence[Any]) -> np.ndarray:
        import numpy as np

        # Per-server partials arrive in logical stripe order; phases
        # are only globally consistent for unstriped requests, so the
        # concatenation is exact per server and approximate across
        # stripes (documented, like grep).
        return np.concatenate(list(partials))

    def reference(self, data: np.ndarray) -> np.ndarray:
        """One-shot oracle for tests."""
        import numpy as np

        return np.asarray(data, dtype=np.float64).reshape(-1)[:: self.factor]
