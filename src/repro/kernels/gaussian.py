"""The 2-D Gaussian filter benchmark kernel (paper Table III).

"9 multiplication operations, 9 addition operations and 1 divide
operation per data item" — a 3×3 Gaussian convolution, "widely used in
the area of geographic information systems and medical image
processing".  80 MB/s/core on Discfarm: *below* the 118 MB/s network,
which is what creates the contention crossover the whole paper is
about.

Streaming model: the image arrives row-block by row-block; each block
is filtered with a one-row halo carried in the state, so interrupting
between blocks and resuming elsewhere yields a bit-identical image.
The filtered output is written back to the parallel file system at the
producing node (Son et al. [22] kernel convention), so only a small
acknowledgement crosses the network — ``result_bytes`` is ~4 KB.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro.kernels.base import Kernel, KernelExecutionError, KernelState
from repro.kernels.costs import PAPER_RATES, ack_result

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: The classic 3×3 Gaussian mask with 1/16 normalisation: 9 multiplies,
#: 9 adds (8 adds of products + rounding add) and 1 divide per pixel —
#: the paper's Table III operation count.  ``GAUSS3`` is the same mask
#: as a numpy array, built on first access.
_MASK = ((1.0, 2.0, 1.0), (2.0, 4.0, 2.0), (1.0, 2.0, 1.0))
GAUSS3_NORM = 16.0


def __getattr__(name: str) -> Any:
    """``GAUSS3``, built on first access so that importing does not load numpy."""
    if name == "GAUSS3":
        import numpy as np

        globals()["GAUSS3"] = mask = np.array(_MASK)
        return mask
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def gaussian_filter_rows(
    block: np.ndarray, top_halo: Optional[np.ndarray], bottom_halo: Optional[np.ndarray]
) -> np.ndarray:
    """Filter a row block given its halo rows (edge-replicated).

    Pure function so the property tests can compare block-wise
    streaming against one-shot filtering.
    """
    import numpy as np

    rows = [block]
    if top_halo is not None:
        rows.insert(0, top_halo.reshape(1, -1))
    else:
        rows.insert(0, block[:1])
    if bottom_halo is not None:
        rows.append(bottom_halo.reshape(1, -1))
    else:
        rows.append(block[-1:])
    padded = np.vstack(rows)
    # Replicate the left/right edges.
    padded = np.pad(padded, ((0, 0), (1, 1)), mode="edge")

    out = np.zeros_like(block)
    h = block.shape[0]
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            w = _MASK[dy + 1][dx + 1]
            out += w * padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + block.shape[1]]
    return out / GAUSS3_NORM


class Gaussian2DKernel(Kernel):
    """3×3 Gaussian smoothing over a row-major float64 image."""

    name = "gaussian2d"
    default_rate = PAPER_RATES["gaussian2d"]
    dtype = "float64"
    writes_output = True

    def result_bytes(self, input_bytes: float) -> float:
        return ack_result(input_bytes)

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        import numpy as np

        if not meta or "width" not in meta:
            raise KernelExecutionError(
                "gaussian2d needs meta={'width': <pixels per row>}"
            )
        width = int(meta["width"])
        if width <= 0:
            raise KernelExecutionError(f"width must be positive, got {width}")
        state = KernelState()
        state["width"] = width
        #: Carry-over of incomplete trailing row elements.
        state["leftover"] = np.empty(0, dtype=np.float64)
        #: The last complete-but-unfiltered row block is held back one
        #: step so its bottom halo is available (pending rows).
        state["pending"] = np.empty((0, width), dtype=np.float64).reshape(-1)
        state["pending_rows"] = 0
        #: Bottom row of the block *before* pending (its top halo).
        state["halo"] = np.empty(0, dtype=np.float64)
        state["out_rows"] = 0
        #: Accumulated filtered output (flattened rows).
        state["output"] = np.empty(0, dtype=np.float64)
        return state

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        width = state["width"]
        data = np.concatenate([state["leftover"], np.asarray(chunk, dtype=np.float64)])
        nrows = data.size // width
        state["leftover"] = data[nrows * width :].copy()
        if nrows == 0:
            return
        rows = data[: nrows * width].reshape(nrows, width)

        pending_rows = state["pending_rows"]
        if pending_rows:
            pending = state["pending"].reshape(pending_rows, width)
            top = state["halo"] if state["halo"].size else None
            filtered = gaussian_filter_rows(pending, top, rows[0])
            state["output"] = np.concatenate([state["output"], filtered.reshape(-1)])
            state["out_rows"] = state["out_rows"] + pending_rows
            state["halo"] = pending[-1].copy()

        # The new rows become pending except that all-but-last can be
        # filtered right away using the last row as their bottom halo.
        if nrows > 1:
            top = state["halo"] if state["halo"].size else None
            filtered = gaussian_filter_rows(rows[:-1], top, rows[-1])
            state["output"] = np.concatenate([state["output"], filtered.reshape(-1)])
            state["out_rows"] = state["out_rows"] + (nrows - 1)
            state["halo"] = rows[-2].copy()

        state["pending"] = rows[-1].copy()
        state["pending_rows"] = 1

    def finalize(self, state: KernelState) -> np.ndarray:
        import numpy as np

        width = state["width"]
        if state["leftover"].size:
            raise KernelExecutionError(
                f"input was not a whole number of rows: {state['leftover'].size} "
                f"trailing elements (width={width})"
            )
        if state["pending_rows"]:
            pending = state["pending"].reshape(state["pending_rows"], width)
            top = state["halo"] if state["halo"].size else None
            filtered = gaussian_filter_rows(pending, top, None)
            state["output"] = np.concatenate([state["output"], filtered.reshape(-1)])
            state["out_rows"] = state["out_rows"] + state["pending_rows"]
            state["pending"] = np.empty(0, dtype=np.float64)
            state["pending_rows"] = 0
        return state["output"].reshape(state["out_rows"], width)

    def reference(self, image: np.ndarray) -> np.ndarray:
        """One-shot filter of a whole image (test oracle)."""
        import numpy as np

        return gaussian_filter_rows(np.asarray(image, dtype=np.float64), None, None)
