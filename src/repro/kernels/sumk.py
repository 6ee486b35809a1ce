"""The SUM benchmark kernel (paper Table III).

One addition per data item; the lightest kernel the paper evaluates.
Its 860 MB/s/core rate is far above the 118 MB/s network, which is why
"AS can always achieve better performance than TS for all scale sizes"
(Fig. 6).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro.kernels.base import Kernel, KernelState
from repro.kernels.costs import PAPER_RATES, reduction_result

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class SumKernel(Kernel):
    """Sum of all float64 elements of the input."""

    name = "sum"
    default_rate = PAPER_RATES["sum"]
    dtype = "float64"

    def result_bytes(self, input_bytes: float) -> float:
        return reduction_result(input_bytes)

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        state = KernelState()
        state["acc"] = 0.0
        state["count"] = 0
        return state

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        # float(...) keeps the accumulator a checkpointable Python
        # scalar; numpy's pairwise summation handles the chunk.
        state["acc"] = state["acc"] + float(np.sum(chunk, dtype=np.float64))
        state["count"] = state["count"] + int(chunk.size)

    def finalize(self, state: KernelState) -> float:
        return float(state["acc"])

    def combine(self, partials: Sequence[Any]) -> float:
        """Partial sums from striped servers add up directly."""
        return float(sum(partials))
