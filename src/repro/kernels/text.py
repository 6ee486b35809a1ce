"""Byte-stream kernels: pattern grep and Shannon entropy.

Pattern search is *the* canonical active-disk workload (Riedel et
al.'s Active Disks [17], Acharya et al.'s stream model [1] — both in
the paper's related work); an entropy estimate is the kind of cheap
server-side pre-filter a compression pipeline runs.  Both stream over
``uint8`` data and checkpoint exactly across any chunk boundary.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro.kernels.base import Kernel, KernelExecutionError, KernelState
from repro.kernels.costs import MB, reduction_result

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class GrepKernel(Kernel):
    """Count (possibly overlapping) occurrences of a byte pattern.

    State carries the trailing ``len(pattern) - 1`` bytes so matches
    spanning chunk boundaries are found; an interrupted search resumed
    on another node reports exactly the uninterrupted count.
    """

    name = "grep"
    default_rate = 400 * MB
    dtype = "uint8"

    def __init__(self, rate: Optional[float] = None, pattern: bytes = b"the") -> None:
        super().__init__(rate)
        if not pattern:
            raise KernelExecutionError("pattern must be non-empty")
        self.pattern = bytes(pattern)

    def result_bytes(self, input_bytes: float) -> float:
        return reduction_result(input_bytes)

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        import numpy as np

        state = KernelState()
        state["matches"] = 0
        state["carry"] = np.empty(0, dtype=np.uint8)
        return state

    @staticmethod
    def _count(haystack: np.ndarray, needle: bytes) -> int:
        """Overlapping-occurrence count via a boolean AND reduction."""
        import numpy as np

        n = len(needle)
        if haystack.size < n:
            return 0
        if n == 1:
            return int(np.count_nonzero(haystack == needle[0]))
        hits = haystack[: haystack.size - n + 1] == needle[0]
        for j in range(1, n):
            hits &= haystack[j : haystack.size - n + 1 + j] == needle[j]
        return int(np.count_nonzero(hits))

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        if chunk.size == 0:
            return
        data = np.concatenate([state["carry"], np.asarray(chunk, dtype=np.uint8)])
        n = len(self.pattern)
        # Matches wholly inside the carry were counted last round; only
        # count matches that end within the new bytes.
        prior = self._count(state["carry"], self.pattern)
        state["matches"] = state["matches"] + self._count(data, self.pattern) - prior
        state["carry"] = data[max(0, data.size - (n - 1)):].copy() if n > 1 \
            else np.empty(0, dtype=np.uint8)

    def finalize(self, state: KernelState) -> int:
        return int(state["matches"])

    def combine(self, partials: Sequence[Any]) -> int:
        # Stripe boundaries can split a match; summing is a lower
        # bound (documented, mirrors the wordcount caveat).
        return int(sum(partials))

    def reference(self, data: np.ndarray) -> int:
        """One-shot oracle for tests."""
        import numpy as np

        return self._count(np.asarray(data, dtype=np.uint8), self.pattern)


class EntropyKernel(Kernel):
    """Byte-level Shannon entropy (bits/byte) with exact combination.

    The finalised value is ``(entropy_bits, counts)`` — carrying the
    256-bin histogram lets stripes combine exactly.
    """

    name = "entropy"
    default_rate = 350 * MB
    dtype = "uint8"

    def result_bytes(self, input_bytes: float) -> float:
        return 256 * 8 + 8.0

    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        import numpy as np

        state = KernelState()
        state["counts"] = np.zeros(256, dtype=np.int64)
        return state

    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        import numpy as np

        if chunk.size:
            state["counts"] = state["counts"] + np.bincount(
                np.asarray(chunk, dtype=np.uint8), minlength=256
            )

    @staticmethod
    def _entropy(counts: np.ndarray) -> float:
        import numpy as np

        total = counts.sum()
        if total == 0:
            return 0.0
        p = counts[counts > 0] / total
        return float(-(p * np.log2(p)).sum())

    def finalize(self, state: KernelState) -> tuple:
        counts = state["counts"].copy()
        return (self._entropy(counts), counts)

    def combine(self, partials: Sequence[Any]) -> tuple:
        import numpy as np

        counts = np.zeros(256, dtype=np.int64)
        for _e, c in partials:
            counts += c
        return (self._entropy(counts), counts)
