"""Kernel rate calibration — reproduces paper Table III's methodology.

"We tested the processing capability of a core for each benchmark, and
found that each core could process 860MB data per second for the SUM
benchmark and 80MB data per second for the 2D Gaussian Filter."

``calibrate_rate`` measures the *host's* single-core streaming rate
for any kernel; ``calibration_table`` prints the measured rates next
to the paper's.  Simulations keep using the paper's rates (so figure
shapes are host-independent), but EXPERIMENTS.md records both.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.kernels.base import Kernel
from repro.kernels.costs import MB, PAPER_RATES

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def _make_input(kernel: Kernel, nbytes: int, width: int) -> Tuple[np.ndarray, Optional[dict]]:
    """Synthesize calibration input of ``nbytes`` for ``kernel``."""
    import numpy as np

    rng = np.random.default_rng(12345)
    if np.dtype(kernel.dtype) == np.dtype(np.uint8):
        data = rng.integers(0, 255, size=nbytes, dtype=np.uint8)
        return data, None
    n_elems = nbytes // np.dtype(kernel.dtype).itemsize
    if kernel.name in ("gaussian2d", "sobel"):
        rows = max(3, n_elems // width)
        data = rng.random(rows * width, dtype=np.float64)
        return data, {"width": width}
    return rng.random(n_elems, dtype=np.float64), None


def calibrate_rate(
    kernel: Kernel,
    nbytes: int = 32 * MB,
    repeats: int = 3,
    width: int = 2048,
    chunk_elems: int = 1 << 20,
) -> float:
    """Measured single-core processing rate of ``kernel``, bytes/s.

    Runs the streaming pipeline ``repeats`` times over ``nbytes`` of
    synthetic input and returns bytes/s of the best run (classic
    min-time-of-N timing to suppress scheduler noise, per the
    optimisation guide's "no optimization without measuring").
    """
    data, meta = _make_input(kernel, nbytes, width)
    actual_bytes = data.nbytes

    best = float("inf")
    for _ in range(max(1, repeats)):
        # Calibration *is* host measurement: the wall-clock read is the
        # point, not a determinism leak into simulated results.
        start = time.perf_counter()  # reprolint: disable=RPR102  calibration measures host time
        kernel.apply(data, meta=meta, chunk_elems=chunk_elems)
        elapsed = time.perf_counter() - start  # reprolint: disable=RPR102  calibration measures host time
        best = min(best, elapsed)
    if best <= 0:  # pragma: no cover - sub-resolution timing
        return float("inf")
    return actual_bytes / best


def calibration_table(
    kernels: Optional[List[Kernel]] = None,
    nbytes: int = 8 * MB,
) -> List[Dict[str, object]]:
    """Measured-vs-paper rate rows (Table III reproduction).

    Returns a list of dicts with keys ``kernel``, ``measured_mb_s``,
    ``paper_mb_s`` (None for extension kernels).
    """
    if kernels is None:
        from repro.kernels.registry import default_registry

        kernels = [default_registry.get(n) for n in ("sum", "gaussian2d")]

    rows: List[Dict[str, object]] = []
    for kernel in kernels:
        measured = calibrate_rate(kernel, nbytes=nbytes, repeats=2)
        paper = PAPER_RATES.get(kernel.name)
        rows.append(
            {
                "kernel": kernel.name,
                "measured_mb_s": measured / MB,
                "paper_mb_s": (paper / MB) if paper else None,
            }
        )
    return rows
