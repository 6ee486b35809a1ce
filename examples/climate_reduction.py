#!/usr/bin/env python3
"""Climate-model post-processing: reductions over large output dumps.

The paper's introduction motivates active storage with climate
modelling ("the data volume processed in climate modeling ... can
easily range from 100TBs to 10PBs").  A post-processing campaign
computes global statistics (sum, mean, min/max, variance, histogram)
over each timestep dump.  Reductions return a handful of bytes from
hundreds of megabytes — the ideal active-storage workload (paper
Fig. 6: AS always beats TS for SUM).

This example runs the campaign at paper scale in timing mode, then a
scaled-down verified pass where every statistic is checked against
numpy computed locally.

Run:  python examples/climate_reduction.py
"""

import numpy as np

from repro import GB, MB, Scheme, WorkloadSpec, run_scheme
from repro.analysis import improvement
from repro.pvfs.filehandle import SyntheticData

TIMESTEP_BYTES = 1 * GB
TIMESTEPS_PER_NODE = 16


def timing_campaign() -> None:
    print(f"=== Reductions over {TIMESTEPS_PER_NODE} timesteps x "
          f"{TIMESTEP_BYTES // GB} GB per storage node ===")
    for op in ("sum", "mean", "minmax", "variance"):
        spec = WorkloadSpec(kernel=op, n_requests=TIMESTEPS_PER_NODE,
                            request_bytes=TIMESTEP_BYTES)
        ts = run_scheme(Scheme.TS, spec)
        dosas = run_scheme(Scheme.DOSAS, spec)
        gain = improvement(ts.makespan, dosas.makespan)
        print(f"  {op:10s} TS={ts.makespan:8.1f}s  DOSAS={dosas.makespan:8.1f}s  "
              f"({100 * gain:4.1f}% faster, offloaded "
              f"{dosas.served_active}/{TIMESTEPS_PER_NODE})")
    print()


def verified_campaign() -> None:
    print("=== Scaled-down verified pass (4 timesteps x 4 MB) ===")
    n, size = 4, 4 * MB
    checks = {
        "sum": lambda d: d.sum(),
        "mean": lambda d: (d.mean(), d.size),
        "minmax": lambda d: (d.min(), d.max()),
        "variance": lambda d: (d.var(), d.mean(), d.size),
        "threshold_count": lambda d: int((d > 0.5).sum()),
    }
    for op, oracle in checks.items():
        # Seed 0 makes timestep i the data of ``SyntheticData(i)``,
        # the oracle's input below.
        spec = WorkloadSpec(kernel=op, n_requests=n, request_bytes=size,
                            execute_kernels=True, seed=0)
        result = run_scheme(Scheme.DOSAS, spec)
        for i in range(n):
            data = SyntheticData(i).read(0, size)
            expected = oracle(data)
            got = result.results[i]
            assert np.allclose(np.asarray(got, dtype=np.float64),
                               np.asarray(expected, dtype=np.float64)), (
                f"{op} timestep {i}: {got} != {expected}"
            )
        print(f"  {op:16s} all {n} results verified against numpy")
    print("\nEvery reduction a downstream tool would consume is "
          "numerically identical to computing it locally.")


if __name__ == "__main__":
    timing_campaign()
    verified_campaign()
