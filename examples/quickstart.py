#!/usr/bin/env python3
"""Quickstart: the DOSAS public API in five minutes.

Three things happen here:

1. A single active read through the enhanced MPI-IO interface
   (``MPI_File_read_ex`` with the paper's ``struct result``), with the
   kernel really executing on real bytes — the result is checked
   against a local computation.
2. The paper's three schemes (TS / AS / DOSAS) compared at one
   contention point.
3. The contention crossover: sweep the request count and watch
   DOSAS track whichever baseline is winning.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import MB, Scheme, WorkloadSpec, run_scheme
from repro.sim import Environment
from repro.cluster.config import NodeSpec, discfarm_config
from repro.cluster.probe import NodeProber
from repro.cluster.topology import ClusterTopology
from repro.core import ActiveIORuntime, ActiveStorageClient, DOSASEstimator
from repro.core.schemes import cost_models_from_registry
from repro.kernels.registry import default_registry
from repro.mpiio import DOUBLE, MPIIOContext, ResultStruct, Status
from repro.pvfs import IOServer, MetadataServer, PVFSClient


def single_active_read() -> None:
    """One MPI_File_read_ex call, end to end, with a verified result."""
    print("=== 1. One active read through the MPI-IO interface ===")
    env = Environment()
    config = discfarm_config(n_storage=1, n_compute=1)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(n_io_servers=1, default_stripe_size=config.stripe_size)

    server = IOServer(env, topo.storage_node(0), topo.link_for(topo.storage_node(0)),
                      mds)
    prober = NodeProber(server.node, server.queue_stats)
    estimator = DOSASEstimator(
        prober=prober,
        kernel_models=cost_models_from_registry(default_registry),
        bandwidth=config.network_bandwidth,
    )
    from repro.core.runtime import RuntimeConfig
    ActiveIORuntime(env, server, estimator,
                    config=RuntimeConfig(execute_kernels=True))

    # An 8 MB file of synthetic float64 data.
    file = mds.create("/data/simulation_output", size=8 * MB, seed=7)
    node = topo.compute_node(0)
    asc = ActiveStorageClient(env, node, PVFSClient(env, node, [server], mds),
                              execute_kernels=True)
    ctx = MPIIOContext(env, asc)

    def app():
        fh = ctx.open("/data/simulation_output")
        result = ResultStruct()
        status = Status()
        count = fh.get_size() // DOUBLE.size
        yield from fh.read_ex(result, count, DOUBLE, "sum", status)
        return result, status

    result, status = env.run(until=env.process(app()))
    expected = float(np.sum(mds.lookup("/data/simulation_output")
                            .read_bytes_as_array(0, 8 * MB)))
    print(f"  completed={int(result.completed)}  sum={result.buf:.6f}  "
          f"expected={expected:.6f}")
    print(f"  simulated time: {status.finished_at:.4f}s, "
          f"demotions: {status.demotions}")
    assert abs(result.buf - expected) < 1e-6
    print("  result verified.\n")


def compare_schemes() -> None:
    """TS vs AS vs DOSAS at one contention point (paper Fig. 7)."""
    print("=== 2. The three schemes at 8 requests x 128 MB (Gaussian) ===")
    spec = WorkloadSpec(kernel="gaussian2d", n_requests=8, request_bytes=128 * MB)
    for scheme in Scheme:
        r = run_scheme(scheme, spec)
        print(f"  {scheme.value.upper():6s} makespan={r.makespan:7.2f}s  "
              f"bandwidth={r.bandwidth / MB:6.1f} MB/s  "
              f"(active={r.served_active}, demoted={r.demoted})")
    print()


def crossover_sweep() -> None:
    """The resource-contention crossover (paper Fig. 2/4)."""
    print("=== 3. Contention crossover, Gaussian filter, 128 MB requests ===")
    print(f"  {'n':>4s} {'TS':>8s} {'AS':>8s} {'DOSAS':>8s}   winner tracked?")
    for n in (1, 2, 4, 8, 16, 32, 64):
        spec = WorkloadSpec(kernel="gaussian2d", n_requests=n,
                            request_bytes=128 * MB)
        t = {s: run_scheme(s, spec).makespan for s in Scheme}
        best = min(t[Scheme.TS], t[Scheme.AS])
        tracked = "yes" if t[Scheme.DOSAS] <= best * 1.05 else "NO"
        print(f"  {n:4d} {t[Scheme.TS]:8.2f} {t[Scheme.AS]:8.2f} "
              f"{t[Scheme.DOSAS]:8.2f}   {tracked}")
    print("\n  AS wins at low contention, TS at high; DOSAS follows the winner.")


if __name__ == "__main__":
    single_active_read()
    compare_schemes()
    crossover_sweep()
