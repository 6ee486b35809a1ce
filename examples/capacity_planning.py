#!/usr/bin/env python3
"""Capacity planning with the analytic advisor + a collective verify.

An operator is sizing the I/O subsystem for a new analysis campaign:
filters at several request sizes, on machines with different
storage-node strengths.  The advisor answers instantly from the
paper's cost model (Eq. 1–7); one point is then verified both by the
event simulator and by an end-to-end collective MPI-IO run
(``read_ex_all``) with real data.

Run:  python examples/capacity_planning.py
"""

import numpy as np

from repro import MB, Scheme, WorkloadSpec, run_scheme
from repro.cluster.config import NodeSpec, discfarm_config
from repro.core import Advisor


def what_if_tables() -> None:
    print("=== 1. What-if: where does contention bite? ===")
    advisor = Advisor()
    print(f"  {'kernel':12s} {'request':>8s}  TS-beats-AS at")
    for kernel in ("gaussian2d", "sobel", "sum"):
        for mb in (128, 512):
            crossover = advisor.crossover(kernel, mb * MB, max_requests=128)
            label = f"{crossover} requests" if crossover else "never (≤128)"
            print(f"  {kernel:12s} {mb:6d}MB  {label}")
    print()

    print("=== 2. What-if: beefier storage nodes ===")
    for speed in (1.0, 2.0, 4.0):
        cfg = discfarm_config().with_(
            storage_spec=NodeSpec(cores=2, core_speed=speed))
        a = Advisor(cfg)
        crossover = a.crossover("gaussian2d", 256 * MB, max_requests=256)
        p = a.predict("gaussian2d", [256 * MB] * 16)
        print(f"  storage {speed:.0f}x: crossover at "
              f"{crossover or '>256'} requests; at n=16 recommend "
              f"{p.recommended.value.upper()} "
              f"(TS {p.t_traditional:.1f}s / AS {p.t_active:.1f}s / "
              f"DOSAS {p.t_dosas:.1f}s)")
    print()


def verify_one_point() -> None:
    print("=== 3. Verify one plan point against the simulator ===")
    advisor = Advisor()
    pred = advisor.predict("gaussian2d", [256 * MB] * 8)
    sim = {
        s: run_scheme(s, WorkloadSpec(kernel="gaussian2d", n_requests=8,
                                      request_bytes=256 * MB)).makespan
        for s in Scheme
    }
    print(f"  {'':8s} {'predicted':>10s} {'simulated':>10s}")
    for scheme, predicted in ((Scheme.TS, pred.t_traditional),
                              (Scheme.AS, pred.t_active),
                              (Scheme.DOSAS, pred.t_dosas)):
        print(f"  {scheme.value.upper():8s} {predicted:10.2f} "
              f"{sim[scheme]:10.2f}")
    assert abs(pred.t_dosas - sim[Scheme.DOSAS]) / sim[Scheme.DOSAS] < 0.01
    print("  analytic model within 1% of the event simulation\n")


def collective_end_to_end() -> None:
    print("=== 4. End-to-end collective read_ex_all (4 ranks, verified) ===")
    from repro.sim import Environment
    from repro.cluster import ClusterTopology, NodeProber
    from repro.core import ActiveIORuntime, ActiveStorageClient, DOSASEstimator
    from repro.core.runtime import RuntimeConfig
    from repro.core.schemes import cost_models_from_registry
    from repro.kernels.registry import default_registry
    from repro.mpiio import Communicator, DOUBLE, MPIIOContext
    from repro.pvfs import IOServer, MetadataServer, PVFSClient

    env = Environment()
    config = discfarm_config(n_storage=1, n_compute=4)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(1, config.stripe_size)
    server = IOServer(env, topo.storage_node(0),
                      topo.link_for(topo.storage_node(0)), mds)
    estimator = DOSASEstimator(
        prober=NodeProber(server.node, server.queue_stats),
        kernel_models=cost_models_from_registry(default_registry),
        bandwidth=config.network_bandwidth,
    )
    ActiveIORuntime(env, server, estimator,
                    config=RuntimeConfig(execute_kernels=True))
    mds.create("/campaign/field", size=8 * MB, seed=99)

    contexts = []
    for i in range(4):
        node = topo.compute_node(i)
        asc = ActiveStorageClient(env, node,
                                  PVFSClient(env, node, [server], mds),
                                  execute_kernels=True)
        contexts.append(MPIIOContext(env, asc))
    comm = Communicator(contexts)
    files = comm.open_all("/campaign/field")

    def job():
        outcomes = yield from comm.read_ex_all(
            files, 8 * MB // 8, DOUBLE, "sum")
        return outcomes, env.now

    outcomes, t = env.run(until=env.process(job()))
    total = sum(o.result for o in outcomes)
    expected = float(mds.lookup("/campaign/field")
                     .read_bytes_as_array(0, 8 * MB).sum())
    assert abs(total - expected) < 1e-6
    print(f"  4 ranks reduced 8 MB collectively in {t * 1000:.1f} ms "
          f"(simulated); sum verified: {total:.4f}")


if __name__ == "__main__":
    what_if_tables()
    verify_one_point()
    collective_end_to_end()
