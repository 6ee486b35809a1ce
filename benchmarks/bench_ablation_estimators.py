"""Ablation — extended Contention Estimator variants.

The paper's estimator decides from the instantaneous probe.  Verdict
hysteresis (``repro.core.estimators_ext``) targets one of its failure
modes, policy flapping.  This bench compares the two under a
flapping-prone workload: requests trickling in at exactly the
crossover rate, with bandwidth jitter on.
"""

from repro.cluster.config import MB
from repro.core import Scheme, WorkloadSpec, run_scheme


def bench_estimator_variants(record):
    base = dict(
        kernel="gaussian2d", n_requests=16, request_bytes=128 * MB,
        arrival_spacing=1.0,      # trickle right at the decision boundary
        jitter=True, probe_period=0.25,
    )

    def sweep():
        out = []
        for variant in ("base", "hysteresis"):
            r = run_scheme(Scheme.DOSAS, WorkloadSpec(
                **base, estimator_variant=variant))
            out.append((variant, r.makespan, r.served_active, r.demoted,
                        r.interrupted))
        return out

    rows = record.once(sweep)
    record.table(
        "DOSAS estimator variants under a jittered trickle (16 x 128 MB)",
        ["variant", "makespan (s)", "offloaded", "demoted", "migrations"],
        rows,
    )
    by_variant = {r[0]: r for r in rows}
    record.values(
        hysteresis_migration_reduction=(
            by_variant["base"][4] - by_variant["hysteresis"][4]
        ),
    )
