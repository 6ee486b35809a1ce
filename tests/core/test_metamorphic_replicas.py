"""Metamorphic relation: replicas are inert while straggler dispatch is off.

``n_replicas`` declares how many servers can serve each byte.  Only the
straggler-aware dispatcher reads that candidate set (it ranks replicas
and hedges slow reads), so with ``straggler_scheduler=False`` raising
``n_replicas`` from 1 to any r <= ``n_storage`` must leave every
``SchemeResult`` field except ``spec`` equal: the same makespans,
latencies, decisions, server metrics and policy values.
"""

import dataclasses

import pytest

from repro.cluster.config import MB
from repro.core import RetryPolicy, Scheme, WorkloadSpec, run_scheme

RETRIES = {"no-retry": None, "timeout-30": RetryPolicy(timeout=30)}


def differing_fields(a, b):
    return [
        f.name for f in dataclasses.fields(a)
        if f.name != "spec" and getattr(a, f.name) != getattr(b, f.name)
    ]


@pytest.mark.parametrize("retry", sorted(RETRIES))
@pytest.mark.parametrize("n_storage", [2, 3, 4])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_replicas_change_nothing_with_dispatch_off(scheme, n_storage, retry):
    policy = RETRIES[retry]
    for n in (1, 4, 16):
        for jitter in (False, True):
            spec = WorkloadSpec(kernel="gaussian2d", n_requests=n,
                                request_bytes=64 * MB, n_storage=n_storage,
                                jitter=jitter, seed=3)
            single = run_scheme(scheme, spec, retry_policy=policy)
            for r in range(2, n_storage + 1):
                replicated = run_scheme(
                    scheme, dataclasses.replace(spec, n_replicas=r),
                    retry_policy=policy,
                )
                assert differing_fields(single, replicated) == [], (n, jitter, r)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_replicas_do_change_a_run_with_dispatch_on(scheme):
    """The control: the dispatcher reads the replicas, so the relation
    above is not equal merely because nothing looks at them."""
    spec = WorkloadSpec(kernel="gaussian2d", n_requests=16, request_bytes=64 * MB,
                        n_storage=4, seed=3, straggler_scheduler=True)
    policy = RetryPolicy(timeout=30)
    single = run_scheme(scheme, spec, retry_policy=policy)
    replicated = run_scheme(scheme, dataclasses.replace(spec, n_replicas=2),
                            retry_policy=policy)
    assert "server_metrics" in differing_fields(single, replicated)
