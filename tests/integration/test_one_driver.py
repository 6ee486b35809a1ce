"""Regression net for the one run driver.

``run_scheme`` and ``run_plan`` both lower onto ``build_system`` →
client processes → ``drive`` → ``summarise``.  These constants were
measured before the two drivers merged, so they pin that the lowering
changed no simulated output:

- for ``run_scheme``, the SHA-256 of the whole record (``asdict``
  minus the numpy ``results``) on specs the frozen benchmark does not
  reach — background readers with jitter, the hysteresis estimator,
  explicit arrival times, kernel overhead with network latency, a
  chaos fault schedule, straggler dispatch over replicas, and a
  policed tenant mix;
- for ``run_plan``, every ``(app, process_index, sequence, started_at,
  finished_at, disposition)`` outcome of ``bench_ablation_multiapp``'s
  plan, in completion order, under all three schemes;
- the whole record, computed kernel values included, of a DOSAS run
  that executes its ``sum`` kernels under a chaos schedule, and the
  seed-0 ``chaos-soak`` scenario report.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.cluster.config import MB
from repro.core import RetryPolicy, Scheme, WorkloadSpec, run_plan, run_scheme
from repro.faults import scenario
from repro.pvfs.client import reset_parent_ids
from repro.pvfs.requests import reset_request_ids
from repro.qos import QoSConfig, TenantSpec
from repro.scenario import BUILTIN, run_scenario, scenario_from_dict
from repro.workload import (
    ArrivalPattern,
    BatchApplication,
    StreamingApplication,
    WorkloadGenerator,
)

BASE = dict(n_requests=6, request_bytes=64 * MB, n_storage=2, seed=5)

#: name -> (spec fields, run_scheme keyword factories).
CASES = {
    "background": (
        dict(BASE, background_readers=1, background_bytes=16 * MB, jitter=True),
        {},
    ),
    "hysteresis": (dict(BASE, estimator_variant="hysteresis"), {}),
    "arrival_times": (
        dict(BASE, arrival_times=tuple(0.25 * ((7 * i) % 12) for i in range(12))),
        {},
    ),
    "overheads": (dict(BASE, kernel_overhead=0.05, network_latency=0.001), {}),
    "chaos": (
        dict(BASE, n_requests=3),
        dict(fault_schedule=lambda: scenario(
            "chaos", seed=5, n_events=6, span=1.5, n_targets=2)),
    ),
    "stragglers": (
        dict(BASE, n_storage=3, straggler_scheduler=True, n_replicas=2),
        dict(fault_schedule=lambda: scenario("stragglers", seed=4, n_servers=3)),
    ),
    "tenants": (
        dict(BASE, request_bytes=16 * MB, tenants=(
            TenantSpec(name="gold", rate=20 * MB, requests=1, slo_latency=2.0),
            TenantSpec(name="noisy", rate=10 * MB, requests=3),
        )),
        dict(qos=lambda: QoSConfig(max_queue_depth=2),
             retry_policy=lambda: RetryPolicy(timeout=20.0, max_retries=8)),
    ),
}

#: case -> scheme -> SHA-256 of the record.  Every DOSAS record was
#: re-measured when the Contention Estimator began parking its probe on
#: an idle node: ``policy_values`` lost the idle probes' zeros and
#: gained one catch-up value per wake-up, and nothing else moved.  The
#: ``stragglers`` DOSAS record also moved when a single-piece recovered
#: read stopped pushing the three queue entries of the child process it
#: once spawned.
SCHEME_DIGESTS = {
    "background": {
        "ts": "2af57143a2a44a36b25178eb733b22030a82eee38fb62151a7822d253ca42bf8",
        "as": "f6c1cd1b53e1097aa6a2e446e5379ace4c6b1aef7faac028f891b53250ef89c8",
        "dosas": "15c3cb67e4f2d5929c4783f5acbf6617e867cbc32e7120789517cfe641e47ff6",
    },
    "hysteresis": {
        "ts": "9871a444818fe720255efb7d8a2bec14e4bdc018789dd315400b4c1d88f8bcde",
        "as": "b497deada421fa306edd2d85c727dae4fa9a0b446087adae86fe04a3e20280bb",
        "dosas": "5d47c8595734b79b674229ad4889d90ece95de2b0aa1e72aa8d243dc312ae097",
    },
    "arrival_times": {
        "ts": "d5c6e6efc37d7b4246c692f5cc9da574e7adb84b02fcaed31839caec77460207",
        "as": "0a87f2df208c94371a1f273ce30df98c90ba1d64997351ab16f39485c7d4bef7",
        "dosas": "05a50b82c3abdd60a4cea5ebc85b69a3654b2da9fd442aa97eb5b3caee613742",
    },
    "overheads": {
        "ts": "b8f82c5d49f1dcd3da9e2f02f2ffea08230d11e0c205a1c35c7247349ca4459c",
        "as": "01fedf937777a82a809ad7acc89d270aa8f30683a60408fd321370f143e6fcd6",
        "dosas": "8abda9f8c7341279c17d0e13baf52b1d9ee201534f103e859a4d1744ac2a44f3",
    },
    "chaos": {
        "ts": "3a8e356b60711fc1d6c2cfefe57ca44d80e4384033f1873a9d152f6f3d49d906",
        "as": "b1b509b6029fae071346822578f05c623944b19d8b26fa368f025ade5a7bb976",
        "dosas": "4eb5eb9ed1def41c3ba80254d51925907f0fc94ac91bcd143395e57bacf7127b",
    },
    "stragglers": {
        "ts": "385e8c1322eac39b43332f328a2ae2b131928926f8eed644f378868592d315ad",
        "as": "534ca5417c69fb17258398c086492b3d080c7df0be608a3f63c3d1d55d028f31",
        "dosas": "108927a8b6b7b88f4c0911b163df1159f54e4f465f8953d9b1b31d170bdf0da3",
    },
    "tenants": {
        "ts": "a7042b07f2e08f5b29f0d9f67e11ed4701d47f331d2af99620db0088770719d8",
        "as": "fd9f5974ce577a8af57a8d1fe1a08df151ae00ff264d6869b93df6997ae38b84",
        "dosas": "0495699defd37496d88fc0d1fdc6765d6abc8cf57694e9c6be685e428d7947c7",
    },
}

#: scheme -> (outcome digest, makespan, served_active, demoted, interrupted).
#: TS ``demoted`` counts the 16 active requests finished client-side
#: (it read 0 before the merge); every other value is as measured then.
PLAN_PINS = {
    Scheme.TS: ("5e8e35dff9acb481fbd62be12133e641d1fb16a0439923b9aebc0c0d217ffd89",
                50.544311600040544, 0, 16, 0),
    Scheme.AS: ("5d5a41c05dd971635c2de6fbe8c69e9d2eff2ddc951278b4f31c952e5d852833",
                26.477381213476328, 16, 0, 0),
    Scheme.DOSAS: ("22c4b54cc33263885c798ec1ac20b84cc3bbe9ef2e69d335ec3c727b320bfbed",
                   26.477381213476328, 12, 4, 1),
}

#: SHA-256 of the executed-kernel chaos run's record, ``results`` kept.
KERNEL_CHAOS_DIGEST = (
    "8b1be70c5eb00c5823c40d808cacd993a3e9ed8611622f4c50dde86b622173f8"
)
#: SHA-256 of ``ScenarioReport.to_json()`` for ``chaos-soak`` at seed 0.
#: Re-measured when a hedge win began handing back the primary's
#: half-open breaker probe: the protected DOSAS run's retries went
#: 47 -> 46 and its breaker fast-fails 1 -> 0, goodput unchanged.
#: Re-measured again when a single-piece recovered read stopped
#: pushing the three queue entries of the child process it once
#: spawned: the protected DOSAS run's hedges went 32 -> 27 and its
#: makespan 5.1217 -> 5.0360 s.
CHAOS_SOAK_DIGEST = (
    "a18f4888af8a78d7e5fb7ddaf7589a39ad0e0fefedc77e2a75e09a4d4416c45e"
)


def _fresh_ids():
    # Process-global id counters restart so rids in the retry logs
    # match the run that measured the constants.
    reset_request_ids()
    reset_parent_ids()


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize("case", list(CASES))
def test_run_scheme_record_unchanged(case, scheme):
    fields, kwargs = CASES[case]
    _fresh_ids()
    result = run_scheme(scheme, WorkloadSpec(**fields),
                        **{k: make() for k, make in kwargs.items()})
    record = asdict(result)
    record.pop("results")
    text = json.dumps(record, sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        SCHEME_DIGESTS[case][scheme.value]


def _multiapp_plan():
    """``bench_ablation_multiapp``'s Figure-1 mix."""
    apps = [
        BatchApplication("imaging", 8, 256 * MB, operation="gaussian2d"),
        StreamingApplication("climate", 4, 512 * MB, rounds=2,
                             think_time=5.0, operation="sum"),
        BatchApplication("backup", 4, 1024 * MB),
    ]
    return WorkloadGenerator(seed=42).plan(apps, ArrivalPattern.POISSON, rate=0.5)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_run_plan_outcomes_unchanged(scheme):
    _fresh_ids()
    spec = WorkloadSpec(n_storage=2, probe_period=0.25)
    r = run_plan(scheme, _multiapp_plan(), spec)
    rows = [
        (o.request.app, o.request.process_index, o.request.sequence,
         o.started_at, o.finished_at, o.disposition)
        for o in r.outcomes
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (digest, r.makespan, r.served_active, r.demoted, r.interrupted) == \
        PLAN_PINS[scheme]


def test_executed_kernel_chaos_record_unchanged():
    _fresh_ids()
    spec = WorkloadSpec(
        kernel="sum", n_requests=3, request_bytes=8 * MB, n_storage=2,
        execute_kernels=True, seed=11,
    )
    result = run_scheme(Scheme.DOSAS, spec, fault_schedule=scenario(
        "chaos", seed=5, n_events=6, span=1.5, n_targets=2))
    text = json.dumps(asdict(result), sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_CHAOS_DIGEST


def test_chaos_soak_report_unchanged():
    report = run_scenario(scenario_from_dict(BUILTIN["chaos-soak"]), seeds=(0,))
    text = report.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == CHAOS_SOAK_DIGEST
