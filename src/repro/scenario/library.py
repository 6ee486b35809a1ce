"""The built-in adversarial contention library.

Each entry is one plain scenario mapping (exactly what a YAML/JSON
file would hold) validated through the strict schema on access — the
library ships as pure data so it needs no YAML support at runtime and
``repro scenario dump NAME`` can render any entry back out as a
starting point for custom files.

The noisy-neighbor family puts a saturator on one shared resource and
asserts the isolation claim: with DOSAS's protection stack armed, the
gold tenant's SLO attainment must hold at or above the unprotected /
unpoliced baseline's, per seed (the ``slo_floor`` invariant).  The
arrival-shape family stresses the engine with bursty NWP phase traffic
and a diurnal curve; ``kitchen-sink-chaos`` turns everything on at
once.  The robustness family carries the repository's committed
claims: ``chaos-soak`` (overload plus random crashes), ``tenant-fairness``
(borrowing vs the static partition) and ``straggler-tail`` (the
straggler scheduler vs no hedging).

Entries tagged ``smoke`` form the fast subset (``repro scenario
smoke``); CI runs the whole library.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.scenario.schema import Scenario, scenario_from_dict

__all__ = [
    "BUILTIN",
    "get_scenario",
    "list_scenarios",
    "smoke_scenarios",
]


def _noisy_tenants(
    gold_requests: int, noisy_requests: int, slo: float
) -> List[Dict[str, Any]]:
    """The canonical gold-vs-saturator mix.

    Gold's guarantee (70 MB/s) undersubscribes the NIC; the saturator's
    tiny guarantee (20 MB/s) forces its bulk demand through borrowed
    headroom, which policing can reclaim the moment gold needs it.
    """
    return [
        {
            "name": "gold",
            "requests": gold_requests,
            "weight": 2.0,
            "rate_mb": 70.0,
            "burst_mb": 32.0,
            "slo_latency": slo,
        },
        {
            "name": "saturator",
            "requests": noisy_requests,
            "rate_mb": 20.0,
            "burst_mb": 32.0,
        },
    ]


#: Deep queues + effectively-unlimited retries: contention scenarios
#: measure *policing*, so nothing may be shed or give up early.
_CONTENTION_QOS: Dict[str, Any] = {
    "max_queue_depth": 160,
    "breaker_threshold": 10000,
    "retry_budget": None,
}

#: The patient client the contention scenarios pair with the deep
#: queues — per-tenant denials recover through retries, never fail.
_PATIENT_RETRY: Dict[str, Any] = {
    "timeout": 60.0,
    "max_retries": 24,
    "backoff_base": 0.25,
    "backoff_factor": 2.0,
    "backoff_cap": 2.0,
}


#: The chaos fault library's suggested client policy, de-synchronized
#: with full jitter.
_CHAOS_RETRY: Dict[str, Any] = {
    "timeout": 4.0,
    "max_retries": 8,
    "backoff_base": 0.25,
    "backoff_factor": 2.0,
    "backoff_cap": 2.0,
    "full_jitter": True,
}


BUILTIN: Dict[str, Dict[str, Any]] = {
    "steady-state": {
        "name": "steady-state",
        "description": (
            "Flat fault-free workload under the stock QoS stack — the "
            "sanity anchor every other scenario is measured against."
        ),
        "tags": ["sanity", "smoke"],
        "workload": {"n_requests": 8, "request_mb": 16.0},
        "run": {"seeds": [0, 1], "baseline": "none"},
    },
    "noisy-neighbor-nic": {
        "name": "noisy-neighbor-nic",
        "description": (
            "A saturator tenant floods the shared server NICs with "
            "16 bulk reads while gold runs 3 latency-sensitive "
            "requests.  Protected DOSAS polices the saturator to its "
            "20 MB/s guarantee; the unpoliced baseline lets both "
            "tenants fight for the wire."
        ),
        "tags": ["contention", "noisy-neighbor", "smoke"],
        "cluster": {"n_storage": 2, "storage_cores": 2},
        "workload": {
            "request_mb": 16.0,
            "tenants": _noisy_tenants(3, 16, slo=1.5),
        },
        "qos": _CONTENTION_QOS,
        "retry": _PATIENT_RETRY,
        "run": {"seeds": [0, 1], "baseline": "unpoliced"},
        "invariants": {"slo_floor": "gold", "min_attainment": 1.0},
    },
    "noisy-neighbor-cpu": {
        "name": "noisy-neighbor-cpu",
        "description": (
            "The same gold-vs-saturator mix while CPU derates "
            "(SLOWDOWN faults) eat both storage servers' cores — the "
            "contention a co-located compute job causes.  Policing "
            "must keep gold whole even on degraded silicon."
        ),
        "tags": ["contention", "noisy-neighbor", "faults"],
        "cluster": {"n_storage": 2, "storage_cores": 2},
        "workload": {
            "request_mb": 16.0,
            "tenants": _noisy_tenants(3, 12, slo=1.5),
        },
        "faults": {
            "events": [
                {"at": 0.5, "kind": "slowdown", "target": 0,
                 "factor": 0.5, "duration": 8.0},
                {"at": 2.0, "kind": "slowdown", "target": 1,
                 "factor": 0.6, "duration": 8.0},
            ],
        },
        "qos": _CONTENTION_QOS,
        "retry": _PATIENT_RETRY,
        "run": {"seeds": [0, 1], "baseline": "unpoliced"},
        "invariants": {"slo_floor": "gold", "min_attainment": 1.0},
    },
    "noisy-neighbor-queue": {
        "name": "noisy-neighbor-queue",
        "description": (
            "Queue-depth saturation: a swarm of small saturator "
            "requests against a shallow admission bound (depth 8).  "
            "Protected runs shed the saturator's overflow and retry "
            "it patiently; the unprotected baseline piles everything "
            "onto the same queues."
        ),
        "tags": ["contention", "noisy-neighbor"],
        "cluster": {"n_storage": 2, "storage_cores": 2},
        "workload": {
            "request_mb": 8.0,
            "tenants": _noisy_tenants(3, 24, slo=0.8),
        },
        "qos": {
            "max_queue_depth": 8,
            "shed_active_first": True,
            "breaker_threshold": 10000,
            "retry_budget": None,
        },
        "retry": _PATIENT_RETRY,
        "run": {"seeds": [0, 1], "baseline": "unprotected"},
        "invariants": {"slo_floor": "gold", "min_attainment": 1.0},
    },
    "nwp-phase-burst": {
        "name": "nwp-phase-burst",
        "description": (
            "NWP-workflow phase traffic: the whole fleet fires "
            "together in 4 synchronized bursts 2 s apart (jitter "
            "50 ms), the arrival shape that makes shared storage "
            "queues breathe in spikes instead of a steady stream."
        ),
        "tags": ["arrival", "contention", "smoke"],
        "cluster": {"n_storage": 2, "storage_cores": 2},
        "workload": {
            "n_requests": 16,
            "request_mb": 8.0,
            "arrival": {
                "process": "bursty",
                "phases": 4,
                "phase_gap": 2.0,
                "phase_jitter": 0.05,
            },
        },
        "qos": {"max_queue_depth": 12, "retry_budget": None,
                "breaker_threshold": 10000},
        "retry": _PATIENT_RETRY,
        "run": {"seeds": [0, 1], "baseline": "unprotected"},
    },
    "diurnal-arrivals": {
        "name": "diurnal-arrivals",
        "description": (
            "One compressed day: arrival intensity follows a "
            "sinusoidal curve peaking at 4x the trough over a 16 s "
            "period — slow ramps the admission stack must track "
            "without shedding the peak."
        ),
        "tags": ["arrival"],
        "cluster": {"n_storage": 2, "storage_cores": 2},
        "workload": {
            "n_requests": 16,
            "request_mb": 8.0,
            "arrival": {
                "process": "diurnal",
                "period": 16.0,
                "peak_ratio": 4.0,
            },
        },
        "qos": {"max_queue_depth": 12, "retry_budget": None,
                "breaker_threshold": 10000},
        "retry": _PATIENT_RETRY,
        "run": {"seeds": [0, 1], "baseline": "unprotected"},
    },
    "straggler-degrade": {
        "name": "straggler-degrade",
        "description": (
            "The stragglers fault library derates one server per seed "
            "while the straggler-aware dispatcher hedges reads across "
            "2 replicas — hedge conservation asserted on every run."
        ),
        "tags": ["straggler", "faults"],
        "cluster": {"n_storage": 2, "storage_cores": 2, "n_replicas": 2},
        "workload": {"n_requests": 10, "request_mb": 16.0},
        "faults": {"library": "stragglers"},
        "straggler": {"enabled": True},
        "run": {"seeds": [0, 1], "baseline": "unprotected"},
    },
    "kitchen-sink-chaos": {
        "name": "kitchen-sink-chaos",
        "description": (
            "Everything at once: seeded chaos faults with a "
            "guaranteed early crash, a gold-vs-noisy tenant mix with "
            "token borrowing, straggler hedging over 2 replicas, and "
            "the full protection stack — the soak harness's world "
            "expressed as one scenario file."
        ),
        "tags": ["chaos", "smoke"],
        "cluster": {"n_storage": 2, "storage_cores": 2, "n_replicas": 2},
        "workload": {
            "request_mb": 32.0,
            "tenants": [
                {"name": "gold", "requests": 3, "weight": 2.0,
                 "rate_mb": 80.0, "burst_mb": 64.0, "slo_latency": 30.0},
                {"name": "noisy", "requests": 7, "rate_mb": 30.0,
                 "burst_mb": 64.0},
            ],
        },
        "faults": {
            "library": "chaos",
            "overrides": {"n_events": 4, "span": 1.5},
            "guarantee_crash": True,
        },
        "qos": {
            "max_queue_depth": 20,
            "breaker_threshold": 3,
            "breaker_cooldown": 0.3,
            "retry_budget": 320,
            "retry_replenish_rate": 4.0,
            "deadline": 60.0,
        },
        "straggler": {"enabled": True},
        "run": {"seeds": [0, 1], "baseline": "unprotected"},
        "invariants": {"slo_floor": "gold"},
    },
    "chaos-soak": {
        "name": "chaos-soak",
        "description": (
            "Overload plus random faults: 10 concurrent 32 MB active "
            "reads per node against 2 cores, under a seeded chaos "
            "schedule that always holds a crash.  Protected DOSAS and "
            "AS (admission, breakers, retry budget, hedged reads over "
            "2 replicas) against the same stack disarmed."
        ),
        "tags": ["chaos", "soak"],
        "cluster": {"n_storage": 2, "storage_cores": 2, "n_replicas": 2},
        "workload": {"n_requests": 10, "request_mb": 32.0},
        "faults": {
            "library": "chaos",
            "overrides": {"n_events": 4, "span": 1.5},
            "horizon": 120.0,
            "guarantee_crash": True,
        },
        # The queue bound sits just above the per-node concurrency;
        # breakers react within the sub-second crash durations; the
        # budget allows a handful of recoveries per request.
        "qos": {
            "max_queue_depth": 20,
            "breaker_threshold": 3,
            "breaker_cooldown": 0.3,
            "retry_budget": 160,
            "deadline": 60.0,
        },
        "retry": _CHAOS_RETRY,
        "straggler": {"enabled": True},
        "run": {
            "seeds": [0, 1, 2],
            "schemes": ["dosas", "as"],
            "baseline": "unprotected",
        },
    },
    "tenant-fairness": {
        "name": "tenant-fairness",
        "description": (
            "Gold (70 MB/s guarantee, 2 s SLO, 3 requests) against a "
            "noisy tenant (20 MB/s, 16 requests): the guarantees "
            "undersubscribe the NIC, the demand oversubscribes it.  "
            "Token borrowing against the static partition: gold keeps "
            "its SLO and borrowing loses no goodput."
        ),
        "tags": ["contention", "fairness"],
        "cluster": {"n_storage": 2, "storage_cores": 2},
        "workload": {
            "request_mb": 16.0,
            "tenants": [
                {"name": "gold", "requests": 3, "weight": 2.0,
                 "rate_mb": 70.0, "slo_latency": 2.0},
                {"name": "noisy", "requests": 16, "rate_mb": 20.0},
            ],
        },
        # Deep enough that queue-depth shedding never fires: only the
        # tenant ledger polices.
        "qos": {
            "max_queue_depth": 152,
            "breaker_threshold": 10000,
            "retry_budget": None,
        },
        "retry": _PATIENT_RETRY,
        "run": {
            "seeds": [1, 2],
            "baseline": "static",
            "max_virtual_time": 600.0,
        },
        "invariants": {"slo_floor": "gold", "min_attainment": 1.0},
    },
    "straggler-tail": {
        "name": "straggler-tail",
        "description": (
            "Persistent and transient stragglers on 4 servers under "
            "32 spaced 32 MB reads per node, 2 replicas: every scheme "
            "with the straggler scheduler (replica routing, hedged "
            "reads) against the same run unhedged."
        ),
        "tags": ["straggler", "faults"],
        "cluster": {"n_storage": 4, "storage_cores": 2, "n_replicas": 2},
        "workload": {
            "n_requests": 32,
            "request_mb": 32.0,
            "arrival": {"process": "spaced", "spacing": 0.15},
        },
        "faults": {"library": "stragglers", "overrides": {"n_transient": 2}},
        "qos": {"enabled": False},
        # A generous per-attempt timeout: the unhedged run must finish
        # on a badly derated server (its pain shows in the tail), not
        # die in RetryExhausted.
        "retry": {"timeout": 20.0, "max_retries": 6},
        "straggler": {"enabled": True},
        "run": {
            "seeds": [1, 2],
            "schemes": ["ts", "as", "dosas"],
            "baseline": "unhedged",
            "max_virtual_time": 600.0,
        },
    },
}


def get_scenario(name: str) -> Scenario:
    """One built-in scenario, fully validated."""
    try:
        data = BUILTIN[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(BUILTIN)}"
        ) from None
    return scenario_from_dict(data, source=name)


def list_scenarios() -> List[str]:
    """Every built-in scenario name, sorted."""
    return sorted(BUILTIN)


def smoke_scenarios() -> List[str]:
    """The fast CI subset (entries tagged ``smoke``), sorted."""
    return sorted(
        name for name, data in BUILTIN.items()
        if "smoke" in data.get("tags", [])
    )
