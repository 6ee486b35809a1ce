"""Overload protection for the DOSAS reproduction.

The paper's premise is that storage nodes melt down when too many
active I/Os pile onto them; this package keeps the melt-down bounded
and recoverable with four mechanisms, threaded through the stack by
``repro.core.schemes.run_scheme(..., qos=QoSConfig(...))``:

``AdmissionController`` (``repro.qos.admission``)
    Bounded queue depth + token-bucket intake policing per I/O server.
    Active arrivals over the bound are *shed* (demoted to client-side
    execution, mirroring DOSAS demotion); normal reads are refused with
    a typed ``ServerOverloaded`` only after queued active work has
    been demoted to make room.
``TokenBucket`` (``repro.qos.tokens``)
    AdapTBF-style rate/bandwidth limiting, deterministic because its
    refill is driven purely by simulated time.
``CircuitBreaker`` / ``BreakerBoard`` (``repro.qos.breaker``)
    Per-server breakers on each client: consecutive crashes, timeouts
    or overload rejections open the path; clients route around the
    sick node (active work demotes to local compute) and a half-open
    probe discovers recovery.
``RetryBudget`` (``repro.qos.budget``)
    A global token pool over ``RetryPolicy`` so the whole system's
    retry volume is bounded — the anti-retry-storm brake.  Optionally
    replenishes over simulated time so long soaks recover.
``TenantSpec`` / ``TenantLedger`` (``repro.qos.tenancy``)
    Multi-tenant QoS: per-(server, tenant) token buckets with SLO
    targets and AdapTBF-style decentralized borrowing — an idle
    tenant's unused refill is lent to busy peers at the same server
    with bounded, seeded-deterministic reclaim.  Layers under the
    admission controller and steers the DOSAS shedding order toward
    the over-quota tenant's work.

Deadline propagation rides on ``IORequest.deadline`` (see
``repro.pvfs``); servers cancel expired work with a ``DeadlineExceeded``
failure.  The package is pure policy and imports nothing above it;
the ``chaos-soak`` and ``tenant-fairness`` library scenarios
(``repro.scenario``) exercise it end to end under randomized faults
and tenant contention.

See ``docs/failure_model.md`` for the overload model.
"""

from repro.qos.admission import AdmissionController, AdmissionDecision
from repro.qos.breaker import BreakerBoard, BreakerState, CircuitBreaker
from repro.qos.budget import RetryBudget
from repro.qos.config import QoSConfig
from repro.qos.tenancy import TenantLedger, TenantSpec, interleave
from repro.qos.tokens import TokenBucket

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BreakerBoard",
    "BreakerState",
    "CircuitBreaker",
    "QoSConfig",
    "RetryBudget",
    "TenantLedger",
    "TenantSpec",
    "TokenBucket",
    "interleave",
]
