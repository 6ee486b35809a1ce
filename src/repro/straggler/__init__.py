"""Straggler-aware client dispatch: tail-latency mitigation.

DOSAS (the paper this repo reproduces) decides *where compute runs*;
this package closes the complementary gap of *where reads go* when
servers degrade unevenly.  A transiently slow server — thermal
throttling, a noisy co-tenant, a dying controller — drags the whole
stripe's tail latency unless the client routes around it, the problem
the straggler-aware object scheduler of Tavakoli/Dai/Chen
(arXiv:1805.06156) addresses for object-based parallel file systems.

Pieces (all client-side; servers are untouched):

:class:`~repro.straggler.config.StragglerConfig`
    Policy knobs (EWMA smoothing, hedge delay/quantile/budget).
:class:`~repro.straggler.latency.LatencyBoard`
    Shared per-server EWMA + windowed-quantile latency estimators fed
    from the request lifecycle the clients already observe.
:class:`~repro.straggler.dispatch.StragglerDispatcher`
    Power-of-two-choices candidate ordering with breaker exclusion and
    deadline-aware greedy override, plus the adaptive hedge policy
    (backup read after the recent p95, first reply wins, loser defused
    through the late-reply path).

Degraded servers themselves are modelled in :mod:`repro.faults`
(``SLOWDOWN`` events; ``stragglers`` scenario), and the hedged attempt
loop lives in :meth:`repro.core.asc.ActiveStorageClient` — see
``docs/failure_model.md`` for the full design.  The ``straggler-tail``
library scenario (``repro.scenario``) measures the p99 cut for
TS/AS/DOSAS with the scheduler on vs. off under straggler injection.
"""

from repro.straggler.config import StragglerConfig
from repro.straggler.dispatch import StragglerDispatcher
from repro.straggler.latency import LatencyBoard, LatencyTracker

__all__ = [
    "LatencyBoard",
    "LatencyTracker",
    "StragglerConfig",
    "StragglerDispatcher",
]
