"""Execute arbitrary workload plans against the simulated system.

``run_scheme`` covers the paper's homogeneous batch experiments;
``run_plan`` generalises to the Figure-1 scenario — several
applications, mixed active and normal I/O, staggered arrivals,
multiple requests per process — which the examples and the extension
benchmarks exercise.  Both lower onto the one driver of
:mod:`repro.core.schemes`: the same machine, the same client
processes, the same result record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.engine import Environment
from repro.pvfs.filehandle import FileHandle
from repro.core.asc import RetryPolicy
from repro.core.schemes import (
    ClientProcess,
    RequestOutcome,
    Scheme,
    SchemeResult,
    WorkloadSpec,
    build_system,
    drive,
    summarise,
)
from repro.workload.generator import PlannedRequest, RequestPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import FaultSchedule
    from repro.obs.tracer import Tracer

@dataclass
class PlanResult(SchemeResult):
    """A :class:`SchemeResult` plus the plan's per-request outcomes.

    ``spec`` is the machine the plan ran on; every derived number
    (``bandwidth``, ``demoted``, ``mean_latency``…) counts the plan's
    own requests.
    """

    #: One per planned request, in completion order.
    outcomes: List[RequestOutcome] = field(default_factory=list)

    def latencies_by_app(self) -> Dict[str, List[float]]:
        """App name → its request latencies."""
        out: Dict[str, List[float]] = {}
        for o in self.outcomes:
            out.setdefault(o.request.app, []).append(o.latency)
        return out


def run_plan(
    scheme: Scheme,
    plan: RequestPlan,
    spec: Optional[WorkloadSpec] = None,
    fault_schedule: Optional["FaultSchedule"] = None,
    retry_policy: Optional[RetryPolicy] = None,
    max_virtual_time: Optional[float] = None,
    tracer: Optional["Tracer"] = None,
) -> PlanResult:
    """Run ``plan`` under ``scheme``.

    ``spec`` supplies the machine knobs (storage nodes, cores, link
    sharing, jitter, overheads, estimator variant, replicas and
    straggler dispatch…); its per-request fields (kernel, count, size)
    are ignored in favour of the plan's own.  A spec with ``tenants``
    is refused: a planned request carries no tenant, so the mix could
    not be policed.  Each ``(app, process_index)`` is one client
    process, in sorted order on its own compute node, issuing its
    requests in arrival order; files are created per request,
    round-robin across storage nodes.

    ``fault_schedule`` / ``retry_policy`` / ``max_virtual_time`` behave
    as in :func:`~repro.core.schemes.run_scheme`: faults are injected
    per the schedule, clients retry per the policy, and the run is
    bounded in virtual time by a watchdog.  ``tracer`` records the
    request-lifecycle timeline (see ``repro.obs``).
    """
    if not len(plan):
        raise ValueError("empty plan")
    spec = spec or WorkloadSpec()
    if spec.tenants:
        raise ValueError(
            "run_plan takes no tenant mix: a planned request has no tenant"
        )
    # Requests are keyed by their enumeration index in the plan — never
    # by id(): a recycled object address (plans rebuilt between calls,
    # GC reuse) would silently alias two requests to one file handle.
    indexed = list(enumerate(plan))
    by_process: Dict[Tuple[str, int], List[Tuple[int, PlannedRequest]]] = {}
    for idx, req in indexed:
        by_process.setdefault((req.app, req.process_index), []).append((idx, req))
    for entries in by_process.values():
        entries.sort(key=lambda e: (e[1].arrival_time, e[1].sequence))

    env = Environment()
    if tracer is not None:
        env.tracer = tracer
    system = build_system(
        env, scheme, spec, fault_schedule, n_compute=len(by_process)
    )
    seed, mds = system.seed, system.mds
    handles: List[FileHandle] = []
    for idx, req in indexed:
        meta = (
            {"width": spec.image_width}
            if req.operation in ("gaussian2d", "sobel")
            else None
        )
        f = mds.create(
            f"/plan/{req.app}/p{req.process_index}/r{req.sequence}#{idx}",
            size=req.size,
            n_servers=1,
            first_server=idx % spec.n_storage,
            seed=seed + idx,
            meta=meta,
            n_replicas=spec.n_replicas,
        )
        handles.append(mds.open(f.name))

    clients = [
        ClientProcess(k, [(req, handles[idx]) for idx, req in entries])
        for k, (_key, entries) in enumerate(sorted(by_process.items()))
    ]
    outcomes = drive(system, clients, retry_policy, max_virtual_time)
    return PlanResult(**summarise(system, outcomes), outcomes=outcomes)
