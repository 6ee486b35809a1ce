"""Shared-resource primitives.

``Resource`` models a pool of identical capacity slots (e.g. the cores
of a storage node, paper Sec. IV-A: "we simulated each storage node
with 2 cores").  Processes ``yield resource.request()`` to acquire a
slot and ``yield resource.release(req)`` (or use the request as a
context manager) to give it back.

``PriorityResource`` adds a priority queue so that normal I/O can take
precedence over active I/O when a storage node saturates ("normal I/O
will take the priority", paper Sec. I).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Deque, List, Tuple, TYPE_CHECKING

from repro.sim.events import Event, PRIORITY_URGENT
from repro.sim.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "_seq")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        #: Deterministic per-resource sequence number; keys the
        #: slot-wait trace span (memory addresses would not replay).
        self._seq = next(resource._tokens)
        resource._do_request(self)

    # Context-manager sugar: ``with res.request() as req: yield req``
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc_val: Any, exc_tb: Any) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Withdraw the claim: release if granted, dequeue if pending."""
        self.resource._do_cancel(self)


class Release(Event):
    """Event that returns a slot to the resource (triggers immediately)."""

    __slots__ = ("resource", "request")

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        resource._do_release(self)
        self._ok = True
        self._value = None
        env = resource.env
        env._push(env._now, PRIORITY_URGENT, self)


class Resource:
    """A pool of ``capacity`` identical slots with a FIFO wait queue.

    ``name`` labels the resource in trace exports: a *named* resource
    emits ``slot-wait`` spans (queued → granted/cancelled) when the
    environment's tracer is enabled; anonymous resources stay silent
    so traces show only meaningful contention points.
    """

    __slots__ = ("env", "name", "_capacity", "_suspended", "_tokens",
                 "users", "queue")

    def __init__(self, env: "Environment", capacity: int = 1, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.name = name
        self._capacity = int(capacity)
        self._suspended = False
        self._tokens = itertools.count()
        #: Requests currently holding a slot.
        self.users: List[Request] = []
        #: Requests waiting for a slot (FIFO).  A deque: under heavy
        #: contention (hundreds of waiters per slot) the head pop must
        #: stay O(1) or granting degenerates to O(n²) per drain.
        self.queue: Deque[Request] = deque()

    # -- public API ----------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total number of slots."""
        return self._capacity

    @property
    def suspended(self) -> bool:
        """True while the resource has stopped granting slots."""
        return self._suspended

    def suspend(self) -> None:
        """Stop granting slots (failure hook).

        Requests made while suspended queue up instead of being
        granted; current holders are unaffected (interrupt their
        processes separately to model a hard crash).  Idempotent.
        """
        self._suspended = True

    def resume_service(self) -> None:
        """Resume granting slots and serve the backlog.  Idempotent."""
        self._suspended = False
        self._grant_next()

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self.queue)

    def request(self) -> Request:
        """Claim a slot; the returned event triggers when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Return the slot held by ``request``."""
        return Release(self, request)

    # -- tracing ---------------------------------------------------------------
    def _trace_wait_begin(self, request: Request) -> None:
        tr = self.env.tracer
        if tr.enabled and self.name:
            tr.begin(
                self.env.now,
                "slot-wait",
                f"res:{self.name}",
                span_id=request._seq,
                queued=len(self.queue),
            )

    def _trace_wait_end(self, request: Request, cancelled: bool = False) -> None:
        tr = self.env.tracer
        if tr.enabled and self.name:
            if cancelled:
                tr.end(
                    self.env.now,
                    "slot-wait",
                    f"res:{self.name}",
                    span_id=request._seq,
                    cancelled=True,
                )
            else:
                tr.end(
                    self.env.now, "slot-wait", f"res:{self.name}", span_id=request._seq
                )

    # -- internals -------------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if not self._suspended and len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)
            self._trace_wait_begin(request)

    def _do_release(self, release: Release) -> None:
        try:
            self.users.remove(release.request)
        except ValueError:
            raise SimulationError(
                "released a request that does not hold this resource"
            ) from None
        self._grant_next()

    def _do_cancel(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        elif request in self.queue:
            self.queue.remove(request)
            self._trace_wait_end(request, cancelled=True)
        # else: already fully released — cancel is idempotent.

    def _grant_next(self) -> None:
        while not self._suspended and self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            self._trace_wait_end(nxt)
            nxt.succeed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.count}/{self._capacity} used, "
            f"{len(self.queue)} queued>"
        )


class PriorityRequest(Request):
    """A resource claim with a priority (lower value = more urgent)."""

    __slots__ = ("priority", "time", "_order")

    def __init__(self, resource: "PriorityResource", priority: int = 0) -> None:
        self.priority = priority
        self.time = resource.env.now
        self._order = next(resource._counter)
        super().__init__(resource)

    @property
    def key(self) -> Tuple[int, float, int]:
        """Heap ordering: priority, then arrival time, then FIFO order."""
        return (self.priority, self.time, self._order)


class PriorityResource(Resource):
    """A :class:`Resource` whose wait queue is ordered by priority.

    Invariant (checked by ``tests/sim/test_resources.py``): ``.queue``
    and ``._heap`` always hold exactly the same requests — the heap
    orders grants, the list keeps FIFO-introspection compatibility —
    and neither ever shares a request with ``.users``.
    """

    __slots__ = ("_counter", "_heap")

    def __init__(self, env: "Environment", capacity: int = 1, name: str = "") -> None:
        self._counter = itertools.count()
        super().__init__(env, capacity, name=name)
        self._heap: List[Tuple[Tuple[int, float, int], PriorityRequest]] = []

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        """Claim a slot with ``priority`` (lower is served first)."""
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        if not self._suspended and len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            heapq.heappush(self._heap, (request.key, request))
            self.queue.append(request)  # keep .queue introspectable
            self._trace_wait_begin(request)

    def _do_cancel(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        elif request in self.queue:
            self.queue.remove(request)
            self._heap = [(k, r) for (k, r) in self._heap if r is not request]
            heapq.heapify(self._heap)
            self._trace_wait_end(request, cancelled=True)

    def _grant_next(self) -> None:
        while not self._suspended and self._heap and len(self.users) < self._capacity:
            _key, nxt = heapq.heappop(self._heap)
            self.queue.remove(nxt)
            self.users.append(nxt)
            self._trace_wait_end(nxt)
            nxt.succeed()
