"""Request-lifecycle tracing.

The simulator's layers (engine, resources, PVFS servers and clients,
the Active I/O Runtime, the Contention Estimator, the fault injector)
emit typed *span events* through a :class:`Tracer` attached to the
:class:`~repro.sim.engine.Environment`.  Every layer fetches the
tracer at call time via ``env.tracer``, so instrumentation needs no
constructor threading and costs one attribute load plus one truthiness
check when tracing is off (the default is the :data:`NULL_TRACER`
singleton whose ``enabled`` flag is ``False``).

Span events come in three phases:

``"i"``
    An instant — a point-in-time marker such as ``enqueue``,
    ``policy-decision``, ``dispatch``, ``reply``, ``retry``,
    ``probe`` or ``fault``.
``"b"`` / ``"e"``
    Begin/end of an *async* span — a duration keyed by an explicit
    id rather than by call nesting.  Request lifetimes (keyed by
    request id) and resource slot waits (keyed by a per-resource
    sequence number) use these.

Determinism matters: trace exports must be byte-identical across runs
with the same seed.  Events therefore never record wall-clock time or
memory addresses — ids are request ids or per-resource counters, and
attributes are stored as sorted tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SPAN_KINDS",
    "PHASES",
]

#: Known span kinds.  The tracer accepts any string (forward
#: compatibility for downstream experiments) but the core layers only
#: emit these; the validator warns on unknown kinds.
SPAN_KINDS = frozenset(
    {
        # Request lifecycle (pvfs.server / pvfs.client / core.asc)
        "request",          # async span: accepted by a server -> terminal reply
        "enqueue",          # instant: entered a server's outstanding set
        "issue",            # instant: client handed the request to a server
        "dispatch",         # instant: service begins (normal / kernel / demote)
        "reply",            # instant: server delivered the reply event
        "reject",           # instant: server was down, request refused
        "retry",            # instant: ASC abandoned an attempt and re-issues
        "client-finish",    # async span: client finishing a demoted kernel
        # Active I/O runtime (core.runtime)
        "runtime-enqueue",  # instant: admitted to the runtime queue
        "policy-decision",  # instant: per-request active/normal verdict
        "demote",           # instant: kernel demoted to normal I/O
        "kernel",           # async span: kernel executing on storage cores
        "kernel-start",     # instant: kernel began executing
        "kernel-checkpoint",  # instant: interrupted kernel checkpointed
        "kernel-migrate",   # instant: checkpoint shipped back to the client
        "deliver",          # async span: reply payload streaming to client
        # Estimation (core.estimator / cluster.probe)
        "probe",            # instant: SystemProbe sampled (n, k, D, D_A, cpu)
        "policy",           # instant: estimator produced a policy
        # Infrastructure
        "slot-wait",        # async span: queued on a Resource until granted
        "fault",            # instant: fault injector applied an event
        "server-crash",     # instant
        "server-restart",   # instant
    }
)

PHASES = frozenset({"b", "e", "i"})


@dataclass(frozen=True)
class SpanEvent:
    """One trace record.

    ``attrs`` is a tuple of ``(key, value)`` pairs sorted by key so
    that equal events compare equal and serialise identically.
    """

    time: float
    kind: str
    phase: str  # "b" | "e" | "i"
    track: str  # logical timeline, e.g. "server:sn0"
    rid: Optional[int] = None
    span_id: Optional[int] = None
    attrs: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (used by the raw export)."""
        d: Dict[str, Any] = {
            "time": self.time,
            "kind": self.kind,
            "phase": self.phase,
            "track": self.track,
        }
        if self.rid is not None:
            d["rid"] = self.rid
        if self.span_id is not None:
            d["span_id"] = self.span_id
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SpanEvent":
        """Inverse of :meth:`to_dict` (for trace-file tooling)."""
        return cls(
            time=d["time"],
            kind=d["kind"],
            phase=d["phase"],
            track=d["track"],
            rid=d.get("rid"),
            span_id=d.get("span_id"),
            attrs=tuple(sorted(d.get("attrs", {}).items())),
        )


class Tracer:
    """Records span events in emission order.

    One tracer per simulation run.
    """

    __slots__ = ("events",)

    #: Class-level so ``tracer.enabled`` costs no per-instance storage
    #: and the null tracer can override it.
    enabled: ClassVar[bool] = True

    def __init__(self) -> None:
        self.events: List[SpanEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def _emit(
        self,
        time: float,
        kind: str,
        phase: str,
        track: str,
        rid: Optional[int],
        span_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self.events.append(
            SpanEvent(
                time=time,
                kind=kind,
                phase=phase,
                track=track,
                rid=rid,
                span_id=span_id,
                attrs=tuple(sorted(attrs.items())),
            )
        )

    def instant(
        self,
        time: float,
        kind: str,
        track: str,
        rid: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        """Record a point-in-time marker."""
        self._emit(time, kind, "i", track, rid, None, attrs)

    def begin(
        self,
        time: float,
        kind: str,
        track: str,
        rid: Optional[int] = None,
        span_id: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        """Open an async span.

        The span is correlated by ``(kind, span_id)`` where ``span_id``
        defaults to ``rid``.  Callers must pass a deterministic id —
        never ``id(obj)``.
        """
        if span_id is None:
            span_id = rid
        self._emit(time, kind, "b", track, rid, span_id, attrs)

    def end(
        self,
        time: float,
        kind: str,
        track: str,
        rid: Optional[int] = None,
        span_id: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        """Close the async span opened with the same ``(kind, span_id)``."""
        if span_id is None:
            span_id = rid
        self._emit(time, kind, "e", track, rid, span_id, attrs)

    # -- Introspection helpers (used by tests and analysis) ----------

    def by_kind(self, kind: str) -> List[SpanEvent]:
        """All events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def for_request(self, rid: int) -> List[SpanEvent]:
        """All events tagged with a request id, in emission order."""
        return [e for e in self.events if e.rid == rid]

    def open_spans(self) -> List[Tuple[str, Optional[int]]]:
        """``(kind, span_id)`` keys with unbalanced begin/end counts."""
        balance: Dict[Tuple[str, Optional[int]], int] = {}
        for e in self.events:
            if e.phase == "b":
                balance[(e.kind, e.span_id)] = balance.get((e.kind, e.span_id), 0) + 1
            elif e.phase == "e":
                balance[(e.kind, e.span_id)] = balance.get((e.kind, e.span_id), 0) - 1
        return sorted(k for k, v in balance.items() if v != 0)


class NullTracer(Tracer):
    """Zero-cost default: every method is a no-op.

    Hot paths guard emission with ``if tracer.enabled:`` so the
    disabled cost is a single attribute test; even unguarded calls
    land in empty methods.
    """

    __slots__ = ()

    enabled: ClassVar[bool] = False

    def __init__(self) -> None:
        super().__init__()

    def _emit(self, *args: Any, **kwargs: Any) -> None:  # pragma: no cover
        pass

    def instant(self, *args: Any, **kwargs: Any) -> None:
        pass

    def begin(self, *args: Any, **kwargs: Any) -> None:
        pass

    def end(self, *args: Any, **kwargs: Any) -> None:
        pass


#: Shared no-op tracer; ``Environment`` points at this by default.
NULL_TRACER = NullTracer()


def merge_events(tracers: Iterable[Tracer]) -> List[SpanEvent]:
    """Concatenate several tracers' events, stably ordered by time.

    Emission order breaks ties, keeping merges deterministic.
    """
    out: List[SpanEvent] = []
    for t in tracers:
        out.extend(t.events)
    out.sort(key=lambda e: e.time)
    return out
