"""The Active Storage Client (ASC) — paper Sec. III-B.

"The ASC is a process that runs on the system's compute nodes ...  it
has two functionalities: serving as an interface for applications, and
assisting the storage nodes to complete active I/O without the
intervention of application developers when the I/O is treated as
normal I/O by storage nodes."

"When the ASC receives an active I/O, it will register the operation,
I/O size ... and its fh at local, and then transfer the request to the
R ...  When the ASC receives the result of the I/O, it will first
check the completed argument: if it equals 0, it will manage the rest
of the processing until it has completed; if it equals 1, it will
return the result to the requesting application process directly."
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.qos.breaker import BreakerBoard, CircuitBreaker
from repro.qos.budget import RetryBudget
from repro.qos.tokens import TokenBucket
from repro.sim.engine import Environment
from repro.sim.events import AllOf, AnyOf, Event
from repro.cluster.node import ComputeNode
from repro.kernels.base import Kernel, KernelCheckpoint
from repro.kernels.registry import KernelRegistry, default_registry
from repro.pvfs.client import PVFSClient
from repro.pvfs.filehandle import FileHandle
from repro.pvfs.metadata import PVFSError
from repro.pvfs.requests import (
    IOKind,
    IOReply,
    IORequest,
    read_extent_stream,
    slice_extents,
)
from repro.pvfs.server import DeadlineExceeded
from repro.straggler.dispatch import StragglerDispatcher


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side fault tolerance: timeout + bounded exponential backoff.

    Attributes
    ----------
    timeout:
        Seconds the ASC waits for each per-server reply before
        declaring the attempt lost.
    max_retries:
        Re-issues allowed per piece (total attempts = max_retries + 1).
    backoff_base:
        Delay before the first re-issue.
    backoff_factor:
        Multiplier per further re-issue.
    backoff_cap:
        Upper bound on any single backoff delay.
    full_jitter:
        When True, each backoff delay is drawn uniformly from
        ``[0, nominal]`` (AWS full-jitter), so synchronized clients
        don't re-issue in lockstep.  The draw uses the seeded RNG the
        caller passes to :meth:`backoff`, so it stays deterministic
        given the spec seed.
    """

    timeout: float = 5.0
    max_retries: int = 5
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_cap: float = 4.0
    full_jitter: bool = False

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")

    def backoff(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay before re-issue number ``attempt`` (0-based)."""
        delay = min(self.backoff_cap, self.backoff_base * self.backoff_factor ** attempt)
        if self.full_jitter and rng is not None:
            return rng.uniform(0.0, delay)
        return delay


def remainder_reads(reply: IOReply, per_stripe: bool) -> List[Tuple[int, int]]:
    """The normal reads that fetch a demoted reply's unprocessed data.

    The remainder is the tail of the request's extent stream.  Without
    a retry policy each contiguous run of it is one normal read, the
    single g(d_i) transfer paper Eq. 3 and 6 charge, read exactly the
    way TS reads a request.  With one (``per_stripe=True``) every run
    is split at stripe boundaries, one recovered attempt per stripe:
    the attempt is the unit of recovery — a normal read carries no
    checkpoint, so a lost whole-remainder attempt would re-read all of
    it — and the unit a tenant's token bucket is debited by.  Merging
    the runs under a retry policy as well measured, on the stackbench
    workloads at seed 0, tenant-contention gold SLO attainment
    1.0 → 0.667 with 24 of 48 runs failing (goodput 95.6 → 52.6 MB/s),
    and chaos-straggler goodput 88.6 → 73.8 MB/s with p90 latency
    5.02 → 6.42 s.
    """
    runs = slice_extents(reply.extents, reply.bytes_done, int(reply.remaining))
    if not per_stripe:
        return runs
    assert reply.fh is not None
    stripe = reply.fh.layout.stripe_size
    pieces: List[Tuple[int, int]] = []
    for position, nbytes in runs:
        end = position + nbytes
        while position < end:
            stop = min(end, (position // stripe + 1) * stripe)
            pieces.append((position, stop - position))
            position = stop
    return pieces


class RetryExhausted(PVFSError):
    """A per-server piece failed/timed out beyond ``max_retries``.

    ``last_cause`` carries the final underlying failure — the last
    failed reply's exception, or None when no attempt got an answer.
    ``reasons`` counts the piece's abandoned attempts by reason class
    (``breaker-open``, ``timeout``, ``failed: <exception type>``) in
    the order each class first occurred; the message ends with it.
    """

    def __init__(
        self,
        message: str,
        last_cause: Optional[BaseException] = None,
        reasons: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(message)
        self.last_cause = last_cause
        self.reasons: Dict[str, int] = dict(reasons or {})


class _WideRead:
    """State the pieces of one multi-piece recovered read share."""

    __slots__ = ("abandoned",)

    def __init__(self) -> None:
        #: Set once one piece gave up and the read failed: nobody
        #: waits for the other pieces, so they stop re-issuing.
        self.abandoned = False


@dataclass
class _Registration:
    """The ASC's local record of one active I/O (paper Sec. III-B)."""

    operation: str
    size: int
    fh: FileHandle
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass
class ActiveReadOutcome:
    """What an application gets back from one active read.

    Attributes
    ----------
    result:
        The combined kernel result (None in timing-only runs).
    served_active:
        Per-server flags: True where the storage side completed the
        kernel.
    demotions:
        How many per-server requests the client had to finish.
    client_bytes_read:
        Bytes the ASC pulled over normal reads to finish demoted work.
    client_compute_bytes:
        Bytes the client-side kernels processed.
    finished_at:
        Simulation time everything (including client-side work) done.
    output_files:
        Names of output files filter kernels wrote at storage nodes
        (Son et al. write-back convention); empty for reductions and
        for demoted pieces (whose output is returned directly).
    """

    result: Any
    served_active: List[bool]
    demotions: int
    client_bytes_read: int
    client_compute_bytes: int
    finished_at: float
    output_files: List[str] = field(default_factory=list)


class ActiveStorageClient:
    """One compute node's ASC."""

    def __init__(
        self,
        env: Environment,
        node: ComputeNode,
        pvfs: PVFSClient,
        registry: Optional[KernelRegistry] = None,
        execute_kernels: bool = False,
        breakers: Optional[BreakerBoard] = None,
        retry_budget: Optional[RetryBudget] = None,
        pace: Optional[TokenBucket] = None,
        deadline: Optional[float] = None,
        backoff_seed: Optional[int] = None,
        dispatcher: Optional[StragglerDispatcher] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.pvfs = pvfs
        #: Client-side PK deployment (shared instances — kernels are
        #: stateless; see ActiveIORuntime.registry).
        self.registry = registry or default_registry
        self.execute_kernels = execute_kernels
        #: Overload protection (see repro.qos): per-server circuit
        #: breakers, the run-global retry-token pool, submit pacing,
        #: the relative deadline stamped on every request, and the
        #: seed of the stream full-jitter backoff draws from.  Most
        #: clients never draw, so the stream is seeded at the first
        #: draw (see :meth:`_backoff`).
        self.breakers = breakers
        self.retry_budget = retry_budget
        self.pace = pace
        self.deadline = deadline
        self.backoff_seed = backoff_seed
        self._backoff_rng: Optional[random.Random] = None
        #: Straggler-aware routing (see repro.straggler): when set,
        #: retried pieces are dispatched over replica candidate sets
        #: with hedged backups; ``None`` keeps the classic
        #: layout-primary path bit-for-bit unchanged.
        self.dispatcher = dispatcher
        #: rid-independent registration log (operation, size, fh).
        self.registrations: List[_Registration] = []
        #: Fault-recovery counters for the analysis layer.
        self.stats: Dict[str, int] = {
            "retries": 0,
            "retry_timeouts": 0,
            "requests_recovered": 0,
            "retries_denied_budget": 0,
            "breaker_fast_fails": 0,
            "breaker_demotions": 0,
            "deadline_failures": 0,
            "hedges_issued": 0,
            "hedges_won": 0,
            "hedges_wasted": 0,
        }
        #: One entry per abandoned attempt: time, rid, parent, attempt,
        #: reason — the analysis layer derives recovery latency from it.
        self.retry_log: List[Dict[str, Any]] = []

    # -- application-facing API ---------------------------------------------------
    def read_ex(
        self,
        fh: FileHandle,
        operation: str,
        offset: int = 0,
        size: Optional[int] = None,
        meta: Optional[Dict[str, Any]] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator[Event, Any, ActiveReadOutcome]:
        """Active read: the engine behind ``MPI_File_read_ex``.

        Simulation process returning an :class:`ActiveReadOutcome`.
        Every per-server reply with ``completed == 0`` is finished
        locally: normal read of the remaining extent, then the
        client-side kernel (resuming any checkpoint).

        With a :class:`RetryPolicy`, each per-server piece is driven
        independently through timeout/cancel/re-issue recovery, so a
        crashed or hung server delays only its own stripes.
        """
        size = fh.size - offset if size is None else size
        self.registrations.append(
            _Registration(operation=operation, size=size, fh=fh, meta=dict(meta or {}))
        )
        replies = yield from self._issue(
            fh, offset, size, IOKind.ACTIVE, operation, meta, retry
        )

        kernel = self.registry.get(operation)
        partials: List[Any] = []
        served_flags: List[bool] = []
        output_files: List[str] = []
        demotions = 0
        client_bytes = 0
        client_compute = 0

        for reply in replies:
            if reply.completed:
                served_flags.append(True)
                partials.append(reply.result)
                if reply.output_file:
                    output_files.append(reply.output_file)
                continue
            served_flags.append(False)
            demotions += 1
            tr = self.env.tracer
            if tr.enabled:
                tr.begin(
                    self.env.now,
                    "client-finish",
                    f"client:{self.node.name}",
                    rid=reply.rid,
                    remaining=int(reply.remaining),
                )
            partial, nread, ncomp = yield from self._finish_demoted(
                kernel, reply, operation, meta, retry
            )
            if tr.enabled:
                tr.end(
                    self.env.now,
                    "client-finish",
                    f"client:{self.node.name}",
                    rid=reply.rid,
                )
            partials.append(partial)
            client_bytes += nread
            client_compute += ncomp

        result = self._combine(kernel, partials)
        return ActiveReadOutcome(
            result=result,
            served_active=served_flags,
            demotions=demotions,
            client_bytes_read=client_bytes,
            client_compute_bytes=client_compute,
            finished_at=self.env.now,
            output_files=output_files,
        )

    def read(
        self,
        fh: FileHandle,
        offset: int = 0,
        size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator[Event, Any, List[IOReply]]:
        """Plain read passthrough: returns the generator gathering its replies.

        With a :class:`RetryPolicy`, per-server pieces recover from
        crashes and hangs the same way active reads do.  A plain
        function, like :meth:`_issue`, so a caller's ``yield from``
        runs the gather with no forwarding frame in between.
        """
        size = fh.size - offset if size is None else size
        return self._issue(fh, offset, size, IOKind.NORMAL, None, None, retry)

    def _issue(
        self,
        fh: FileHandle,
        offset: int,
        size: int,
        kind: IOKind,
        operation: Optional[str],
        meta: Optional[Dict[str, Any]],
        retry: Optional[RetryPolicy],
    ) -> Generator[Event, Any, List[IOReply]]:
        """Issue one logical read; returns the generator gathering its replies.

        The per-server requests are built once.  The generator
        scatter-gathers them or, under a retry policy, drives each
        through recovery on its own.  A plain function, not a
        generator, so ``yield from`` runs the gather with no extra
        frame in between.
        """
        requests = self.pvfs.build_requests(fh, offset, size, kind, operation, meta)
        if retry is None:
            return self.pvfs.scatter_gather(requests)
        return self._gather_with_retry(requests, retry)

    # -- fault recovery (see repro.faults) ----------------------------------
    def _gather_with_retry(
        self, requests: List[IORequest], retry: RetryPolicy
    ) -> Generator[Event, Any, List[IOReply]]:
        """Drive every per-server piece through recovery (simulation generator).

        A single piece recovers in the calling process.  Wider reads
        spawn one process per piece: their pieces recover
        concurrently, and the first to give up must reach the caller
        while the others still run.  Those then abandon the read at
        their next re-issue; attempts already in flight drain.
        """
        if self.deadline is not None:
            now = self.env.now
            for request in requests:
                if request.deadline is None:
                    request.deadline = now + self.deadline
        if len(requests) == 1:
            reply = yield from self._recover_piece(requests[0], retry)
            return [reply]
        read = _WideRead()
        procs = [
            self.env.process(self._recover_piece(r, retry, read))
            for r in requests
        ]
        try:
            yield AllOf(self.env, procs)
        except PVFSError:
            # One piece gave up: the others stop before their next
            # re-issue — defuse them so a second late RetryExhausted
            # cannot crash the engine.
            read.abandoned = True
            for proc in procs:
                proc.defuse()
            raise
        return [p.value for p in procs]

    def _recover_piece(
        self,
        request: IORequest,
        retry: RetryPolicy,
        read: Optional[_WideRead] = None,
    ) -> Generator[Event, Any, IOReply]:
        """Complete one per-server request under faults (simulation generator).

        Per attempt: consult the circuit breaker, pace the submission,
        submit, then wait for the reply or the timeout.  On timeout or
        a failed reply, abandon the attempt (cancel server-side so no
        late answer races the retry), back off exponentially, and
        re-issue carrying the newest checkpoint — bytes a previous
        attempt completed are never re-read.  Re-issues additionally
        need a token from the global retry budget, and an expired
        per-request deadline ends recovery immediately, as does the
        failure of the wide ``read`` the piece belongs to.
        """
        checkpoint: Optional[KernelCheckpoint] = request.resume_from
        last_error: Optional[BaseException] = None
        gave_up = ""
        # Abandoned attempts by reason class, built at the first one.
        abandoned: Optional[Dict[str, int]] = None
        for attempt in range(retry.max_retries + 1):
            if attempt > 0:
                if read is not None and read.abandoned:
                    gave_up = "read abandoned"
                    break
                if self.retry_budget is not None and not self.retry_budget.try_acquire(
                    self.env.now
                ):
                    self.stats["retries_denied_budget"] += 1
                    gave_up = "retry budget exhausted"
                    break
                self.stats["retries"] += 1
                yield self.env.timeout(self._backoff(retry, attempt - 1))
                if read is not None and read.abandoned:
                    gave_up = "read abandoned"
                    break
                request = self.pvfs.reissue(request, resume_from=checkpoint)
            if request.deadline is not None and self.env.now >= request.deadline:
                self.stats["deadline_failures"] += 1
                last_error = DeadlineExceeded(
                    f"request {request.rid} missed its deadline before "
                    f"attempt {attempt}"
                )
                gave_up = "deadline expired"
                break
            if self.dispatcher is None:
                ranked: Optional[List[int]] = None
                breaker = self._breaker_for(request)
            else:
                # Straggler-aware routing: rank replica candidates
                # (breaker-blocked servers excluded, deadline pressure
                # honoured) and guard the attempt with the *chosen*
                # primary's breaker, not the layout primary's.
                ranked = self.dispatcher.order(
                    self.pvfs.candidates_for(request),
                    self.env.now,
                    breakers=self.breakers,
                    deadline=request.deadline,
                )
                breaker = (
                    self.breakers.for_server(ranked[0])
                    if self.breakers is not None
                    else None
                )
            if breaker is not None and not breaker.allow(self.env.now):
                if request.is_active:
                    # Route around the sick node: demote to local
                    # compute right away instead of hammering it.
                    self.stats["breaker_demotions"] += 1
                    return self._demoted_locally(request, checkpoint)
                # A normal read has nowhere else to get the data —
                # fast-fail the attempt (no traffic) and back off.
                self.stats["breaker_fast_fails"] += 1
                abandoned = self._abandon(
                    request, attempt, "breaker-open", None, abandoned
                )
                continue
            if self.pace is not None:
                wait = self.pace.reserve(request.size, self.env.now)
                if wait > 0:
                    yield self.env.timeout(wait)
            if ranked is not None:
                hedged_reply, h_reason, h_error = yield from self._attempt_hedged(
                    request, ranked, breaker, retry, checkpoint
                )
                if h_error is not None:
                    last_error = h_error
                if hedged_reply is not None:
                    if attempt > 0:
                        self.stats["requests_recovered"] += 1
                    return hedged_reply
                if h_reason == "timeout":
                    self.stats["retry_timeouts"] += 1
                abandoned = self._abandon(
                    request, attempt, h_reason, h_error, abandoned
                )
                continue
            self.pvfs.submit(request)
            # Preemptive defuse: if the reply fails *after* the timeout
            # below already decided the race, nobody would otherwise
            # handle the failure and the engine would crash the run.
            request.reply.defuse()
            deadline = self.env.timeout(retry.timeout)
            reason: Optional[str] = None
            try:
                yield AnyOf(self.env, [request.reply, deadline])
            except PVFSError as err:
                reason = f"failed: {err}"
                last_error = err
            # The race is decided; a still-pending deadline is dead
            # weight in the event queue (its only callback is the
            # decided AnyOf's no-op check), so let the scheduler's
            # compaction sweep reclaim it instead of carrying it to
            # its timestamp.
            deadline.abandon()
            if reason is None and request.reply.processed and request.reply.ok:
                # Also covers the same-timestamp race where the timeout
                # decided the AnyOf but the real reply landed anyway.
                reply: IOReply = request.reply.value
                if breaker is not None:
                    breaker.on_success(self.env.now)
                if attempt > 0:
                    self.stats["requests_recovered"] += 1
                return reply
            if breaker is not None:
                breaker.on_failure(self.env.now)
            if reason is None:
                reason = "timeout"
                self.stats["retry_timeouts"] += 1
            self.pvfs.server_for(request).cancel(request.rid)
            abandoned = self._abandon(request, attempt, reason, last_error, abandoned)
        message = (
            f"request {request.rid} ({request.operation or 'normal'}) gave up "
            + (f"({gave_up})" if gave_up
               else f"after {retry.max_retries + 1} attempts")
        )
        if abandoned:
            message += ": " + ", ".join(f"{n}× {kind}" for kind, n in abandoned.items())
        raise RetryExhausted(
            message, last_cause=last_error, reasons=abandoned
        ) from last_error

    def _attempt_hedged(
        self,
        request: IORequest,
        ranked: List[int],
        breaker: Optional[CircuitBreaker],
        retry: RetryPolicy,
        checkpoint: Optional[KernelCheckpoint],
    ) -> Generator[Event, Any, Tuple[Optional[IOReply], str, Optional[BaseException]]]:
        """One dispatcher-routed attempt: primary plus hedged backups.

        Simulation process.  Submits to ``ranked[0]``; once the
        adaptive hedge delay elapses without an answer (and the hedge
        budget permits), a backup clone goes to the next candidate —
        first successful reply wins.  Every reply is preemptively
        defused, so a loser completing after (or racing) its cancel
        drains through the server's late-reply accounting instead of
        crashing the engine, and hedge conservation
        (``won + wasted == issued``) holds structurally: each issued
        hedge settles exactly once at the single exit below.

        Breaker composition: the chosen primary's breaker hears
        success only when the *primary* wins and failure when the
        primary demonstrably failed (hard error or attempt timeout).  A
        hedge win says the primary was slow, not sick — it costs the
        primary a full-elapsed-time latency observation and hands back
        a half-open probe the breaker granted, nothing more.

        Returns ``(reply, reason, error)``: a winning reply, or
        ``None`` with the abandon reason for the retry loop.
        """
        dispatcher = self.dispatcher
        assert dispatcher is not None
        env = self.env
        servers = self.pvfs.servers
        primary_idx = ranked[0]
        backups = ranked[1:]

        self.pvfs.submit_to(request, servers[primary_idx])
        request.reply.defuse()
        dispatcher.note_primary()
        dispatcher.board.note_submit(primary_idx)
        issued_at = env.now
        deadline = env.timeout(retry.timeout)
        max_hedges = min(dispatcher.config.max_hedges, len(backups))
        hedge_timer: Optional[Event] = (
            env.timeout(dispatcher.hedge_delay()) if max_hedges > 0 else None
        )
        pending: List[Tuple[IORequest, int]] = [(request, primary_idx)]
        hedged: List[Tuple[IORequest, int]] = []
        winner: Optional[Tuple[IORequest, int]] = None
        primary_settled = False
        last_error: Optional[BaseException] = None
        reason = ""

        while True:
            waits: List[Event] = [r.reply for r, _ in pending]
            waits.append(deadline)
            if hedge_timer is not None:
                waits.append(hedge_timer)
            try:
                yield AnyOf(env, waits)
            except PVFSError as err:
                last_error = err
                reason = f"failed: {err}"
            for entry in pending:
                if entry[0].reply.processed and entry[0].reply.ok:
                    # Covers the same-timestamp race where the timeout
                    # (or a loser's failure) decided the AnyOf but a
                    # real reply landed anyway.
                    winner = entry
                    break
            if winner is not None:
                break
            still: List[Tuple[IORequest, int]] = []
            for entry in pending:
                r, idx = entry
                if not r.reply.processed:
                    still.append(entry)
                    continue
                # A hard-failed attempt: its server's breaker learns
                # immediately (latency boards don't — a crash is not a
                # slowness signal).
                if isinstance(r.reply.value, BaseException):
                    last_error = r.reply.value
                if idx == primary_idx and not primary_settled:
                    primary_settled = True
                    if breaker is not None:
                        breaker.on_failure(env.now)
                elif idx != primary_idx and self.breakers is not None:
                    self.breakers.for_server(idx).on_failure(env.now)
            pending = still
            if deadline.processed:
                reason = reason or "timeout"
                break
            if not pending:
                reason = reason or "failed: every replica attempt failed"
                break
            if hedge_timer is not None and hedge_timer.processed:
                hedge_timer = None
                if dispatcher.try_hedge():
                    idx = backups[len(hedged)]
                    clone = self.pvfs.reissue(request, resume_from=checkpoint)
                    self.pvfs.submit_to(clone, servers[idx])
                    clone.reply.defuse()
                    dispatcher.board.note_submit(idx)
                    self.stats["hedges_issued"] += 1
                    hedged.append((clone, idx))
                    pending.append((clone, idx))
                    tr = env.tracer
                    if tr.enabled:
                        tr.instant(
                            env.now,
                            "hedge",
                            f"client:{self.node.name}",
                            rid=clone.rid,
                            parent=clone.parent_id,
                            server=servers[idx].node.name,
                        )
                    if len(hedged) < max_hedges:
                        hedge_timer = env.timeout(dispatcher.hedge_delay())

        # Single exit: settle losers, then the hedge ledger, then the
        # primary's breaker and the latency board.  First release the
        # attempt's dead timers — a still-pending deadline or hedge
        # timer only feeds decided AnyOf checks now, so the scheduler
        # may sweep them early (lazy deletion) instead of keeping them
        # queued until their timestamps.
        deadline.abandon()
        if hedge_timer is not None:
            hedge_timer.abandon()
        for r, idx in pending:
            if winner is not None and r is winner[0]:
                continue
            servers[idx].cancel(r.rid)
        # Every submission of this attempt — primary plus hedges, won,
        # lost, or timed out — leaves the in-flight ledger exactly once.
        for _, idx in [(request, primary_idx)] + hedged:
            dispatcher.board.note_settle(idx)
        for r, idx in hedged:
            if winner is not None and r is winner[0]:
                self.stats["hedges_won"] += 1
            else:
                self.stats["hedges_wasted"] += 1
        if winner is not None:
            win_req, win_idx = winner
            dispatcher.observe(win_idx, env.now - win_req.submitted_at)
            if win_req is request:
                if breaker is not None:
                    breaker.on_success(env.now)
            else:
                dispatcher.observe(primary_idx, env.now - issued_at)
                if breaker is not None:
                    breaker.release_probe()
            win_reply: IOReply = win_req.reply.value
            return win_reply, "", None
        if reason == "timeout":
            dispatcher.observe(primary_idx, env.now - issued_at)
        if not primary_settled and breaker is not None:
            breaker.on_failure(env.now)
        return None, reason, last_error

    def _breaker_for(self, request: IORequest) -> Optional[CircuitBreaker]:
        if self.breakers is None:
            return None
        return self.breakers.for_server(self.pvfs.server_for(request).server_index)

    def _demoted_locally(
        self, request: IORequest, checkpoint: Optional[KernelCheckpoint]
    ) -> IOReply:
        """Synthesize a demoted reply without touching the server."""
        tr = self.env.tracer
        if tr.enabled:
            tr.instant(
                self.env.now,
                "breaker-demote",
                f"client:{self.node.name}",
                rid=request.rid,
                server=self.pvfs.server_for(request).node.name,
            )
        return IOReply.demoted(request, checkpoint, self.env.now)

    def _backoff(self, retry: RetryPolicy, attempt: int) -> float:
        """Delay before re-issue ``attempt``, seeding the stream at its first draw."""
        if (
            retry.full_jitter
            and self._backoff_rng is None
            and self.backoff_seed is not None
        ):
            self._backoff_rng = random.Random(self.backoff_seed)
        return retry.backoff(attempt, rng=self._backoff_rng)

    def _abandon(
        self,
        request: IORequest,
        attempt: int,
        reason: str,
        error: Optional[BaseException],
        tally: Optional[Dict[str, int]],
    ) -> Dict[str, int]:
        """Log one abandoned attempt and count it by reason class.

        The class is the reason, except that a failure counts under its
        exception's type (``failed: ServerCrashed``), not its message.
        ``tally`` is None until a piece abandons its first attempt, so
        an attempt that succeeds builds nothing; the updated tally is
        returned.
        """
        if reason.startswith("failed") and error is not None:
            kind = f"failed: {type(error).__name__}"
        else:
            kind = reason
        if tally is None:
            tally = {}
        tally[kind] = tally.get(kind, 0) + 1
        tr = self.env.tracer
        if tr.enabled:
            tr.instant(
                self.env.now,
                "retry",
                f"client:{self.node.name}",
                rid=request.rid,
                parent=request.parent_id,
                attempt=attempt,
                reason=reason,
            )
        self.retry_log.append(
            {
                "time": self.env.now,
                "rid": request.rid,
                "parent": request.parent_id,
                "attempt": attempt,
                "reason": reason,
            }
        )
        return tally

    # -- demotion completion (paper: "manage the rest of the processing") ----------
    def _finish_demoted(
        self,
        kernel: Kernel,
        reply: IOReply,
        operation: str,
        meta: Optional[Dict[str, Any]],
        retry: Optional[RetryPolicy] = None,
    ) -> Generator[Event, Any, Tuple[Any, int, int]]:
        """Normal-read the remaining data and run the client-side PK.

        The reads are :func:`remainder_reads`: one per contiguous run,
        or one recovered attempt per stripe under a retry policy.
        Returns ``(partial_result, bytes_read, bytes_computed)``.
        """
        checkpoint: Optional[KernelCheckpoint] = reply.checkpoint
        done = reply.bytes_done
        remaining = int(reply.remaining)
        for file_offset, nbytes in remainder_reads(reply, retry is not None):
            yield from self.read(reply.fh, offset=file_offset, size=nbytes,
                                 retry=retry)

        # Client-side compute at C_{C,op}: this node's cores apply
        # their own core speed to the kernel's rate.
        if remaining > 0:
            yield from self.node.cpu.compute(float(remaining), kernel.rate)

        partial = None
        if self.execute_kernels:
            file = self.pvfs.mds.lookup(reply.fh.name)
            state = kernel.state_from(checkpoint, reply.fh.kernel_meta(meta))
            if remaining > 0:
                data = read_extent_stream(file, reply.extents, done, remaining,
                                          dtype=kernel.dtype)
                kernel.process_chunk(state, data)
            partial = kernel.finalize(state)
        return partial, int(remaining), int(remaining)

    def _combine(self, kernel: Kernel, partials: List[Any]) -> Any:
        if not self.execute_kernels:
            return None
        real = [p for p in partials if p is not None]
        if not real:
            return None
        if len(real) == 1:
            return real[0]
        return kernel.combine(real)
