"""The I/O server running on each storage node.

Serves normal reads and writes itself: one transfer on the node's NIC
link, which serialises transfers — the g(x) = x/bw model (paper
Table II has no disk term; disk time is folded into the kernel and
network rates).  Active requests are delegated to a pluggable *active
handler*; in a full DOSAS deployment that handler is the node's Active
I/O Runtime (``repro.core.runtime``), and the server with its runtime
is the paper's Active Storage Server.  Without a handler, active
requests are rejected loudly — a traditional PVFS deployment.

The server keeps an ``outstanding`` table of accepted-but-unanswered
requests.  That table *is* the I/O queue of the paper's Figure 1: the
Contention Estimator's probe reads (n, k, D, D_A) from it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Protocol, Tuple, cast

from repro.qos.admission import AdmissionController, AdmissionDecision
from repro.sim.engine import Environment
from repro.sim.events import Event, Timer
from repro.sim.monitor import TimeWeightedStat, percentile
from repro.cluster.network import Link
from repro.cluster.node import StorageNode
from repro.pvfs.metadata import MetadataServer, PVFSError
from repro.pvfs.requests import IOKind, IOReply, IORequest


class ServerFault(PVFSError):
    """Base class for failure-injected server-side errors."""


class ServerCrashed(ServerFault):
    """The server crashed with this request in its queue."""


class ServerUnavailable(ServerFault):
    """The server is down and rejected a new request."""


class ServerOverloaded(ServerFault):
    """Admission control refused the request (queue full / intake policed)."""


class DeadlineExceeded(ServerFault):
    """The request's deadline passed before the server could answer it."""


class ActiveHandler(Protocol):
    """Every hook the server and the fault injector call on active work.

    The DOSAS Active I/O Runtime (``repro.core.runtime``) implements it.
    """

    def submit(self, request: IORequest) -> None:
        """Accept one active request for processing or demotion."""

    def abort(self, rid: int) -> bool:
        """Drop ``rid`` without a reply (client cancel or deadline)."""

    def shed(self, rid: int) -> bool:
        """Answer queued ``rid`` demoted to free queue room."""

    def on_crash(self, cause: str) -> None:
        """The node crashed: drop every queued and running kernel."""

    def on_degrade(self, cause: str) -> None:
        """The node slowed down: checkpoint running kernels, re-decide."""

    def refresh_policy(self) -> object:
        """Re-decide queued and running work (after a restore)."""

    def stall_running(self) -> int:
        """Hang every running kernel; returns how many."""


class _Service:
    """One normal read or write in service: a single link transfer.

    The transfer starts with the service and the server replies when
    it lands.  :meth:`cancel` — on a crash, a client cancel or a
    deadline — suppresses that reply: a transfer already handed to the
    link still drains, but nothing is delivered.
    """

    __slots__ = ("server", "request", "live")

    def __init__(self, server: IOServer, request: IORequest) -> None:
        self.server = server
        self.request = request
        self.live = True
        callbacks = server.link.transfer(request.size).callbacks
        assert callbacks is not None, "the link returned a processed event"
        callbacks.append(self._landed)

    def cancel(self) -> None:
        """Deliver nothing when the transfer lands; idempotent."""
        self.live = False

    def _landed(self, _event: Event) -> None:
        if self.live:
            self.server._complete(self.request)


class IOServer:
    """One PVFS I/O server bound to a storage node and its NIC."""

    def __init__(
        self,
        env: Environment,
        node: StorageNode,
        link: Link,
        mds: MetadataServer,
        server_index: int = 0,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.link = link
        self.mds = mds
        self.server_index = server_index
        #: Overload protection on intake (None accepts everything).
        self.admission = admission
        self.active_handler: Optional[ActiveHandler] = None
        #: Accepted requests not yet replied — the Figure-1 I/O queue.
        #: Only :meth:`_enqueue`, :meth:`_dequeue` and :meth:`crash`
        #: change it, keeping the queue counters below in step.
        self.outstanding: Dict[int, IORequest] = {}
        #: (k, D, D_A) of ``outstanding``, returned by :meth:`queue_stats`.
        self._active_count = 0
        self._queued_bytes = 0
        self._active_bytes = 0
        #: Event counts by name, a :class:`~collections.Counter` (typed
        #: for the float ``bytes_streamed``): a name exists once it has
        #: been counted, and one never counted reads 0.
        self.counts = cast(Dict[str, float], Counter())
        #: Time-weighted ``outstanding`` length, from its first change.
        self.queue_length: Optional[TimeWeightedStat] = None
        #: Submit-to-reply time of every finished request.
        self.service_times: List[float] = []
        self._track = f"server:{node.name}"
        #: True while crashed: new requests are rejected.
        self.down = False
        #: Service handle per rid for normal/write requests, so a
        #: crash, client cancel or deadline can stop them mid-service.
        self._service: Dict[int, _Service] = {}
        #: Armed deadline timer per rid (cancelled on any completion).
        self._deadline_timers: Dict[int, Timer] = {}

    # -- wiring ---------------------------------------------------------------
    def attach_active_handler(self, handler: ActiveHandler) -> None:
        """Install this node's active handler (its Active I/O Runtime)."""
        self.active_handler = handler

    # -- request intake ----------------------------------------------------------
    def submit(self, request: IORequest) -> None:
        """Accept a request into the queue and start service.

        Request messages themselves are tiny (no payload), so intake is
        immediate; all modelled time is CPU and data transfer.
        """
        if request.rid in self.outstanding:
            raise PVFSError(f"duplicate request id {request.rid}")
        tr = self.env.tracer
        if self.down:
            # A crashed server answers nothing; model the connection
            # refusal as an immediate failed reply so clients can retry.
            self.counts["requests_rejected"] += 1
            if tr.enabled:
                tr.instant(self.env.now, "reject", self._track, rid=request.rid)
            request.reply.fail(
                ServerUnavailable(
                    f"server {self.node.name} is down (request {request.rid})"
                )
            )
            return
        now = self.env.now
        if request.deadline is not None and now >= request.deadline:
            # Expired on arrival: refusing is cheaper than serving work
            # nobody will wait for.
            self.counts["deadline_rejected"] += 1
            if tr.enabled:
                tr.instant(now, "deadline-reject", self._track, rid=request.rid)
            request.reply.fail(
                DeadlineExceeded(
                    f"request {request.rid} reached server {self.node.name} "
                    f"past its deadline"
                )
            )
            return
        if self.admission is not None:
            verdict = self.admission.screen(
                len(self.outstanding),
                request.is_active,
                request.size,
                now,
                tenant=request.tenant,
            )
            if verdict is AdmissionDecision.REJECT and not request.is_active:
                # DOSAS shedding order: demote queued active work to
                # client-side execution before refusing a normal read.
                if self.shed_queued_active(limit=1):
                    verdict = self.admission.screen(
                        len(self.outstanding),
                        request.is_active,
                        request.size,
                        now,
                        tenant=request.tenant,
                    )
            if verdict is AdmissionDecision.SHED:
                self._shed(request)
                return
            if verdict is AdmissionDecision.REJECT:
                self.counts["requests_overloaded"] += 1
                if tr.enabled:
                    tr.instant(
                        now,
                        "overload-reject",
                        self._track,
                        rid=request.rid,
                        queue=len(self.outstanding),
                    )
                request.reply.fail(
                    ServerOverloaded(
                        f"server {self.node.name} rejected request "
                        f"{request.rid}: queue depth {len(self.outstanding)}"
                    )
                )
                return
        self._enqueue(request)
        if request.deadline is not None:
            self._deadline_timers[request.rid] = Timer(
                self.env,
                request.deadline - now,
                lambda rid=request.rid: self._expire(rid),
            )
        self.counts["requests_received"] += 1
        self.counts[f"requests_{request.kind.value}"] += 1
        self._queue_changed()
        if tr.enabled:
            tr.begin(
                self.env.now,
                "request",
                self._track,
                rid=request.rid,
                io=request.kind.value,
                size=request.size,
                client=request.client_name,
            )
            tr.instant(
                self.env.now,
                "enqueue",
                self._track,
                rid=request.rid,
                queue=len(self.outstanding),
            )

        if request.kind is not IOKind.ACTIVE:
            self._serve(request)
        elif self.active_handler is None:
            raise PVFSError(
                f"server {self.node.name} received an active request but has "
                "no active storage server attached"
            )
        else:
            self.active_handler.submit(request)

    # -- failure hooks (see repro.faults) ------------------------------------
    def crash(self, cause: str = "node-crash") -> None:
        """Hard-fail the node: every queued request dies, intake stops.

        In-flight normal/write services are cancelled, the active
        handler (when attached) drops its queued and running kernels,
        and every outstanding reply fails with :class:`ServerCrashed`
        so clients learn immediately — matching a connection reset
        from a dead peer.  Idempotent.
        """
        if self.down:
            return
        self.down = True
        self.counts["crashes"] += 1
        tr = self.env.tracer
        if tr.enabled:
            tr.instant(self.env.now, "server-crash", self._track, cause=cause)
        for service in self._service.values():
            service.cancel()
        self._service.clear()
        if self.active_handler is not None:
            self.active_handler.on_crash(cause)
        for timer in self._deadline_timers.values():
            timer.cancel()
        self._deadline_timers.clear()
        victims = list(self.outstanding.values())
        self.outstanding.clear()
        self._active_count = self._queued_bytes = self._active_bytes = 0
        if victims:
            # Conservation counter: received = completed + cancelled +
            # failed_crash + deadline_expired + still-outstanding.
            self.counts["requests_failed_crash"] += len(victims)
        for req in victims:
            if tr.enabled:
                tr.end(
                    self.env.now, "request", self._track, rid=req.rid, outcome="crashed"
                )
            if not req.reply.triggered:
                req.reply.fail(
                    ServerCrashed(
                        f"server {self.node.name} crashed holding request {req.rid}"
                    )
                )
        self._queue_changed()

    def restart(self) -> None:
        """Bring a crashed server back with an empty queue.  Idempotent.

        A reboot also clears transient derates (a slowdown does not
        survive power-cycling the box); a deliberate network partition
        is outside the box and stays in force.
        """
        if not self.down:
            return
        self.down = False
        self.node.cpu.restore()
        self.link.restore()
        self.counts["restarts"] += 1
        tr = self.env.tracer
        if tr.enabled:
            tr.instant(self.env.now, "server-restart", self._track)

    def cancel(self, rid: int) -> bool:
        """Client-initiated abandonment (timeout path, before reissue).

        Drops the request without delivering any reply — the client has
        already defused and stopped listening on the reply event.
        Returns True if the request was still queued here.
        """
        return self._withdraw(rid, "requests_cancelled", "cancelled") is not None

    def _expire(self, rid: int) -> None:
        """Deadline timer fired: withdraw the work, fail the reply typed."""
        request = self._withdraw(rid, "deadline_expired", "deadline")
        if request is not None and not request.reply.triggered:
            request.reply.fail(
                DeadlineExceeded(
                    f"request {rid} exceeded its deadline on server "
                    f"{self.node.name}"
                )
            )

    def _withdraw(self, rid: int, counter: str, outcome: str) -> Optional[IORequest]:
        """Take ``rid`` out of service without replying; None if not here.

        Dequeues it, cancels its deadline timer and its normal-path
        service, aborts its active work at the handler, counts it
        under ``counter`` and closes its trace span with ``outcome``.
        Inside :meth:`_expire` the timer being cancelled is the one
        firing, which the engine has already taken off its queue.
        """
        request = self._dequeue(rid)
        if request is None:
            return None
        timer = self._deadline_timers.pop(rid, None)
        if timer is not None:
            timer.cancel()
        service = self._service.pop(rid, None)
        if service is not None:
            service.cancel()
        if request.is_active and self.active_handler is not None:
            self.active_handler.abort(rid)
        self.counts[counter] += 1
        self._queue_changed()
        tr = self.env.tracer
        if tr.enabled:
            tr.end(self.env.now, "request", self._track, rid=rid, outcome=outcome)
        return request

    # -- overload protection (see repro.qos) ---------------------------------
    def _shed(self, request: IORequest) -> None:
        """Answer an active arrival as demoted without queueing it.

        The reply is the runtime's demotion (:meth:`IOReply.demoted`,
        any prior checkpoint carried through), so the ASC finishes the
        work client-side — the request never enters ``outstanding``.
        """
        self.counts["requests_shed"] += 1
        tr = self.env.tracer
        if tr.enabled:
            tr.instant(
                self.env.now,
                "shed",
                self._track,
                rid=request.rid,
                queue=len(self.outstanding),
            )
        request.reply.succeed(IOReply.demoted(request, request.resume_from, self.env.now))

    def shed_queued_active(self, limit: Optional[int] = None) -> int:
        """Demote queued (not yet running) active work to the clients.

        The admission controller calls this to free queue room before
        a normal read is refused; each shed request is answered through
        the runtime's demotion path (so it counts as completed work
        here).  Returns how many requests were shed.
        """
        handler = self.active_handler
        if handler is None:
            return 0
        shed = 0
        for req in self.queued_active_requests():
            if limit is not None and shed >= limit:
                break
            if handler.shed(req.rid):
                shed += 1
                self.counts["requests_shed_queued"] += 1
        return shed

    # -- normal read / write path ------------------------------------------------
    def _serve(self, request: IORequest) -> None:
        """Start serving a normal read or a write (no process spawned)."""
        tr = self.env.tracer
        if tr.enabled:
            tr.instant(
                self.env.now,
                "dispatch",
                self._track,
                rid=request.rid,
                mode=request.kind.value,
            )
        self._service[request.rid] = _Service(self, request)

    def _complete(self, request: IORequest) -> None:
        """Transfer landed: store a write's bytes, then reply."""
        self._service.pop(request.rid, None)
        if request.kind is IOKind.WRITE and request.payload is not None:
            file = self.mds.lookup(request.fh.name)
            cursor = 0
            flat = request.payload.reshape(-1).view("uint8")
            for file_offset, nbytes in request.extents:
                file.write_bytes_from_array(
                    file_offset, flat[cursor : cursor + nbytes]
                )
                cursor += nbytes
        reply = IOReply(
            rid=request.rid,
            completed=True,
            result=request.size,
            fh=request.fh,
            offset=request.offset,
            bytes_streamed=float(request.size),
            served_active=False,
            finished_at=self.env.now,
        )
        self.finish(request, reply)

    # -- completion & stats -----------------------------------------------------------
    def finish(self, request: IORequest, reply: IOReply) -> None:
        """Remove from the queue and deliver the reply to the client.

        Also the completion entry point for the active handler.
        """
        if self._dequeue(request.rid) is None:
            if request.reply.triggered or request.reply.defused:
                # Late completion of a request that crashed away, was
                # answered through another path, or was abandoned by a
                # cancelling client mid-delivery (defused reply, the
                # kernel's detached transfer outlives the cancel) —
                # counted so soak invariant checks can see the drop.
                self.counts["late_replies"] += 1
                tr = self.env.tracer
                if tr.enabled:
                    tr.instant(
                        self.env.now,
                        "late-reply",
                        self._track,
                        rid=request.rid,
                        completed=reply.completed,
                    )
                return
            raise PVFSError(f"finishing unknown request {request.rid}")
        timer = self._deadline_timers.pop(request.rid, None)
        if timer is not None:
            timer.cancel()
        self.counts["requests_completed"] += 1
        self.counts["bytes_streamed"] += reply.bytes_streamed
        self._queue_changed()
        self.service_times.append(self.env.now - request.submitted_at)
        tr = self.env.tracer
        if tr.enabled:
            tr.instant(
                self.env.now,
                "reply",
                self._track,
                rid=request.rid,
                completed=reply.completed,
                demoted=not reply.completed,
                served_active=reply.served_active,
            )
            tr.end(
                self.env.now,
                "request",
                self._track,
                rid=request.rid,
                outcome="completed" if reply.completed else "demoted",
            )
        request.reply.succeed(reply)

    def queue_stats(self) -> Tuple[int, int, float, float]:
        """(n, k, D, D_A) over outstanding requests — paper Table II.

        n: total queued requests; k: active among them; D: total
        requested bytes; D_A: bytes requested by active I/Os.  Read
        from counters kept on every queue change, not by a scan.
        """
        return (
            len(self.outstanding),
            self._active_count,
            float(self._queued_bytes),
            float(self._active_bytes),
        )

    def summary(self) -> Dict[str, Any]:
        """Flat view copied into ``SchemeResult.server_metrics``.

        Every count as a float, by name; then ``queue_length.mean`` and
        ``.last`` once the queue has changed, and ``service_time.count``,
        ``.sum``, ``.mean``, ``.min``, ``.max``, ``.p50``, ``.p95`` and
        ``.p99`` once a request has finished.
        """
        out: Dict[str, Any] = {
            name: float(self.counts[name]) for name in sorted(self.counts)
        }
        if self.queue_length is not None:
            out["queue_length.mean"] = self.queue_length.mean(self.env.now)
            out["queue_length.last"] = self.queue_length.current
        times = self.service_times
        if times:
            total = sum(times)
            out["service_time.count"] = len(times)
            out["service_time.sum"] = total
            out["service_time.mean"] = total / len(times)
            out["service_time.min"] = min(times)
            out["service_time.max"] = max(times)
            for q in (50, 95, 99):
                out[f"service_time.p{q}"] = percentile(times, q)
        return out

    def _queue_changed(self) -> None:
        """Advance the time-weighted queue length to ``outstanding``."""
        if self.queue_length is None:
            self.queue_length = TimeWeightedStat(start_time=self.env.now)
        self.queue_length.update(self.env.now, len(self.outstanding))

    def _enqueue(self, request: IORequest) -> None:
        """Add ``request`` to ``outstanding`` and the queue counters."""
        self.outstanding[request.rid] = request
        self._queued_bytes += request.size
        if request.is_active:
            self._active_count += 1
            self._active_bytes += request.size

    def _dequeue(self, rid: int) -> Optional[IORequest]:
        """Remove ``rid`` from ``outstanding`` and the queue counters."""
        request = self.outstanding.pop(rid, None)
        if request is not None:
            self._queued_bytes -= request.size
            if request.is_active:
                self._active_count -= 1
                self._active_bytes -= request.size
        return request

    def queued_active_requests(self) -> list:
        """Outstanding active requests in shedding order.

        Submission-ordered by default; with a tenant ledger attached,
        requests from tenants living furthest beyond their guarantee
        (outstanding borrowed debt, see
        :meth:`repro.qos.tenancy.TenantLedger.over_quota`) sort first —
        the multi-tenant refinement of the DOSAS shedding order: the
        noisy tenant's active work is demoted before anyone else's.
        """
        ledger = self.admission.tenants if self.admission is not None else None
        if ledger is None:
            return sorted(
                (r for r in self.outstanding.values() if r.is_active),
                key=lambda r: (r.submitted_at, r.rid),
            )
        now = self.env.now
        return sorted(
            (r for r in self.outstanding.values() if r.is_active),
            key=lambda r: (-ledger.over_quota(r.tenant, now), r.submitted_at, r.rid),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<IOServer {self.node.name} outstanding={len(self.outstanding)}>"
