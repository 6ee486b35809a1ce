"""The PVFS client library running on each compute node.

Scatters logical reads over the I/O servers holding the file's
stripes and gathers the per-server replies, in two steps:
:meth:`PVFSClient.build_requests` cuts a logical extent into
per-server requests and :meth:`PVFSClient.scatter_gather` submits them
and waits for every reply.  :meth:`PVFSClient.read` and
:meth:`PVFSClient.write` compose the two; the Active Storage Client
(``repro.core.asc``) composes them for its reads, active or plain, or
drives the built requests through its own retry recovery.

Reads, writes and the gather are *simulation processes*: drive them
with ``yield from`` inside another process, or wrap in ``env.process``
and ``env.run(until=...)``.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Iterable, List, Optional, Sequence, TYPE_CHECKING

from repro.sim.engine import Environment
from repro.sim.events import AllOf, Event
from repro.cluster.node import ComputeNode

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np
from repro.kernels.base import KernelCheckpoint
from repro.pvfs.filehandle import FileHandle
from repro.pvfs.metadata import MetadataServer, PVFSError
from repro.pvfs.requests import IOKind, IOReply, IORequest, next_request_id
from repro.pvfs.server import IOServer

_parent_counter = itertools.count(1)


def reset_parent_ids(start: int = 1) -> None:
    """Restart the logical-operation id sequence.

    Parent ids are globally unique within a process so concurrent runs
    never collide; trace-determinism tests (and any tool diffing trace
    exports between runs) reset them so two same-seed runs serialise
    byte-identically.  See also
    :func:`repro.pvfs.requests.reset_request_ids`.
    """
    global _parent_counter
    _parent_counter = itertools.count(start)


class PVFSClient:
    """One compute node's file-system client."""

    def __init__(
        self,
        env: Environment,
        node: ComputeNode,
        servers: Sequence[IOServer],
        mds: MetadataServer,
        tenant: Optional[str] = None,
    ) -> None:
        if not servers:
            raise PVFSError("a PVFS deployment needs at least one I/O server")
        self.env = env
        self.node = node
        self.servers = list(servers)
        self.mds = mds
        #: Tenant identity stamped onto every request this client
        #: fabricates, so servers can police per-tenant guarantees.
        self.tenant = tenant

    # -- namespace -------------------------------------------------------------
    def open(self, name: str) -> FileHandle:
        """Open ``name`` (metadata ops are instantaneous)."""
        return self.mds.open(name)

    # -- request fabrication ---------------------------------------------------------
    def build_requests(
        self,
        fh: FileHandle,
        offset: int,
        size: int,
        kind: IOKind,
        operation: Optional[str],
        meta: Optional[dict],
    ) -> List[IORequest]:
        """One request per I/O server holding ``[offset, offset+size)``.

        Each covers that server's contiguous runs of the extent, in
        logical order; all share one parent id.
        """
        if offset < 0 or size < 0 or offset + size > fh.size:
            raise PVFSError(
                f"extent [{offset}, {offset + size}) outside {fh.name!r} "
                f"of size {fh.size}"
            )
        parent = next(_parent_counter)
        # Per-server contiguous runs in logical order.
        pieces_by_server = fh.layout.extents_by_server(offset, size)
        # One server holds the whole extent: no order to fix, no sum.
        single = len(pieces_by_server) == 1
        order: Iterable[int] = pieces_by_server if single else sorted(pieces_by_server)

        requests: List[IORequest] = []
        for server_idx in order:
            pieces = pieces_by_server[server_idx]
            requests.append(
                IORequest(
                    rid=next_request_id(),
                    parent_id=parent,
                    kind=kind,
                    fh=fh,
                    offset=pieces[0][0],
                    size=size if single else sum(length for _o, length in pieces),
                    operation=operation,
                    client_name=self.node.name,
                    reply=self.env.event(),
                    submitted_at=self.env.now,
                    meta=dict(meta or {}),
                    tenant=self.tenant,
                    extents=tuple(pieces),
                )
            )
        return requests

    # -- normal I/O -------------------------------------------------------------
    def read(
        self, fh: FileHandle, offset: int = 0, size: Optional[int] = None
    ) -> Generator[Event, Any, List[IOReply]]:
        """Read ``size`` bytes at ``offset`` (simulation process).

        Returns the list of per-server :class:`IOReply` objects; the
        total transferred equals ``size``.
        """
        size = fh.size - offset if size is None else size
        requests = self.build_requests(fh, offset, size, IOKind.NORMAL, None, None)
        return self.scatter_gather(requests)

    # -- writes ----------------------------------------------------------------
    def write(
        self,
        fh: FileHandle,
        offset: int = 0,
        size: Optional[int] = None,
        data: Optional["np.ndarray"] = None,
    ) -> Generator[Event, Any, List[IOReply]]:
        """Write ``size`` bytes at ``offset`` (simulation process).

        ``data`` (numpy array) attaches real bytes — each per-server
        request receives the slice matching its stripes; ``None``
        performs a timing-only write.
        """
        if data is not None:
            import numpy as np

            data = np.ascontiguousarray(data)
            size = data.nbytes if size is None else size
        size = fh.size - offset if size is None else size
        requests = self.build_requests(fh, offset, size, IOKind.WRITE, None, None)
        if data is not None:
            flat = data.reshape(-1).view(np.uint8)
            for request in requests:
                pieces = []
                for file_offset, nbytes in request.extents:
                    rel = file_offset - offset
                    pieces.append(flat[rel : rel + nbytes])
                request.payload = (
                    pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
                )
        return self.scatter_gather(requests)

    # -- transport -------------------------------------------------------------
    def server_for(self, request: IORequest) -> IOServer:
        """The I/O server that owns this request's stripes."""
        server_idx = request.fh.layout.server_of(request.offset)
        return self.servers[server_idx % len(self.servers)]

    def candidates_for(self, request: IORequest) -> List[int]:
        """Global indices of every server able to serve this request.

        The layout's replica chain (primary first), clipped to the
        deployment — the candidate set a straggler-aware dispatcher
        reorders.  Width-spanning requests hedge on the primary
        stripe's replicas.
        """
        replicas = request.fh.layout.replicas_of(request.offset)
        n = len(self.servers)
        out: List[int] = []
        for idx in replicas:
            idx %= n
            if idx not in out:
                out.append(idx)
        return out

    def submit(self, request: IORequest) -> IOServer:
        """Route one request to its stripe server and return the server.

        The retry machinery in the ASC submits pieces individually so
        it can attach its own timeout to each reply.
        """
        return self.submit_to(request, self.server_for(request))

    def submit_to(self, request: IORequest, server: IOServer) -> IOServer:
        """Route one request to an explicitly chosen (replica) server.

        The straggler-aware dispatcher picks among
        :meth:`candidates_for`; plain :meth:`submit` is the degenerate
        layout-primary case.
        """
        tr = self.env.tracer
        if tr.enabled:
            tr.instant(
                self.env.now,
                "issue",
                f"client:{self.node.name}",
                rid=request.rid,
                server=server.node.name,
                io=request.kind.value,
                parent=request.parent_id,
            )
        server.submit(request)
        return server

    def reissue(
        self,
        request: IORequest,
        resume_from: Optional[KernelCheckpoint] = None,
    ) -> IORequest:
        """Clone ``request`` for a retry: fresh id, fresh reply event.

        ``resume_from`` carries the latest checkpoint so the server
        (or a demotion-finishing client) continues from exactly where
        the failed attempt left off — completed bytes are never
        re-read.  Without one, the original request's checkpoint (if
        any) is preserved.
        """
        return IORequest(
            rid=next_request_id(),
            parent_id=request.parent_id,
            kind=request.kind,
            fh=request.fh,
            offset=request.offset,
            size=request.size,
            operation=request.operation,
            client_name=request.client_name,
            reply=self.env.event(),
            submitted_at=self.env.now,
            meta=dict(request.meta),
            resume_from=resume_from if resume_from is not None else request.resume_from,
            deadline=request.deadline,
            tenant=request.tenant,
            extents=request.extents,
        )

    def scatter_gather(
        self, requests: List[IORequest]
    ) -> Generator[Event, Any, List[IOReply]]:
        """Submit per-server requests, wait for every reply (process)."""
        for request in requests:
            self.submit(request)

        if len(requests) == 1:
            # One server: wait on its reply itself, not a one-event AllOf.
            reply: IOReply = yield requests[0].reply
            return [reply]
        yield AllOf(self.env, [r.reply for r in requests])
        replies: List[IOReply] = [r.reply.value for r in requests]
        return replies
