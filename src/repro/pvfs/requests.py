"""I/O request and reply records.

An :class:`IORequest` is one per-server piece of a client read — the
unit that sits in the storage node's I/O queue (Figure 1) and that the
DOSAS scheduling algorithm decides about (the paper's i-th request with
data size d_i and type active/normal).

An :class:`IOReply` mirrors the paper's ``struct result`` (Table I):
``completed`` (0/1), ``buf`` (result, or kernel status when not
completed), the file handle and the current data position, so a
demoted request can be finished by the Active Storage Client.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, TYPE_CHECKING

from repro.kernels.base import KernelCheckpoint
from repro.pvfs.filehandle import FileHandle, PVFSFile

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np
    import numpy.typing as npt

    from repro.sim.events import Event


class IOKind(enum.Enum):
    """Request type: the paper's Normal I/O vs Active I/O, plus writes."""

    NORMAL = "normal"
    ACTIVE = "active"
    WRITE = "write"


_rid_counter = itertools.count(1)


def next_request_id() -> int:
    """Globally unique request id."""
    return next(_rid_counter)


def reset_request_ids(start: int = 1) -> None:
    """Restart the request-id sequence.

    Request ids are process-global so ids never collide across runs;
    tools comparing trace exports between two same-seed runs (the
    determinism tests, ``repro trace`` diffing) reset the sequence so
    both runs label requests identically.
    """
    global _rid_counter
    _rid_counter = itertools.count(start)


def slice_extents(
    extents: Tuple[Tuple[int, int], ...], start: int, length: int
) -> List[Tuple[int, int]]:
    """Map a range of the *concatenated* extent stream to file pieces.

    A request's data is the concatenation of its (possibly
    non-contiguous) ``(file_offset, nbytes)`` extents in logical
    order.  Checkpoints count progress along that stream; this helper
    translates stream position ``[start, start+length)`` back to file
    extents, one per extent touched, so both the runtime and the ASC
    read exactly the right bytes when resuming.
    """
    if start < 0 or length < 0:
        raise ValueError("start and length must be non-negative")
    out: List[Tuple[int, int]] = []
    stream = 0
    remaining = length
    for file_offset, nbytes in extents:
        if remaining <= 0:
            break
        piece_end = stream + nbytes
        if piece_end <= start:
            stream = piece_end
            continue
        skip = max(0, start - stream)
        take = min(nbytes - skip, remaining)
        if take > 0:
            out.append((file_offset + skip, take))
            remaining -= take
        stream = piece_end
    if remaining > 0:
        raise ValueError(
            f"range [{start}, {start + length}) exceeds the extent stream"
        )
    return out


def read_extent_stream(
    file: PVFSFile,
    extents: Tuple[Tuple[int, int], ...],
    start: int,
    length: int,
    dtype: npt.DTypeLike = "float64",
) -> np.ndarray:
    """Materialise ``[start, start+length)`` of the extent stream."""
    import numpy as np

    pieces = [
        file.read_bytes_as_array(off, nbytes, dtype=dtype)
        for off, nbytes in slice_extents(extents, start, length)
    ]
    if not pieces:
        return np.empty(0, dtype=dtype)
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


@dataclass(slots=True)
class IORequest:
    """One per-server I/O request.

    Attributes
    ----------
    rid:
        Unique id (one logical client read that stripes over s servers
        produces s requests sharing ``parent_id``).
    parent_id:
        Id of the logical client operation.
    kind:
        NORMAL or ACTIVE.
    fh:
        Client file handle.
    offset, size:
        The *logical* extent this request covers (already restricted
        to one server by the client-side striping).
    operation:
        Kernel name for active requests, None for normal.
    meta:
        Kernel metadata (e.g. row width).
    client_name:
        Requesting compute node (for tracing).
    reply:
        Event succeeded with the :class:`IOReply`.
    submitted_at:
        Simulation time of submission.
    resume_from:
        Checkpoint when this request resumes a previously interrupted
        kernel execution.
    deadline:
        Absolute simulated time after which the work is worthless.
        Servers refuse expired arrivals and cancel expired queued work
        with ``DeadlineExceeded``; ``None`` means no deadline.
    tenant:
        Name of the tenant (job) this request belongs to, carried from
        the workload through the ASC so servers can police per-tenant
        rate guarantees; ``None`` means unpoliced.
    """

    rid: int
    parent_id: int
    kind: IOKind
    fh: FileHandle
    offset: int
    size: int
    operation: Optional[str]
    client_name: str
    reply: "Event"
    submitted_at: float
    meta: dict = field(default_factory=dict)
    resume_from: Optional[KernelCheckpoint] = None
    deadline: Optional[float] = None
    tenant: Optional[str] = None
    #: WRITE requests may carry real bytes (None in timing-only runs).
    payload: Optional[np.ndarray] = None
    #: The exact file bytes this request covers, as maximal
    #: contiguous runs ``((file_offset, nbytes), …)`` in logical order.
    #: A width-1 file's request is just ``((offset, size),)``; a request
    #: on a wider layout lists each of the server's runs.  Extents only
    #: map bytes (kernel data, write payloads, checkpoint positions):
    #: the server serves the request as one transfer of ``size``.
    extents: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative request size {self.size}")
        if self.offset < 0:
            raise ValueError(f"negative request offset {self.offset}")
        if self.kind is IOKind.ACTIVE and not self.operation:
            raise ValueError("active requests need an operation name")
        extents = self.extents
        if not extents:
            self.extents = ((self.offset, self.size),)
            return
        if len(extents) == 1:
            total = extents[0][1]
        else:
            total = sum(nbytes for _off, nbytes in extents)
        if total != self.size:
            raise ValueError(
                f"extents cover {total} bytes but size says {self.size}"
            )

    @property
    def is_active(self) -> bool:
        """True for active I/O."""
        return self.kind is IOKind.ACTIVE

    def read_stream(
        self, file: PVFSFile, start: int, length: int, dtype: npt.DTypeLike = "float64"
    ) -> np.ndarray:
        """Read ``[start, start+length)`` of this request's data stream."""
        return read_extent_stream(file, self.extents, start, length, dtype)


@dataclass(slots=True)
class IOReply:
    """The paper's ``struct result`` (Table I) plus tracing fields.

    Attributes
    ----------
    rid:
        The request this answers.
    completed:
        True ⇔ the paper's ``completed == 1``: the active computation
        finished (or, for a normal read, the data arrived).  False
        only on a demoted active I/O (see :meth:`demoted`).
    result:
        ``buf`` when completed: the kernel result (or data size for a
        normal read).
    checkpoint:
        ``buf`` when *not* completed: the saved kernel status, or None
        when the request was demoted before starting.
    fh:
        File handle (so the client can finish the work).
    offset:
        "current data position" — the file offset of the first byte
        the client-side kernel still has to process.
    remaining:
        Bytes of the request extent not yet processed (0 when
        completed); the ASC reads exactly this much to finish.
    bytes_streamed:
        Bytes that crossed the network for this reply.
    served_active:
        True when a storage-side kernel (fully) produced the result.
    finished_at:
        Simulation time of the reply.
    """

    rid: int
    completed: bool
    result: Any = None
    checkpoint: Optional[KernelCheckpoint] = None
    fh: Optional[FileHandle] = None
    offset: int = 0
    remaining: int = 0
    bytes_streamed: float = 0.0
    served_active: bool = False
    finished_at: float = 0.0
    #: The request's extent list (see :attr:`IORequest.extents`),
    #: echoed back so the ASC can read a demoted request's remainder.
    extents: Tuple[Tuple[int, int], ...] = ()
    #: Bytes of the extent stream already folded into ``checkpoint``.
    bytes_done: int = 0
    #: Name of the output file a filter kernel wrote at the storage
    #: node (Son et al. write-back convention), when applicable.
    output_file: Optional[str] = None

    @classmethod
    def demoted(
        cls,
        request: IORequest,
        checkpoint: Optional[KernelCheckpoint],
        now: float,
        streamed: float = 0.0,
    ) -> "IOReply":
        """The ``completed == 0`` reply that demotes ``request``.

        Paper Sec. III-C: the active I/O becomes a normal I/O that the
        ASC finishes from the current data position.  ``checkpoint``
        is ``buf`` — the kernel's variable records, or the request's
        prior progress carried through, or None when no byte was
        processed — and ``streamed`` the bytes it cost on the wire.
        """
        done = checkpoint.bytes_done if checkpoint is not None else 0
        # The current data position: the file offset of the first
        # unprocessed byte of the extent stream (its end when none is).
        skip = done
        for position, nbytes in request.extents:
            if skip < nbytes:
                break
            skip -= nbytes
        else:
            skip = nbytes
        return cls(
            rid=request.rid,
            completed=False,
            checkpoint=checkpoint,
            fh=request.fh,
            offset=position + skip,
            remaining=request.size - done,
            extents=request.extents,
            bytes_done=done,
            bytes_streamed=streamed,
            finished_at=now,
        )
