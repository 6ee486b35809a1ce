"""MPI_File analogue with the DOSAS ``read_ex`` extension.

A :class:`File` belongs to an :class:`MPIIOContext` — the per-process
I/O stack (one compute node's ASC and PVFS client).  ``read`` follows
``MPI_File_read`` semantics (individual file pointer, byte stream);
``read_ex`` adds the operation argument and the ``struct result``
protocol of Table I.

Both calls are simulation processes (drive with ``yield from``).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.engine import Environment
from repro.core.asc import ActiveStorageClient
from repro.mpiio.datatypes import Datatype
from repro.mpiio.result import ResultStruct
from repro.mpiio.status import Status
from repro.pvfs.filehandle import FileHandle


class MPIIOError(Exception):
    """Errors raised by the MPI-IO layer (bad counts, closed files…)."""


class MPIIOContext:
    """One application process's I/O software stack."""

    def __init__(self, env: Environment, asc: ActiveStorageClient) -> None:
        self.env = env
        self.asc = asc

    def open(self, name: str) -> "File":
        """MPI_File_open (read-only; the reproduction has no writes)."""
        handle = self.asc.pvfs.open(name)
        return File(self, handle)


class File:
    """An open file with an individual file pointer."""

    def __init__(self, context: MPIIOContext, handle: FileHandle) -> None:
        self.context = context
        self.handle = handle
        self._position = 0
        self._closed = False

    # -- pointer management ----------------------------------------------------
    def seek(self, offset: int, whence: int = 0) -> None:
        """MPI_File_seek (whence: 0=set, 1=cur, 2=end)."""
        self._ensure_open()
        if whence == 0:
            new = offset
        elif whence == 1:
            new = self._position + offset
        elif whence == 2:
            new = self.handle.size + offset
        else:
            raise MPIIOError(f"bad whence {whence}")
        if not 0 <= new <= self.handle.size:
            raise MPIIOError(f"seek to {new} outside file of size {self.handle.size}")
        self._position = new

    def tell(self) -> int:
        """MPI_File_get_position."""
        return self._position

    def get_size(self) -> int:
        """MPI_File_get_size."""
        return self.handle.size

    def close(self) -> None:
        """MPI_File_close."""
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise MPIIOError("operation on closed file")

    def _extent(self, count: int, datatype: Datatype) -> int:
        nbytes = datatype.extent(count)
        if self._position + nbytes > self.handle.size:
            raise MPIIOError(
                f"read of {nbytes} bytes at {self._position} exceeds file size "
                f"{self.handle.size}"
            )
        return nbytes

    # -- MPI_File_read ------------------------------------------------------------
    def read(self, count: int, datatype: Datatype, status: Optional[Status] = None):
        """Normal read of ``count`` items (simulation process).

        Returns the number of bytes read; fills ``status``.
        """
        self._ensure_open()
        nbytes = self._extent(count, datatype)
        yield from self.context.asc.read(
            self.handle, offset=self._position, size=nbytes
        )
        self._position += nbytes
        if status is not None:
            status.set_elements(nbytes, self.context.env.now)
        return nbytes

    def read_at(self, offset: int, count: int, datatype: Datatype,
                status: Optional[Status] = None):
        """MPI_File_read_at: explicit-offset read, pointer untouched."""
        self._ensure_open()
        nbytes = datatype.extent(count)
        if offset < 0 or offset + nbytes > self.handle.size:
            raise MPIIOError(
                f"read_at extent [{offset}, {offset + nbytes}) outside file"
            )
        yield from self.context.asc.read(self.handle, offset=offset, size=nbytes)
        if status is not None:
            status.set_elements(nbytes, self.context.env.now)
        return nbytes

    # -- MPI_File_read_ex (the DOSAS extension) ---------------------------------------
    def read_ex(
        self,
        result: ResultStruct,
        count: int,
        datatype: Datatype,
        operation: str,
        status: Optional[Status] = None,
        meta: Optional[dict] = None,
    ):
        """Active read of ``count`` items applying ``operation``.

        Signature mirrors the paper's
        ``MPI_File_read_ex(fh, struct result *buf, int count,
        MPI_datatype, char *operation, MPI_Status *status)``.

        The ASC transparently finishes any server-side demotions, so
        by return the struct is always ``completed == 1`` with ``buf``
        holding the (combined) kernel result; the intermediate
        uncompleted state is observable through ``status.demotions``
        and, one level down, as the per-server ``completed == 0``
        replies (``IOReply.demoted``) ``ActiveStorageClient.read_ex``
        finishes.
        """
        self._ensure_open()
        nbytes = self._extent(count, datatype)
        outcome = yield from self.context.asc.read_ex(
            self.handle,
            operation,
            offset=self._position,
            size=nbytes,
            meta=meta,
        )
        self._position += nbytes
        result.mark_completed(outcome.result, self._position)
        if status is not None:
            status.set_elements(
                nbytes, self.context.env.now, demotions=outcome.demotions
            )
        return outcome

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<File {self.handle.name} pos={self._position}>"
