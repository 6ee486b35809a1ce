"""Metadata server: namespace, handles, layouts.

PVFS2 separates metadata from data; DOSAS only needs create/open/
stat/unlink plus the stripe layout lookup, so that is what this server
provides.  Metadata operations are modelled as instantaneous (the
paper's workloads are data-dominated; an optional per-op latency knob
exists for ablations).
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.pvfs.filehandle import FileHandle, PVFSFile, SyntheticData
from repro.pvfs.layout import StripeLayout

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class PVFSError(Exception):
    """File-system level errors (missing files, duplicate creates…)."""


class MetadataServer:
    """The single metadata server of the file system."""

    def __init__(self, n_io_servers: int, default_stripe_size: int) -> None:
        if n_io_servers <= 0:
            raise ValueError("n_io_servers must be positive")
        if default_stripe_size <= 0:
            raise ValueError("default_stripe_size must be positive")
        self.n_io_servers = int(n_io_servers)
        self.default_stripe_size = int(default_stripe_size)
        self._files: Dict[str, PVFSFile] = {}

    # -- namespace ops -------------------------------------------------------
    def create(
        self,
        name: str,
        size: int,
        data: Optional[np.ndarray] = None,
        stripe_size: Optional[int] = None,
        n_servers: Optional[int] = None,
        first_server: int = 0,
        seed: int = 0,
        meta: Optional[dict] = None,
        writable: bool = False,
        n_replicas: int = 1,
    ) -> PVFSFile:
        """Create a file.

        ``data`` attaches real content; otherwise the file gets a
        deterministic synthetic provider so kernels can still compute
        on it.  ``writable=True`` (without ``data``) materialises a
        zero-filled buffer so the file accepts writes — used for
        kernel output files.  ``n_replicas > 1`` declares each byte
        servable by that many servers (chained over the whole
        deployment) — the candidate set hedged reads choose from.
        """
        if name in self._files:
            raise PVFSError(f"file {name!r} already exists")
        if writable and data is None:
            if size % 8:
                raise PVFSError("writable files must be 8-byte sized")
            import numpy as np

            data = np.zeros(size // 8, dtype=np.float64)
        width = min(n_servers or self.n_io_servers, self.n_io_servers)
        if not 0 <= first_server < self.n_io_servers:
            raise PVFSError(
                f"first_server {first_server} out of range for "
                f"{self.n_io_servers} I/O servers"
            )
        layout = StripeLayout(
            stripe_size=stripe_size or self.default_stripe_size,
            n_servers=width,
            server_list=[
                (first_server + j) % self.n_io_servers for j in range(width)
            ],
            n_replicas=n_replicas,
            replica_span=self.n_io_servers,
        )
        if data is not None:
            size = data.nbytes
        file = PVFSFile(
            name=name,
            size=int(size),
            layout=layout,
            data=data,
            synthetic=None if data is not None else SyntheticData(seed),
            meta=dict(meta or {}),
        )
        self._files[name] = file
        return file

    def open(self, name: str) -> FileHandle:
        """Return a fresh handle for an existing file."""
        return FileHandle.for_file(self.lookup(name))

    def lookup(self, name: str) -> PVFSFile:
        """The server-side file object for ``name``."""
        try:
            return self._files[name]
        except KeyError:
            raise PVFSError(f"no such file {name!r}") from None

    def stat(self, name: str) -> dict:
        """Size/layout attributes of ``name``."""
        f = self.lookup(name)
        return {
            "name": f.name,
            "size": f.size,
            "stripe_size": f.layout.stripe_size,
            "n_servers": f.layout.n_servers,
            "has_content": f.has_content,
        }

    def unlink(self, name: str) -> None:
        """Remove ``name`` from the namespace."""
        if name not in self._files:
            raise PVFSError(f"no such file {name!r}")
        del self._files[name]

    def listdir(self) -> list:
        """All file names, sorted."""
        return sorted(self._files)

    def __contains__(self, name: str) -> bool:
        return name in self._files
