"""File objects and handles.

A :class:`PVFSFile` is the server-side object: name, size, stripe
layout, and an optional data provider.  A :class:`FileHandle` is the
client-side capability returned by the metadata server (the ``fh`` the
paper's ``struct result`` carries so a demoted I/O can be completed
client-side).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np
    import numpy.typing as npt


class SyntheticData:
    """Deterministic pseudo-data provider for size-only files.

    Generates reproducible float64 content for any byte extent without
    materialising the whole file, so correctness checks work even on
    simulated multi-gigabyte files.  Byte extents must be 8-byte
    aligned when read as floats.

    The file is conceptually split into fixed element blocks; block j
    is generated with a counter-based Philox generator keyed on
    ``(seed, j)``, so any extent reads identically regardless of how
    it is chunked — a property the test suite checks (prefix+suffix
    reads must equal one whole read).
    """

    ITEMSIZE = 8
    BLOCK_ELEMS = 4096

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def _block(self, index: int) -> np.ndarray:
        import numpy as np

        rng = np.random.Generator(
            np.random.Philox(key=(self.seed << 32) ^ index)
        )
        return rng.random(self.BLOCK_ELEMS, dtype=np.float64)

    def read(self, offset: int, size: int) -> np.ndarray:
        """float64 elements for bytes ``[offset, offset+size)``."""
        import numpy as np

        if offset % self.ITEMSIZE or size % self.ITEMSIZE:
            raise ValueError("synthetic reads must be 8-byte aligned")
        start = offset // self.ITEMSIZE
        count = size // self.ITEMSIZE
        if count == 0:
            return np.empty(0, dtype=np.float64)
        first_block = start // self.BLOCK_ELEMS
        last_block = (start + count - 1) // self.BLOCK_ELEMS
        parts = [self._block(j) for j in range(first_block, last_block + 1)]
        data = np.concatenate(parts) if len(parts) > 1 else parts[0]
        lo = start - first_block * self.BLOCK_ELEMS
        return data[lo : lo + count].copy()


@dataclass
class PVFSFile:
    """Server-side file object.

    Attributes
    ----------
    name:
        Path-like identifier.
    size:
        Logical size in bytes.
    layout:
        Stripe distribution.
    data:
        Backing numpy array (float64/uint8) when the file carries real
        content, else ``None`` for size-only files.
    synthetic:
        Deterministic provider used when ``data`` is None and a kernel
        actually needs bytes.
    meta:
        Free-form attributes (e.g. image width for 2-D kernels).
    """

    name: str
    size: int
    layout: "StripeLayout"
    data: Optional[np.ndarray] = None
    synthetic: Optional[SyntheticData] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative file size {self.size}")
        if self.data is not None and self.data.nbytes != self.size:
            raise ValueError(
                f"data has {self.data.nbytes} bytes but size says {self.size}"
            )

    def read_bytes_as_array(
        self, offset: int, size: int, dtype: npt.DTypeLike = "float64"
    ) -> np.ndarray:
        """Materialise the extent ``[offset, offset+size)`` as an array."""
        import numpy as np

        if offset < 0 or size < 0 or offset + size > self.size:
            raise ValueError(
                f"extent [{offset}, {offset + size}) outside file of size {self.size}"
            )
        if self.data is not None:
            flat = self.data.reshape(-1).view(np.uint8)
            return flat[offset : offset + size].view(dtype).copy()
        if self.synthetic is not None:
            arr = self.synthetic.read(offset, size)
            return arr.view(dtype) if np.dtype(dtype) != np.float64 else arr
        raise ValueError(f"file {self.name!r} is size-only and has no provider")

    def write_bytes_from_array(self, offset: int, array: np.ndarray) -> int:
        """Store ``array``'s bytes at ``offset``; returns bytes written.

        Only content-backed (writable) files accept writes — a
        synthetic provider is immutable by construction.
        """
        import numpy as np

        payload = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
        if offset < 0 or offset + payload.size > self.size:
            raise ValueError(
                f"write [{offset}, {offset + payload.size}) outside file "
                f"of size {self.size}"
            )
        if self.data is None:
            raise ValueError(
                f"file {self.name!r} is not writable (no content buffer)"
            )
        flat = self.data.reshape(-1).view(np.uint8)
        flat[offset : offset + payload.size] = payload
        return int(payload.size)

    @property
    def has_content(self) -> bool:
        """True when real or synthetic bytes are available."""
        return self.data is not None or self.synthetic is not None

    @property
    def writable(self) -> bool:
        """True when the file accepts writes."""
        return self.data is not None


# FileHandle ids are global so every client/server pair agrees.
_handle_counter = itertools.count(1)


@dataclass(frozen=True)
class FileHandle:
    """Client-side capability for an open file."""

    handle_id: int
    name: str
    size: int
    layout: "StripeLayout"
    meta: tuple = ()

    @staticmethod
    def for_file(file: PVFSFile) -> "FileHandle":
        """Mint a fresh handle for ``file``."""
        return FileHandle(
            handle_id=next(_handle_counter),
            name=file.name,
            size=file.size,
            layout=file.layout,
            meta=tuple(sorted(file.meta.items())),
        )

    def kernel_meta(
        self, extra: Optional[Mapping[str, object]] = None
    ) -> Optional[Dict[str, object]]:
        """The metadata a kernel starts from, or None when there is none.

        The file attributes (e.g. image width) overlaid with ``extra``,
        a request's own metadata, whose entries win.
        """
        meta: Dict[str, object] = dict(self.meta)
        if extra:
            meta.update(extra)
        return meta or None


from repro.pvfs.layout import StripeLayout  # noqa: E402  (dataclass forward ref)
