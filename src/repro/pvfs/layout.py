"""Round-robin stripe layout (PVFS "simple striping" distribution).

A file is chopped into ``stripe_size`` units dealt round-robin across
``n_servers`` I/O servers starting at ``first_server``.  The layout
maps any byte extent to per-server extents and back — the round-trip
is property-tested (no byte lost, none duplicated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class StripeExtent:
    """A contiguous piece of one logical extent on one server.

    Attributes
    ----------
    server:
        I/O server index in [0, n_servers).
    logical_offset:
        Offset of this piece within the file.
    length:
        Bytes in this piece.
    """

    server: int
    logical_offset: int
    length: int

    @property
    def logical_end(self) -> int:
        """One past the last byte of the piece."""
        return self.logical_offset + self.length


class StripeLayout:
    """Round-robin distribution of file bytes over I/O servers.

    Parameters
    ----------
    stripe_size:
        Striping unit in bytes.
    n_servers:
        Stripe width — how many servers the file spreads over.
    first_server:
        Which *slot* holds stripe 0 (rotation within the width).
    server_list:
        Global I/O-server indices backing the width's slots; defaults
        to ``0..n_servers-1``.  Lets a narrow file (width 1 or 2) live
        on any subset of a larger deployment — PVFS's datafile
        handle list.
    n_replicas:
        How many servers can serve any given byte (1 = unreplicated).
        Replica ``k`` of an offset whose primary is global server ``p``
        lives on global server ``(p + k) % replica_span`` — chained
        declustering over the deployment, so consecutive replicas land
        on distinct nodes.
    replica_span:
        Deployment size the replica chain wraps over; defaults to
        ``max(server_list) + 1``.
    """

    def __init__(
        self,
        stripe_size: int,
        n_servers: int,
        first_server: int = 0,
        server_list: Optional[Sequence[int]] = None,
        n_replicas: int = 1,
        replica_span: int | None = None,
    ) -> None:
        if stripe_size <= 0:
            raise ValueError(f"stripe_size must be positive, got {stripe_size}")
        if n_servers <= 0:
            raise ValueError(f"n_servers must be positive, got {n_servers}")
        if not 0 <= first_server < n_servers:
            raise ValueError("first_server out of range")
        self.stripe_size = int(stripe_size)
        self.n_servers = int(n_servers)
        self.first_server = int(first_server)
        if server_list is None:
            self.server_list = tuple(range(n_servers))
        else:
            self.server_list = tuple(int(s) for s in server_list)
            if len(self.server_list) != n_servers:
                raise ValueError(
                    f"server_list has {len(self.server_list)} entries for "
                    f"width {n_servers}"
                )
            if any(s < 0 for s in self.server_list):
                raise ValueError("server indices must be non-negative")
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        self.replica_span = (
            max(self.server_list) + 1 if replica_span is None else int(replica_span)
        )
        if self.replica_span < 1:
            raise ValueError("replica_span must be >= 1")
        if max(self.server_list) >= self.replica_span:
            raise ValueError("server_list exceeds replica_span")
        # A chain longer than the deployment would wrap onto itself.
        self.n_replicas = min(int(n_replicas), self.replica_span)

    def server_of(self, offset: int) -> int:
        """The global server index holding the byte at ``offset``."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        stripe_index = offset // self.stripe_size
        slot = (self.first_server + stripe_index) % self.n_servers
        return self.server_list[slot]

    def replicas_of(self, offset: int) -> List[int]:
        """Every global server able to serve ``offset``, primary first.

        Replicas follow the chained-declustering rule documented on the
        constructor; the list is deduplicated (a tiny deployment may
        wrap) and ordered primary, then successive replicas — the
        *candidate set* the straggler-aware dispatcher reorders.
        """
        primary = self.server_of(offset)
        out: List[int] = []
        for k in range(self.n_replicas):
            server = (primary + k) % self.replica_span
            if server not in out:
                out.append(server)
        return out

    def map_extent(self, offset: int, size: int) -> List[StripeExtent]:
        """Split ``[offset, offset+size)`` into per-stripe pieces.

        Pieces come back in logical-offset order, one per stripe or
        stripe fragment; adjacent same-server pieces are *not* merged.
        :meth:`extents_by_server` is the coalesced view requests carry.
        """
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if size < 0:
            raise ValueError(f"negative size {size}")
        pieces: List[StripeExtent] = []
        position = offset
        end = offset + size
        while position < end:
            stripe_index = position // self.stripe_size
            stripe_end = (stripe_index + 1) * self.stripe_size
            length = min(end, stripe_end) - position
            pieces.append(
                StripeExtent(
                    server=self.server_of(position),
                    logical_offset=position,
                    length=length,
                )
            )
            position += length
        return pieces

    def extents_by_server(
        self, offset: int, size: int
    ) -> Dict[int, List[Tuple[int, int]]]:
        """The extent's maximal contiguous runs, grouped per server.

        Each server's runs come as ``(logical_offset, length)`` pairs
        in logical order: :meth:`map_extent`'s pieces with adjacent
        same-server pieces coalesced, computed without a
        :class:`StripeExtent` or a :meth:`server_of` call per stripe.
        A width-1 file's extent is one run, whatever its length.
        """
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if size < 0:
            raise ValueError(f"negative size {size}")
        end = offset + size
        index = offset // self.stripe_size
        if self.n_servers == 1 or end <= (index + 1) * self.stripe_size:
            # One server or one stripe: the whole extent is one run.
            if not size:
                return {}
            slot = (self.first_server + index) % self.n_servers
            return {self.server_list[slot]: [(offset, size)]}
        out: Dict[int, List[Tuple[int, int]]] = {}
        position = offset
        while position < end:
            stop = min(end, (index + 1) * self.stripe_size)
            slot = (self.first_server + index) % self.n_servers
            runs = out.setdefault(self.server_list[slot], [])
            if runs and runs[-1][0] + runs[-1][1] == position:
                runs[-1] = (runs[-1][0], stop - runs[-1][0])
            else:
                runs.append((position, stop - position))
            position = stop
            index += 1
        return out

    def bytes_per_server(self, offset: int, size: int) -> Dict[int, int]:
        """Total bytes of the extent resident on each server."""
        return {
            server: sum(length for _offset, length in pieces)
            for server, pieces in self.extents_by_server(offset, size).items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<StripeLayout stripe={self.stripe_size} servers={self.n_servers} "
            f"first={self.first_server}>"
        )
