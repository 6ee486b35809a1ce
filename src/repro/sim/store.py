"""Object stores — the building block for request queues.

``Store`` is an unbounded-or-bounded FIFO of arbitrary Python objects
with blocking ``put``/``get``.  The Active I/O Runtime queues the active
requests a storage node accepted in one: its kernel executor drains
them in arrival order, and a policy refresh revokes a queued request
with ``remove``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class StorePut(Event):
    """Pending insertion of ``item`` into a store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._trigger()


class StoreGet(Event):
    """Pending removal of one item from a store."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store
        store._get_waiters.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw this get if it has not been satisfied yet.

        A triggered get already consumed an item; cancelling then is a
        no-op so teardown code can cancel unconditionally.
        """
        if self in self.store._get_waiters:
            self.store._get_waiters.remove(self)


class Store:
    """FIFO object store with optional capacity bound."""

    __slots__ = ("env", "_capacity", "items", "_put_waiters", "_get_waiters")

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.items: List[Any] = []
        # Deques: waiter backlogs drain from the head on every put/get,
        # and list.pop(0) would make a long pipeline quadratic.
        self._put_waiters: Deque[StorePut] = deque()
        self._get_waiters: Deque[StoreGet] = deque()

    @property
    def capacity(self) -> float:
        """Maximum number of stored items."""
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item`` (blocks while the store is full)."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove and return the next item (blocks while empty)."""
        return StoreGet(self)

    def remove(self, item: Any) -> bool:
        """Withdraw one occurrence of ``item`` without a get (tombstone).

        Lets an owner revoke a queued item — the Active I/O Runtime
        demotes queued requests this way, and failure paths drop work
        the same way, instead of reaching into :attr:`items` directly.
        Returns True if the item was present; a blocked put that now
        fits is admitted.
        """
        try:
            self.items.remove(item)
        except ValueError:
            return False
        self._trigger()
        return True

    # -- internals ---------------------------------------------------------
    def _trigger(self) -> None:
        """Admit blocked puts while there is room, then serve gets."""
        items, puts, gets = self.items, self._put_waiters, self._get_waiters
        progressed = True
        while progressed:
            progressed = False
            while puts and len(items) < self._capacity:
                put = puts.popleft()
                items.append(put.item)
                put.succeed()
                progressed = True
            while gets and items:
                gets.popleft().succeed(items.pop(0))
                progressed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} items={len(self.items)}>"
