"""Per-server circuit breakers for the Active Storage Client.

A breaker watches one client→server path.  Consecutive failures
(crash, timeout, overload rejection) trip it open; while open the
client routes around the node — active work is demoted to local
compute immediately instead of hammering a sick server.  After a
cooldown the breaker goes half-open and admits exactly one probe
request; the probe's outcome closes the breaker or re-opens it for
another cooldown.

Time comes in through method arguments (simulated seconds), never from
a wall clock, so breaker behaviour is exactly reproducible.
"""

from __future__ import annotations

import enum
from typing import Dict


class BreakerState(enum.Enum):
    """The classic three-state breaker machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """One client→server path's breaker."""

    __slots__ = ("threshold", "cooldown", "state", "failures", "trips",
                 "_opened_at", "_probe_in_flight")

    def __init__(self, threshold: int = 3, cooldown: float = 1.0) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        #: Consecutive failures while closed.
        self.failures = 0
        #: Times the breaker transitioned closed/half-open → open.
        self.trips = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    def allow(self, now: float) -> bool:
        """May the client send a request at ``now``?

        Open breakers start admitting again after the cooldown, but
        only one probe at a time: the first ``allow`` moves to
        half-open and grants the probe; further calls are refused until
        :meth:`on_success` / :meth:`on_failure` settles it or
        :meth:`release_probe` hands it back.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.cooldown:
                self.state = BreakerState.HALF_OPEN
                self._probe_in_flight = True
                return True
            return False
        # HALF_OPEN: one probe in flight at a time.
        if not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        return False

    def blocked(self, now: float) -> bool:
        """Is this path routed around at ``now``?  Read-only.

        Unlike :meth:`allow`, this never grants a half-open probe (no
        state change), so candidate-set filtering in the straggler
        dispatcher can consult every breaker without consuming probe
        slots.  A cooled-down open breaker reads as *not* blocked —
        the path is eligible again and the actual :meth:`allow` call
        at submit time arbitrates the probe.
        """
        return (
            self.state is BreakerState.OPEN
            and now - self._opened_at < self.cooldown
        )

    def on_success(self, now: float) -> None:
        """A request on this path completed — close and reset."""
        self.state = BreakerState.CLOSED
        self.failures = 0
        self._probe_in_flight = False

    def release_probe(self) -> None:
        """Hand back a granted half-open probe without settling it.

        For an attempt that answered neither way: a hedge won, so the
        primary was slow, not sick.  The breaker stays half-open and
        the next :meth:`allow` grants a fresh probe; in any other
        state this does nothing.
        """
        if self.state is BreakerState.HALF_OPEN:
            self._probe_in_flight = False

    def on_failure(self, now: float) -> None:
        """A request on this path crashed, timed out, or was rejected."""
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
        elif self.state is BreakerState.CLOSED:
            self.failures += 1
            if self.failures >= self.threshold:
                self._trip(now)
        # OPEN: a straggling failure from before the trip — nothing new.

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.trips += 1
        self.failures = 0
        self._opened_at = now
        self._probe_in_flight = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CircuitBreaker {self.state.value} failures={self.failures}>"


class BreakerBoard:
    """One client's set of per-server breakers, created on demand."""

    __slots__ = ("threshold", "cooldown", "breakers")

    def __init__(self, threshold: int = 3, cooldown: float = 1.0) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.breakers: Dict[int, CircuitBreaker] = {}

    def for_server(self, index: int) -> CircuitBreaker:
        """The breaker guarding server ``index`` (created on first use)."""
        breaker = self.breakers.get(index)
        if breaker is None:
            breaker = self.breakers[index] = CircuitBreaker(
                threshold=self.threshold, cooldown=self.cooldown
            )
        return breaker

    def trips(self) -> int:
        """Total trips across every path."""
        return sum(b.trips for b in self.breakers.values())
