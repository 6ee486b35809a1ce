"""The straggler-aware dispatcher: candidate ordering and hedge policy.

One :class:`StragglerDispatcher` is shared by every Active Storage
Client in a run (like the :class:`~repro.straggler.latency.LatencyBoard`
it consults).  It decides, per request attempt:

*where to send the primary* — power-of-two-choices over the replica
candidate set, scored by the board's EWMA latency, with two overrides:
an **open circuit breaker** excludes a server from the candidate set
outright (composing with the PR 5 breaker board — read-only
:meth:`~repro.qos.breaker.CircuitBreaker.blocked`, so no probe slots
are consumed here), and **deadline pressure** (remaining slack below
``deadline_slack_factor`` hedge-delays) switches to greedy best-first
ordering, because a deadline-critical request cannot afford the
exploration that P2C buys;

*when to hedge* — after the board's adaptive delay (recent p95,
floored), and only while the hedge budget holds:
``hedges_issued < hedge_max_ratio × primary submits``, so a cold or
degraded board cannot amplify load, in the spirit of
"The Tail at Scale" hedging and PADLL's dynamic (not statically
configured) control.

The dispatcher's only randomness is one ``random.Random(seed)``; the
simulation is single-threaded, so the shared-rng call order — and with
it every placement decision — is deterministic per seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.qos.breaker import BreakerBoard
from repro.straggler.config import StragglerConfig
from repro.straggler.latency import LatencyBoard

__all__ = ["StragglerDispatcher"]


class StragglerDispatcher:
    """Orders replica candidates and meters hedged requests."""

    __slots__ = ("board", "config", "rng", "stats")

    def __init__(self, board: LatencyBoard, seed: int = 0) -> None:
        self.board = board
        self.config: StragglerConfig = board.config
        self.rng = random.Random(seed)
        self.stats: Dict[str, int] = {
            "primary_submits": 0,
            "p2c_picks": 0,
            "deadline_overrides": 0,
            "hedges_issued": 0,
            "hedges_denied_budget": 0,
        }

    # -- candidate ordering ---------------------------------------------------
    def order(
        self,
        candidates: Sequence[int],
        now: float,
        breakers: Optional[BreakerBoard] = None,
        deadline: Optional[float] = None,
    ) -> List[int]:
        """Rank ``candidates`` best-first: ``[primary, backup, ...]``.

        Servers whose breaker is open (still cooling down) are excluded
        unless that would empty the set — with nowhere healthy to go,
        the original candidates stand and the submit-time ``allow``
        call arbitrates.
        """
        if not candidates:
            raise ValueError("need at least one candidate server")
        board = self.board
        eligible = [
            c
            for c in candidates
            if breakers is None or not breakers.for_server(c).blocked(now)
        ]
        if not eligible:
            eligible = list(candidates)
        # Queue depth leads, latency breaks ties: in-flight counts
        # react the moment a request is submitted, where the EWMA lags
        # a full request behind.  Final ties break by *candidate
        # position* (primary first), so a cold board routes exactly
        # like the classic layout path instead of herding onto
        # low-numbered servers.  Candidates are distinct servers, so
        # the position decides every tie and the server never compares.
        inflight = board.inflight
        trackers = board.trackers
        keys = [
            (
                inflight.get(c, 0),
                trackers[c].ewma if c in trackers else 0.0,
                candidates.index(c),
                c,
            )
            for c in eligible
        ]
        keys.sort()
        ranked = [key[3] for key in keys]
        if len(ranked) <= 1:
            return ranked
        if deadline is not None:
            slack = deadline - now
            if slack < self.config.deadline_slack_factor * board.hedge_delay():
                self.stats["deadline_overrides"] += 1
                return ranked
        primary = candidates[0]
        if primary not in eligible:
            # Layout primary is breaker-blocked: full reroute.
            return ranked
        # Power of two choices with primary stickiness: compare the
        # layout primary against one sampled alternative.  The
        # alternative takes over when it is strictly less loaded, or
        # equally loaded with a clear (``reroute_ratio``) latency edge
        # — plain argmin flips on noise and un-balances the NICs.
        # ``rng.choice`` picks by index, so ``alts`` keeps candidate
        # order, not rank order.
        alts = [c for c in eligible if c != primary]
        alt = alts[0] if len(alts) == 1 else self.rng.choice(alts)
        alt_load = inflight.get(alt, 0)
        primary_load = inflight.get(primary, 0)
        lead = primary
        if alt_load < primary_load or (
            alt_load == primary_load
            and board.score(alt) * self.config.reroute_ratio < board.score(primary)
        ):
            lead = alt
            self.stats["p2c_picks"] += 1
        return [lead] + [c for c in ranked if c != lead]

    # -- hedge policy ---------------------------------------------------------
    def note_primary(self) -> None:
        """Record a primary submission (the hedge budget's denominator)."""
        self.stats["primary_submits"] += 1

    def hedge_delay(self) -> float:
        """Seconds to wait on the primary before issuing a backup."""
        return self.board.hedge_delay()

    def try_hedge(self) -> bool:
        """Consume one hedge from the budget, or refuse.

        Called when the hedge timer fires; the budget caps total hedge
        volume at ``hedge_max_ratio`` of primary submissions.
        """
        allowed = (
            self.stats["hedges_issued"]
            < self.config.hedge_max_ratio * self.stats["primary_submits"]
        )
        if allowed:
            self.stats["hedges_issued"] += 1
        else:
            self.stats["hedges_denied_budget"] += 1
        return allowed

    def observe(self, server: int, latency: float) -> None:
        """Feed one request-lifecycle latency back into the board."""
        self.board.observe(server, latency)
