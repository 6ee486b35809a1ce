"""Client-side per-server latency estimation.

One :class:`LatencyBoard` is shared by every Active Storage Client in
a run — each individual client issues too few requests to learn
anything, but together they see every server's recent behaviour.  The
board keeps, per server, an EWMA *score* (cheap, smooth, used for
candidate ordering) and a :class:`~repro.obs.metrics.WindowedHistogram`
(used for quantile readouts), plus one global windowed histogram that
drives the adaptive hedge delay.

All inputs come from the request lifecycle the clients already
observe — submit and reply times in simulated seconds — so the board
adds no new instrumentation to the servers and stays a purely
client-side construct, as in the straggler-aware scheduler of
Tavakoli/Dai/Chen (arXiv:1805.06156).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import WindowedHistogram
from repro.straggler.config import StragglerConfig

__all__ = ["LatencyTracker", "LatencyBoard"]


class LatencyTracker:
    """One server's latency estimate, as seen from the client side."""

    __slots__ = ("ewma", "hist", "_alpha")

    def __init__(self, server: int, config: StragglerConfig) -> None:
        #: Smoothed latency score; 0.0 until the first observation —
        #: optimistic initialisation, so unobserved servers get tried.
        self.ewma = 0.0
        self.hist = WindowedHistogram(f"latency.server{server}", config.window)
        self._alpha = config.ewma_alpha

    def observe(self, latency: float) -> None:
        if self.hist.count == 0:
            self.ewma = latency
        else:
            self.ewma = self._alpha * latency + (1 - self._alpha) * self.ewma
        self.hist.observe(latency)


class LatencyBoard:
    """Per-server latency trackers shared across a run's clients."""

    __slots__ = ("config", "trackers", "overall", "inflight", "_hedge_delay")

    def __init__(self, config: StragglerConfig) -> None:
        self.config = config
        self.trackers: Dict[int, LatencyTracker] = {}
        #: Every observation regardless of server — the hedge-delay
        #: reference distribution.
        self.overall = WindowedHistogram("latency.overall", config.window)
        #: Outstanding submissions per server, across all clients.  A
        #: queue-depth signal reacts instantly where the EWMA lags a
        #: full request, so the dispatcher uses it as the *primary*
        #: routing key (least-outstanding-requests, latency as the
        #: tie-break).
        self.inflight: Dict[int, int] = {}
        #: :meth:`hedge_delay` until the next :meth:`observe` (None:
        #: not computed since).
        self._hedge_delay: Optional[float] = None

    def tracker(self, server: int) -> LatencyTracker:
        t = self.trackers.get(server)
        if t is None:
            t = self.trackers[server] = LatencyTracker(server, self.config)
        return t

    def observe(self, server: int, latency: float) -> None:
        """Record one completed (or abandoned-at-timeout) request."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self.tracker(server).observe(latency)
        self.overall.observe(latency)
        self._hedge_delay = None

    def score(self, server: int) -> float:
        """EWMA latency for ordering candidates (lower is better)."""
        t = self.trackers.get(server)
        return t.ewma if t is not None else 0.0

    def note_submit(self, server: int) -> None:
        """A request went out to ``server`` (primary or hedge)."""
        self.inflight[server] = self.inflight.get(server, 0) + 1

    def note_settle(self, server: int) -> None:
        """A submission to ``server`` settled (won, lost, or timed out)."""
        left = self.inflight.get(server, 0) - 1
        if left < 0:
            raise ValueError(f"settle without submit for server {server}")
        self.inflight[server] = left

    def inflight_of(self, server: int) -> int:
        """Outstanding submissions to ``server`` right now."""
        return self.inflight.get(server, 0)

    def hedge_delay(self) -> float:
        """How long to wait on the primary before issuing a backup.

        The ``hedge_quantile`` (default p95) of recent latencies across
        all servers, floored at ``hedge_delay_floor``; until
        ``min_samples`` observations exist the floor stands alone.
        Only :meth:`observe` changes it, so the value is kept until the
        next observation instead of re-sorting the window on each read.
        """
        delay = self._hedge_delay
        if delay is None:
            cfg = self.config
            delay = cfg.hedge_delay_floor
            if len(self.overall) >= cfg.min_samples:
                delay = max(delay, self.overall.percentile(cfg.hedge_quantile))
            self._hedge_delay = delay
        return delay

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic summary for reports."""
        return {
            "overall": self.overall.snapshot(),
            "servers": {
                str(i): {
                    "ewma": self.trackers[i].ewma,
                    **self.trackers[i].hist.snapshot(),
                }
                for i in sorted(self.trackers)
            },
        }
