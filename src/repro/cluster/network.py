"""Network link models.

The paper's cost model treats the compute↔storage network as a single
shared pipe of bandwidth ``bw`` (g(x) = x / bw, Table II) — when a
storage node returns data for several normal I/Os they serialise on
its NIC.  Two models are provided:

``SerialLink``
    Transfers are served strictly one at a time, FIFO within a
    priority class: small control payloads jump ahead of queued bulk
    data, never the transfer in flight.  This matches the
    g(D_N) = D_N / bw term exactly: n transfers of d bytes take
    n·d/bw total.

``FairShareLink``
    Fluid-flow processor sharing: k concurrent transfers each progress
    at bw/k.  Total completion time for simultaneous equal transfers is
    the same as serial, but individual latencies differ.  Used for
    ablations on the sharing discipline.

Both support deterministic per-transfer bandwidth jitter, reproducing
the 111–120 MB/s variation the paper observed on Discfarm.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.resources import PriorityResource, Resource


class Link:
    """Abstract link interface.

    Subclasses implement :meth:`transfer`, returning an event that
    triggers when ``size`` bytes have crossed the link.
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        jitter: float = 0.0,
        latency: float = 0.0,
        seed: int = 0,
        name: str = "link",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if not 0 <= jitter < 1:
            raise ValueError(f"jitter must lie in [0, 1), got {jitter}")
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.jitter = float(jitter)
        self.latency = float(latency)
        self.name = name
        self._rng = random.Random(seed)
        #: Total bytes ever accepted for transfer.
        self.bytes_transferred = 0.0
        #: Fault state: bandwidth multiplier in (0, 1] and hard cut-off.
        self._derate = 1.0
        self._partitioned = False

    # -- failure hooks (see repro.faults) ------------------------------------
    @property
    def derate_factor(self) -> float:
        """Current degradation factor (1.0 = healthy)."""
        return self._derate

    @property
    def partitioned(self) -> bool:
        """True while the link is cut."""
        return self._partitioned

    def degrade(self, factor: float) -> None:
        """Reduce deliverable bandwidth to ``factor`` × nominal."""
        if not 0 < factor <= 1:
            raise ValueError(f"degrade factor must lie in (0, 1], got {factor}")
        self._apply_rate(float(factor))

    def restore(self) -> None:
        """Return the link to nominal bandwidth."""
        self._apply_rate(1.0)

    def partition(self) -> None:
        """Cut the link: no new data crosses until :meth:`heal`."""
        self._partitioned = True

    def heal(self) -> None:
        """Reconnect a partitioned link."""
        self._partitioned = False

    def _apply_rate(self, factor: float) -> None:
        """Subclass hook — fluid models must re-plan in-flight flows."""
        self._derate = factor

    def effective_bandwidth(self) -> float:
        """Draw this transfer's bandwidth from the jitter envelope."""
        bw = self.bandwidth * self._derate
        if self.jitter == 0.0:
            return bw
        lo = bw * (1 - self.jitter)
        hi = bw * (1 + self.jitter)
        return self._rng.uniform(lo, hi)

    def transfer(self, size: float, priority: int = 1) -> Event:
        """Begin moving ``size`` bytes; the event triggers on arrival.

        ``priority`` orders queued transfers on disciplines that queue
        (lower = sooner).  Bulk data uses the default; small control
        payloads — kernel results, checkpoints — pass ``0`` so a 4 KB
        ack does not wait behind gigabytes of bulk traffic (real
        messaging layers do the same)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} bw={self.bandwidth:.3g} B/s>"


class SerialLink(Link):
    """Serialising link: one transfer at a time at full bandwidth.

    Queued transfers are served in (priority, arrival) order — FIFO
    within a priority class, which is the paper's g(x) = x/bw model
    for bulk data with small control messages allowed to jump ahead.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Naming the pipe makes NIC queueing visible as slot-wait
        # spans in trace exports.
        self._pipe = PriorityResource(
            self.env, capacity=1, name=f"{self.name}.pipe" if self.name else ""
        )

    @property
    def active_transfers(self) -> int:
        """Transfers in flight or queued."""
        return self._pipe.count + self._pipe.queue_length

    def partition(self) -> None:
        """Cut the link: the in-flight transfer drains, queued ones wait."""
        if not self._partitioned:
            self._partitioned = True
            self._pipe.suspend()

    def heal(self) -> None:
        if self._partitioned:
            self._partitioned = False
            self._pipe.resume_service()

    def transfer(self, size: float, priority: int = 1) -> Event:
        if size < 0:
            raise ValueError(f"negative transfer size {size}")
        return _Transfer(self, size, priority)


class _Transfer(Event):
    """One transfer on a :class:`SerialLink`; triggers on arrival.

    Advanced by callbacks, not a process: the pipe grant draws the
    bandwidth and arms the timeout, whose firing releases the pipe and
    succeeds this event — the same grants, draws and pushes, in the
    same order, as a process walking those steps.  The rate is fixed
    at grant, so a later :meth:`Link.degrade` only slows transfers
    granted after it.
    """

    __slots__ = ("link", "size", "grant")

    def __init__(self, link: SerialLink, size: float, priority: int) -> None:
        super().__init__(link.env)
        self.link = link
        self.size = size
        self.grant = link._pipe.request(priority=priority)
        self.grant.callbacks.append(self._granted)

    def _granted(self, _grant: Event) -> None:
        link = self.link
        delay = link.latency + self.size / link.effective_bandwidth()
        link.env.timeout(delay).callbacks.append(self._landed)

    def _landed(self, _timeout: Event) -> None:
        link = self.link
        link.bytes_transferred += self.size
        self.grant.cancel()
        self.succeed(self.size)


class _Flow:
    """One in-flight transfer on a :class:`FairShareLink`."""

    __slots__ = ("remaining", "done", "scale")

    def __init__(self, size: float, done: Event, scale: float) -> None:
        self.remaining = float(size)
        self.done = done
        #: Per-flow bandwidth multiplier from jitter.
        self.scale = scale


class FairShareLink(Link):
    """Fluid processor-sharing link.

    With k active flows each receives ``bandwidth·scale/k``.  The
    implementation keeps per-flow remaining byte counts, advances them
    lazily on every arrival/departure, and maintains a single "next
    completion" wake-up process.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._flows: List[_Flow] = []
        self._last_update = self.env.now
        #: Generation counter: wake-ups armed for an outdated flow set
        #: are ignored when they fire.
        self._generation = 0

    @property
    def active_transfers(self) -> int:
        """Number of flows currently sharing the link."""
        return len(self._flows)

    def transfer(self, size: float, priority: int = 1) -> Event:
        # A fluid fair-share link serves everyone simultaneously, so
        # priority is irrelevant here (accepted for interface parity).
        if size < 0:
            raise ValueError(f"negative transfer size {size}")
        done = self.env.event()
        if size == 0 and self.latency == 0:
            done.succeed(0.0)
            return done
        if self.latency > 0:
            self.env.process(self._latent_start(size, done))
        else:
            self._start_flow(size, done)
        return done

    def _latent_start(self, size: float, done: Event):
        yield self.env.timeout(self.latency)
        self._start_flow(size, done)

    def _start_flow(self, size: float, done: Event) -> None:
        if size == 0:
            done.succeed(0.0)
            return
        self._advance()
        flow = _Flow(size, done, self.effective_bandwidth() / self.bandwidth)
        self._flows.append(flow)
        self._reschedule()

    # -- failure hooks -------------------------------------------------------
    def partition(self) -> None:
        """Freeze every flow: progress stops, nothing completes."""
        if self._partitioned:
            return
        self._advance()  # credit progress up to the cut at the old rate
        self._partitioned = True
        self._reschedule()  # bump generation → disarm pending wake-ups

    def heal(self) -> None:
        if not self._partitioned:
            return
        self._advance()  # zero-rate interval: only moves _last_update
        self._partitioned = False
        self._reschedule()

    def _apply_rate(self, factor: float) -> None:
        self._advance()  # old rate applies up to now
        self._derate = factor
        self._reschedule()

    # -- fluid bookkeeping ---------------------------------------------------
    def _per_flow_rate(self, flow: _Flow) -> float:
        if self._partitioned:
            return 0.0
        return self.bandwidth * self._derate * flow.scale / len(self._flows)

    def _advance(self) -> None:
        """Drain bytes for the time elapsed since the last update.

        A flow completes when under a nanobyte remains, or when the
        time left to drain it no longer advances the clock
        (``now + eta == now``): re-arming a wake-up for it would fire
        at ``now`` again, forever.
        """
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if not self._flows:
            return
        finished: List[_Flow] = []
        for flow in self._flows:
            rate = self._per_flow_rate(flow)
            if dt > 0:
                moved = rate * dt
                flow.remaining -= moved
                self.bytes_transferred += min(moved, moved + flow.remaining)
            if flow.remaining <= 1e-9 or (
                rate > 0 and now + flow.remaining / rate == now
            ):
                finished.append(flow)
        for flow in finished:
            self._flows.remove(flow)
            flow.done.succeed()

    def _reschedule(self) -> None:
        """(Re)arm the wake-up for the earliest flow completion.

        Every call bumps the generation; a wake-up armed under an older
        generation is a no-op when it fires, which disarms superseded
        timers without cancellation support in the engine.
        """
        self._generation += 1
        if not self._flows or self._partitioned:
            return
        generation = self._generation
        eta = min(f.remaining / self._per_flow_rate(f) for f in self._flows)
        wakeup = self.env.timeout(eta)

        def _on_wakeup(_event: Event, _gen: int = generation) -> None:
            if _gen != self._generation:
                return
            self._advance()
            self._reschedule()

        wakeup.callbacks.append(_on_wakeup)
