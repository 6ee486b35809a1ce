"""Scheduling policies — the CE→Runtime contract.

Paper Sec. III-A: the Contention Estimator "is also in charge of
generating the scheduling policy for active I/O requests and sending
its decision, in the form of a scheduling policy, to the R component.
The R then serves the I/O requests according to the scheduling policy
it receives from the CE."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cluster.probe import SystemProbe


class Decision(enum.Enum):
    """Per-request verdict."""

    ACTIVE = "active"    # execute the kernel on the storage node
    NORMAL = "normal"    # demote: serve as a normal read


@dataclass(slots=True)
class SchedulingPolicy:
    """A CE decision covering the active requests seen at probe time.

    Slotted like :class:`~repro.cluster.probe.SystemProbe`: every
    evaluation builds one.

    Attributes
    ----------
    generated_at:
        Simulation time the policy was produced.
    decisions:
        rid → verdict for every active request the CE examined.
    default:
        Verdict for requests that arrive before the next policy
        refresh (the paper's "new arrival" rule: when the node is
        overloaded they are immediately demoted).
    interrupt_running:
        True when the CE wants currently-executing kernels preempted
        and migrated ("the R will record and interrupt current active
        I/O being serviced").
    probe:
        The system snapshot the policy was derived from (for tracing
        and the accuracy table).
    objective_value:
        The solver's predicted completion time t (Eq. 4).
    """

    generated_at: float
    decisions: Dict[int, Decision] = field(default_factory=dict)
    default: Decision = Decision.ACTIVE
    interrupt_running: bool = False
    probe: Optional[SystemProbe] = None
    objective_value: float = 0.0

    def decision_for(self, rid: int) -> Decision:
        """Verdict for request ``rid`` (falls back to ``default``)."""
        return self.decisions.get(rid, self.default)

    @property
    def n_active(self) -> int:
        """Requests the policy keeps active."""
        return sum(1 for d in self.decisions.values() if d is Decision.ACTIVE)

    @property
    def n_demoted(self) -> int:
        """Requests the policy demotes."""
        return sum(1 for d in self.decisions.values() if d is Decision.NORMAL)

    @property
    def rejects_all(self) -> bool:
        """True when every examined request was demoted."""
        return bool(self.decisions) and self.n_active == 0

    @staticmethod
    def static(decision: Decision, now: float = 0.0) -> "SchedulingPolicy":
        """A constant policy (AS = always ACTIVE, TS = always NORMAL)."""
        return SchedulingPolicy(generated_at=now, default=decision)
