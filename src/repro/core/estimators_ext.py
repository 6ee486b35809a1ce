"""Extended Contention Estimator (paper future-work direction).

The baseline :class:`~repro.core.estimator.DOSASEstimator` decides
from the instantaneous probe.  ``HysteresisDOSASEstimator`` requires
the solver's verdict for a request to persist across ``confirmations``
consecutive evaluations before a *reversal* is enforced.  It prevents
policy flapping — repeated interrupt/migrate cycles that each pay
checkpoint and re-read costs — under arrival patterns that hover near
the crossover.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.estimator import DOSASEstimator
from repro.core.policy import Decision, SchedulingPolicy
from repro.pvfs.requests import IORequest


class HysteresisDOSASEstimator(DOSASEstimator):
    """Verdict reversals must be confirmed before they are enforced.

    A request's very first verdict applies immediately (nothing to
    flap against); subsequent *changes* only take effect after the
    solver has produced the new verdict ``confirmations`` times in a
    row.
    """

    def __init__(self, *args: Any, confirmations: int = 2, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if confirmations < 1:
            raise ValueError("confirmations must be >= 1")
        self.confirmations = int(confirmations)
        #: rid → (currently enforced verdict, candidate verdict, streak).
        self._state: Dict[
            int, Tuple[Optional[Decision], Optional[Decision], int]
        ] = {}

    def evaluate(
        self,
        requests: List[IORequest],
        running: List[IORequest],
    ) -> SchedulingPolicy:
        raw = super().evaluate(requests, running)
        final = SchedulingPolicy(
            generated_at=raw.generated_at,
            default=raw.default,
            probe=raw.probe,
            objective_value=raw.objective_value,
        )
        seen: Set[int] = set()
        for rid, proposed in raw.decisions.items():
            seen.add(rid)
            enforced, candidate, streak = self._state.get(
                rid, (None, None, 0)
            )
            if enforced is None:
                enforced = proposed
                candidate, streak = None, 0
            elif proposed is enforced:
                candidate, streak = None, 0
            else:
                if proposed is candidate:
                    streak += 1
                else:
                    candidate, streak = proposed, 1
                if streak >= self.confirmations:
                    enforced = proposed
                    candidate, streak = None, 0
            self._state[rid] = (enforced, candidate, streak)
            final.decisions[rid] = enforced
        # Drop bookkeeping for requests that left the system.
        for rid in [r for r in self._state if r not in seen]:
            del self._state[rid]

        running_demoted = any(
            final.decisions.get(r.rid) is Decision.NORMAL for r in running
        )
        final.interrupt_running = running_demoted
        return final
