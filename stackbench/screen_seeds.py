"""List the chaos scenario seeds on which a protected run fails.

Runs each chaos-straggler scenario once per scenario seed in
``range(workloads.CHAOS_SCREENED)`` and prints the seeds with any
failure, in the form ``workloads.CHAOS_UNSAFE`` holds them.  It takes a
few minutes on one core::

    python3 stackbench/screen_seeds.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import workloads  # noqa: E402


def unsafe_seeds() -> list:
    plan = workloads.build_plan("chaos-straggler", 0)
    found = []
    for seed in range(workloads.CHAOS_SCREENED):
        plan.seeds = (seed,)
        outcomes = workloads.run_pass(plan)
        workloads.finish_pass(plan, outcomes)
        failed = [o for o in outcomes if o.failures]
        if failed:
            found.append(seed)
            print(f"seed {seed}: {failed[0].label}: {failed[0].failures[0]}",
                  file=sys.stderr)
    return found


if __name__ == "__main__":
    print(", ".join(map(str, unsafe_seeds())))
