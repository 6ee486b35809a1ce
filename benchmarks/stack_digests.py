"""Write and diff the per-run digests of the stackbench workloads.

A stackbench pass leaves, for every simulator run, the ``digest_of``
its simulated outputs and the list of reasons it failed.  ``write``
records both for the workloads and seeds given, importing ``src/`` and
``stackbench/workloads.py`` (read-only) from one checkout; ``diff``
compares two such files run by run.  A change that claims
byte-identical simulated outputs is checked against its parent like
this, from the repository root, with the change not yet committed::

    mkdir /tmp/parent && git archive HEAD | tar -x -C /tmp/parent
    python3 benchmarks/stack_digests.py write --root /tmp/parent --out /tmp/parent.json
    python3 benchmarks/stack_digests.py write --out /tmp/change.json
    python3 benchmarks/stack_digests.py diff /tmp/parent.json /tmp/change.json

``diff`` prints every run whose digest or failure list differs, or that
only one file has, and exits 1 when there is any.  Each ``write``
runs one untimed pass per workload and seed, serially, in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Benchmark seeds written when ``--seeds`` is not given.
DEFAULT_SEEDS = (0, 1, 2, 3)


def collect(
    root: str, workloads: Optional[List[str]], seeds: List[int]
) -> Dict[str, Any]:
    """``{workload/seed/label: {"digest", "failures"}}`` for every run.

    Imports ``repro`` and the stackbench workloads from ``root``; call
    it once per process, since the first import of ``repro`` sticks.
    ``workloads=None`` means every workload stackbench declares.
    """
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "stackbench")]
    import workloads as stack

    runs: Dict[str, Any] = {}
    for workload in workloads or stack.WORKLOADS:
        for seed in seeds:
            plan = stack.build_plan(workload, seed)
            outcomes = stack.run_pass(plan)
            stack.finish_pass(plan, outcomes)
            for outcome in outcomes:
                key = f"{workload}/seed{seed}/{outcome.label}"
                if key in runs:
                    raise RuntimeError(f"two runs share the label {key}")
                runs[key] = {"digest": outcome.digest, "failures": outcome.failures}
    return runs


def diff(before: Dict[str, Any], after: Dict[str, Any]) -> List[str]:
    """One line per run that differs between two written files."""
    lines = []
    for key in sorted(before.keys() | after.keys()):
        if key not in after:
            lines.append(f"only in the first file: {key}")
        elif key not in before:
            lines.append(f"only in the second file: {key}")
        elif before[key]["digest"] != after[key]["digest"]:
            lines.append(f"digest differs: {key}")
        elif before[key]["failures"] != after[key]["failures"]:
            lines.append(f"failures differ: {key}: "
                         f"{before[key]['failures']} -> {after[key]['failures']}")
    return lines


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    write = sub.add_parser("write", help="record every run's digest and failures")
    write.add_argument("--out", required=True, help="JSON file to write")
    write.add_argument("--root", default=ROOT,
                       help="checkout whose src/ and stackbench/ run (default: this one)")
    write.add_argument("--workloads", nargs="+", default=None,
                       help="workload names (default: every workload)")
    write.add_argument("--seeds", nargs="+", type=int, default=list(DEFAULT_SEEDS))
    compare = sub.add_parser("diff", help="compare two written files run by run")
    compare.add_argument("before")
    compare.add_argument("after")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if args.command == "write":
        runs = collect(os.path.abspath(args.root), args.workloads, args.seeds)
        failed = sum(1 for run in runs.values() if run["failures"])
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{len(runs)} runs ({failed} failed) at seeds {args.seeds} "
              f"written to {args.out}")
        return 0
    with open(args.before) as fh:
        before = json.load(fh)
    with open(args.after) as fh:
        after = json.load(fh)
    lines = diff(before, after)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(before.keys() | after.keys())} runs differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
