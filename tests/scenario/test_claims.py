"""Committed claims that a baseline kind carries, on library scenarios.

``straggler-tail`` pairs every scheme with the straggler scheduler on
against the same run ``unhedged``; the runner checks the ``tail``
claim per scheme and seed, and the committed report
``benchmarks/results/straggler_tail.json`` pins the quantiles.
"""

import json
import pathlib

import pytest

from repro.scenario import get_scenario, run_scenario

ARTIFACT = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "results" / "straggler_tail.json")


def _p99s(doc):
    """(seed, scheme, mode) -> p99 seconds, from a report's JSON."""
    return {(sr["seed"], run["scheme"], run["mode"]): run["latency"]["p99"]
            for sr in doc["seeds"] for run in sr["runs"]}


@pytest.fixture(scope="module")
def tail_report():
    return run_scenario(get_scenario("straggler-tail"))


class TestStragglerTail:
    def test_tail_claim_holds_for_every_scheme(self, tail_report):
        assert tail_report.violations() == []
        for sr in tail_report.seeds:
            runs = {(r.scheme, r.mode): r for r in sr.runs}
            assert {scheme for scheme, _ in runs} == {"ts", "as", "dosas"}
            for scheme in ("ts", "as", "dosas"):
                on, off = runs[scheme, "protected"], runs[scheme, "unhedged"]
                assert on.latency["p99"] <= off.latency["p99"]
                assert (off.hedges_issued, off.hedges_won) == (0, 0)

    def test_fresh_run_reproduces_the_committed_p99s(self, tail_report):
        committed = json.loads(ARTIFACT.read_text(encoding="utf-8"))
        fresh = json.loads(tail_report.to_json())
        assert _p99s(fresh) == _p99s(committed)

    def test_committed_dosas_tail_cut(self):
        p99 = _p99s(json.loads(ARTIFACT.read_text(encoding="utf-8")))
        assert p99[1, "dosas", "unhedged"] == pytest.approx(7.135, abs=1e-3)
        assert p99[1, "dosas", "protected"] == pytest.approx(1.371, abs=1e-3)
        assert p99[2, "dosas", "unhedged"] == pytest.approx(23.453, abs=1e-3)
        assert p99[2, "dosas", "protected"] == pytest.approx(2.388, abs=1e-3)

    def test_tail_claim_fires_where_hedging_loses(self):
        # Seed 7: hedging raises the DOSAS p99 from 0.960 s to 1.082 s,
        # which is why the library keeps seeds 1 and 2.
        report = run_scenario(get_scenario("straggler-tail"), seeds=(7,))
        assert report.seeds[0].cross_violations == [
            "[dosas] [tail] protected p99 1.082 s above the unhedged "
            "run's 0.960 s"
        ]
