"""The ``repro scenario`` surface and its ``repro soak`` alias."""

import io
import json

import pytest

from repro.cli import build_parser
from repro.scenario import dumps_scenario, get_scenario


def _run(argv):
    out = io.StringIO()
    args = build_parser().parse_args(argv)
    code = args.func(args, out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_every_builtin_with_tags(self):
        code, text = _run(["scenario", "list"])
        assert code == 0
        assert "noisy-neighbor-nic" in text
        assert "kitchen-sink-chaos" in text
        assert "smoke" in text


class TestValidate:
    def test_builtin_names_validate(self):
        code, text = _run(["scenario", "validate", "steady-state",
                           "noisy-neighbor-nic"])
        assert code == 0
        assert text.count("OK") == 2

    def test_valid_file_validates(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(dumps_scenario(get_scenario("steady-state")),
                        encoding="utf-8")
        code, text = _run(["scenario", "validate", str(path)])
        assert code == 0

    def test_bad_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"name": "x", "workload": {"request_mb": -1}}), encoding="utf-8")
        code, _ = _run(["scenario", "validate", str(path)])
        assert code == 2
        assert "workload.request_mb" in capsys.readouterr().err

    def test_unknown_name_exits_2(self, capsys):
        code, _ = _run(["scenario", "validate", "not-a-scenario"])
        assert code == 2
        assert "not a built-in" in capsys.readouterr().err


class TestDump:
    def test_dump_round_trips_through_validate(self, tmp_path):
        path = tmp_path / "nic.json"
        code, _ = _run(["scenario", "dump", "noisy-neighbor-nic",
                        "--out", str(path)])
        assert code == 0
        code, text = _run(["scenario", "validate", str(path)])
        assert code == 0
        assert "noisy-neighbor-nic" in text

    def test_dump_to_stdout_is_json(self):
        code, text = _run(["scenario", "dump", "steady-state"])
        assert code == 0
        assert json.loads(text)["name"] == "steady-state"

    def test_unknown_name_exits_2(self, capsys):
        code, _ = _run(["scenario", "dump", "nope"])
        assert code == 2


class TestRun:
    def test_builtin_run_exits_0_when_clean(self, tmp_path):
        report_path = tmp_path / "report.json"
        code, text = _run(["scenario", "run", "steady-state",
                           "--seed", "0", "--out", str(report_path)])
        assert code == 0
        assert "all invariants hold" in text
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["scenario"] == "steady-state"
        assert [s["seed"] for s in doc["seeds"]] == [0]

    def test_file_run_matches_builtin_run(self, tmp_path):
        # One file drives the runner identically to the library entry.
        path = tmp_path / "steady.json"
        path.write_text(dumps_scenario(get_scenario("steady-state")),
                        encoding="utf-8")
        _, from_name = _run(["scenario", "run", "steady-state",
                             "--seed", "0", "--json"])
        _, from_file = _run(["scenario", "run", str(path),
                             "--seed", "0", "--json"])
        assert from_name == from_file

    def test_json_report_is_deterministic(self):
        _, a = _run(["scenario", "run", "noisy-neighbor-nic",
                     "--seed", "0", "--json"])
        _, b = _run(["scenario", "run", "noisy-neighbor-nic",
                     "--seed", "0", "--json"])
        assert a == b

    def test_invalid_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "clutser": {}}),
                        encoding="utf-8")
        code, _ = _run(["scenario", "run", str(path)])
        assert code == 2
        assert "clutser" in capsys.readouterr().err


class TestSmoke:
    def test_smoke_subset_is_clean(self, tmp_path):
        report_path = tmp_path / "smoke.json"
        code, text = _run(["scenario", "smoke", "--seed", "0",
                           "--out", str(report_path)])
        assert code == 0
        assert "scenarios clean" in text
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert "noisy-neighbor-nic" in doc
        assert "steady-state" in doc


class TestSoakScenario:
    def test_soak_accepts_a_scenario_file(self, tmp_path):
        path = tmp_path / "ks.json"
        path.write_text(dumps_scenario(get_scenario("kitchen-sink-chaos")),
                        encoding="utf-8")
        code, text = _run(["soak", str(path), "--seed", "0"])
        assert code == 0
        # The report label is the scenario's name, not the file path.
        assert "scenario: kitchen-sink-chaos" in text
        assert "all invariants hold" in text

    def test_cli_flags_override_scenario_fields(self, tmp_path):
        path = tmp_path / "ks.json"
        path.write_text(dumps_scenario(get_scenario("kitchen-sink-chaos")),
                        encoding="utf-8")
        out = tmp_path / "soak.json"
        code, _ = _run(["soak", str(path), "--seed", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [s["seed"] for s in doc["seeds"]] == [5]

    def test_scenario_fields_override_soak_defaults(self, tmp_path):
        # kitchen-sink-chaos declares seeds [0, 1] (chaos-soak, the
        # alias's default scenario, runs 0-2); no --seed given.
        path = tmp_path / "ks.json"
        path.write_text(dumps_scenario(get_scenario("kitchen-sink-chaos")),
                        encoding="utf-8")
        out = tmp_path / "soak.json"
        code, _ = _run(["soak", str(path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["scenario"] == "kitchen-sink-chaos"
        assert [s["seed"] for s in doc["seeds"]] == [0, 1]

    def test_bad_scenario_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "qos": {"nope": 1}}),
                        encoding="utf-8")
        code, _ = _run(["soak", str(path)])
        assert code == 2
        assert "qos.nope" in capsys.readouterr().err

    def test_plain_chaos_soak_still_works(self, tmp_path):
        # With no scenario the alias runs chaos-soak, exactly as
        # 'scenario run chaos-soak' does.
        out = tmp_path / "soak.json"
        code, alias = _run(["soak", "--seed", "0", "--json",
                            "--out", str(out)])
        assert code == 0
        _, direct = _run(["scenario", "run", "chaos-soak", "--seed", "0",
                          "--json"])
        assert alias == direct
        assert out.read_text(encoding="utf-8") == alias
        assert json.loads(alias)["scenario"] == "chaos-soak"
