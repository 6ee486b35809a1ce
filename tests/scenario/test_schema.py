"""Strict schema semantics: round-trip identity and path-ful rejection."""

import pytest

from repro.scenario import (
    BUILTIN,
    Scenario,
    ScenarioError,
    get_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


class TestRoundTrip:
    def test_every_builtin_is_a_fixed_point(self):
        # load -> dump -> load is the identity for the whole library.
        for name in BUILTIN:
            sc = get_scenario(name)
            dumped = scenario_to_dict(sc)
            assert scenario_from_dict(dumped, source="") == sc

    def test_dump_emits_every_field_with_defaults(self):
        dumped = scenario_to_dict(scenario_from_dict({"name": "x"}))
        assert dumped["name"] == "x"
        assert dumped["cluster"]["n_storage"] == 2
        assert dumped["workload"]["arrival"]["process"] == "batch"
        assert dumped["qos"]["enabled"] is True
        assert dumped["run"]["baseline"] == "unprotected"
        assert dumped["retry"] is None

    def test_dump_of_dump_is_stable(self):
        sc = get_scenario("kitchen-sink-chaos")
        once = scenario_to_dict(sc)
        twice = scenario_to_dict(scenario_from_dict(once, source=""))
        assert once == twice


class TestRejection:
    def test_unknown_top_level_key_names_itself(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({"name": "x", "clutser": {}}, source="f.yaml")
        assert err.value.path == "f.yaml: clutser"
        assert "unknown key" in err.value.reason

    def test_unknown_nested_key_names_full_path(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                {"name": "x", "workload": {"reqest_mb": 4}}, source=""
            )
        assert "workload.reqest_mb" in str(err.value)
        assert "request_mb" in err.value.reason  # suggests known keys

    def test_bad_value_names_full_path(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                {"name": "x", "workload": {"request_mb": -1}}, source=""
            )
        assert err.value.path == "workload.request_mb"

    def test_list_entries_carry_their_index(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({
                "name": "x",
                "workload": {"tenants": [
                    {"name": "a"}, {"name": "b", "rate_mb": -5},
                ]},
            }, source="")
        assert err.value.path == "workload.tenants[1].rate_mb"

    def test_missing_name_is_rejected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({}, source="")
        assert err.value.path == "name"

    def test_non_mapping_is_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(["not", "a", "mapping"], source="")

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                {"name": "x", "workload": {"n_requests": True}}, source=""
            )
        assert "integer" in err.value.reason

    def test_nan_and_inf_are_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ScenarioError):
                scenario_from_dict(
                    {"name": "x", "workload": {"request_mb": bad}}, source=""
                )

    def test_source_prefixes_the_path(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                {"name": "x", "qos": {"breaker_threshold": 0}},
                source="nic.yaml",
            )
        assert str(err.value).startswith("nic.yaml: qos.breaker_threshold")


class TestCrossFieldRules:
    def test_fault_library_and_events_are_exclusive(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({
                "name": "x",
                "faults": {
                    "library": "chaos",
                    "events": [{"at": 0.0, "kind": "crash"}],
                },
            }, source="")
        assert "mutually exclusive" in err.value.reason

    def test_overrides_need_a_library(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(
                {"name": "x", "faults": {"overrides": {"span": 2.0}}},
                source="",
            )

    def test_unknown_fault_library_is_rejected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                {"name": "x", "faults": {"library": "gremlins"}}, source=""
            )
        assert "gremlins" in err.value.reason

    def test_slo_floor_must_name_a_declared_tenant(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                {"name": "x", "invariants": {"slo_floor": "gold"}}, source=""
            )
        assert err.value.path == "invariants.slo_floor"

    def test_slo_floor_tenant_needs_an_slo(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({
                "name": "x",
                "workload": {"tenants": [{"name": "gold"}]},
                "invariants": {"slo_floor": "gold"},
            }, source="")
        assert "slo_latency" in err.value.reason

    def test_min_attainment_needs_slo_floor(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(
                {"name": "x", "invariants": {"min_attainment": 0.9}},
                source="",
            )

    def test_unpoliced_baseline_needs_tenants(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                {"name": "x", "run": {"baseline": "unpoliced"}}, source=""
            )
        assert err.value.path == "run.baseline"

    @pytest.mark.parametrize("data", [
        # static without tenants
        {"run": {"baseline": "static"}},
        # static when the protected run does not borrow
        {"workload": {"tenants": [{"name": "a"}]},
         "qos": {"tenant_borrow": False}, "run": {"baseline": "static"}},
        {"workload": {"tenants": [{"name": "a"}]},
         "qos": {"enabled": False}, "run": {"baseline": "static"}},
        # unhedged when the scheduler is already off
        {"run": {"baseline": "unhedged"}},
    ], ids=["static-no-tenants", "static-no-borrow", "static-no-qos",
            "unhedged-no-straggler"])
    def test_claim_baselines_need_what_they_turn_off(self, data):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({"name": "x", **data}, source="")
        assert err.value.path == "run.baseline"

    def test_claim_baselines_accept_their_protected_side(self):
        static = scenario_from_dict({
            "name": "x", "workload": {"tenants": [{"name": "a"}]},
            "run": {"baseline": "static"},
        })
        unhedged = scenario_from_dict({
            "name": "y", "straggler": {"enabled": True},
            "run": {"baseline": "unhedged"},
        })
        assert (static.run.baseline, unhedged.run.baseline) == \
            ("static", "unhedged")

    def test_duplicate_tenant_names_are_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({
                "name": "x",
                "workload": {"tenants": [{"name": "a"}, {"name": "a"}]},
            }, source="")

    def test_replicas_bounded_by_storage(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(
                {"name": "x", "cluster": {"n_storage": 2, "n_replicas": 3}},
                source="",
            )


class TestProperties:
    def test_request_counts_without_tenants(self):
        sc = scenario_from_dict(
            {"name": "x", "workload": {"n_requests": 5},
             "cluster": {"n_storage": 3, "storage_cores": 2}},
        )
        assert sc.per_node_requests == 5
        assert sc.total_requests == 15

    def test_tenants_replace_n_requests(self):
        sc = scenario_from_dict({
            "name": "x",
            "workload": {
                "n_requests": 99,
                "tenants": [{"name": "a", "requests": 2},
                            {"name": "b", "requests": 3}],
            },
        })
        assert sc.per_node_requests == 5
        assert sc.total_requests == 10  # x2 storage nodes

    def test_scenario_is_frozen(self):
        sc = scenario_from_dict({"name": "x"})
        with pytest.raises(AttributeError):
            sc.name = "y"

    def test_builtin_library_is_complete(self):
        # The adversarial library ships at least 6 scenarios and every
        # entry validates (get_scenario parses strictly).
        assert len(BUILTIN) >= 6
        for name in BUILTIN:
            assert isinstance(get_scenario(name), Scenario)
