"""Lowering scenarios onto engine objects: units, seeds, precedence."""

import pytest

from repro.cluster.config import MB
from repro.scenario import (
    ScenarioError,
    arrival_offsets,
    compile_faults,
    compile_qos,
    compile_retry,
    compile_workload,
    get_scenario,
    scenario_from_dict,
    strip_guarantees,
    validate_scenario,
)
from repro.scenario.schema import ArrivalShape


def _scenario(**sections):
    data = {"name": "t"}
    data.update(sections)
    return scenario_from_dict(data, source="")


class TestArrivalOffsets:
    def test_batch_and_spaced_lower_natively(self):
        assert arrival_offsets(ArrivalShape(process="batch"), 8, 0) == ()
        assert arrival_offsets(ArrivalShape(process="spaced"), 8, 0) == ()

    def test_poisson_is_seed_deterministic_and_monotone(self):
        shape = ArrivalShape(process="poisson", rate=4.0)
        a = arrival_offsets(shape, 16, 3)
        b = arrival_offsets(shape, 16, 3)
        assert a == b
        assert len(a) == 16
        assert list(a) == sorted(a)
        assert arrival_offsets(shape, 16, 4) != a  # seed matters

    def test_bursty_groups_requests_into_phases(self):
        shape = ArrivalShape(
            process="bursty", phases=4, phase_gap=2.0, phase_jitter=0.0
        )
        offsets = arrival_offsets(shape, 8, 0)
        # Request i joins phase i % phases at p * phase_gap exactly
        # (jitter zero), so every phase carries the same mix.
        assert offsets == (0.0, 2.0, 4.0, 6.0, 0.0, 2.0, 4.0, 6.0)

    def test_bursty_jitter_stays_within_bound(self):
        shape = ArrivalShape(
            process="bursty", phases=2, phase_gap=5.0, phase_jitter=0.25
        )
        for i, t in enumerate(arrival_offsets(shape, 10, 7)):
            base = (i % 2) * 5.0
            assert base <= t <= base + 0.25

    def test_diurnal_is_deterministic_monotone_and_bounded(self):
        shape = ArrivalShape(process="diurnal", period=16.0, peak_ratio=4.0)
        a = arrival_offsets(shape, 32, 0)
        assert a == arrival_offsets(shape, 32, 99)  # no RNG at all
        assert list(a) == sorted(a)
        assert 0.0 <= a[0] and a[-1] <= 16.0

    def test_diurnal_peak_is_denser_than_trough(self):
        shape = ArrivalShape(process="diurnal", period=16.0, peak_ratio=4.0)
        offsets = arrival_offsets(shape, 64, 0)
        trough = sum(1 for t in offsets if t < 4.0)  # curve starts low
        peak = sum(1 for t in offsets if 6.0 <= t < 10.0)  # mid-period
        assert peak > trough


class TestCompileWorkload:
    def test_mb_units_become_bytes(self):
        sc = _scenario(workload={"request_mb": 16.0})
        spec = compile_workload(sc, seed=0)
        assert spec.request_bytes == 16 * MB
        assert spec.seed == 0
        assert spec.n_storage == 2

    def test_tenants_lower_with_byte_rates(self):
        sc = get_scenario("noisy-neighbor-nic")
        spec = compile_workload(sc, seed=0)
        gold = next(t for t in spec.tenants if t.name == "gold")
        assert gold.rate == 70 * MB
        assert gold.burst == 32 * MB
        assert gold.slo_latency is not None

    def test_unpoliced_strips_guarantees_keeps_demand(self):
        sc = get_scenario("noisy-neighbor-nic")
        spec = strip_guarantees(compile_workload(sc, seed=0))
        for t in spec.tenants:
            assert t.rate is None and t.burst is None and t.ceiling is None
        assert sum(t.requests for t in spec.tenants) == sc.per_node_requests

    def test_bursty_scenario_gets_explicit_offsets(self):
        sc = get_scenario("nwp-phase-burst")
        spec = compile_workload(sc, seed=0)
        assert len(spec.arrival_times) == sc.total_requests
        assert spec.arrival_spacing == 0.0

    def test_straggler_knobs_thread_through(self):
        sc = get_scenario("straggler-degrade")
        spec = compile_workload(sc, seed=1)
        assert spec.straggler_scheduler is True
        assert spec.n_replicas == 2


class TestCompileQosAndRetry:
    def test_qos_mb_rates_become_bytes(self):
        sc = _scenario(qos={"intake_rate_mb": 50.0, "intake_burst_mb": 10.0})
        qos = compile_qos(sc)
        assert qos.intake_rate == 50 * MB
        assert qos.intake_burst == 10 * MB

    def test_disabled_qos_compiles_to_none(self):
        sc = _scenario(qos={"enabled": False})
        assert compile_qos(sc) is None

    def test_dependent_knob_error_carries_scenario_path(self):
        sc = _scenario(qos={"intake_burst_mb": 10.0})  # burst needs rate
        with pytest.raises(ScenarioError) as err:
            compile_qos(sc)
        assert "qos" in err.value.path

    def test_explicit_retry_wins_over_schedule(self):
        sc = _scenario(
            retry={"timeout": 9.0, "max_retries": 3},
            faults={"library": "chaos"},
        )
        schedule = compile_faults(sc, seed=0)
        policy = compile_retry(sc, schedule)
        assert policy.timeout == 9.0
        assert policy.max_retries == 3

    def test_schedule_retry_used_when_unspecified(self):
        sc = _scenario(faults={"library": "crash-restart"})
        schedule = compile_faults(sc, seed=0)
        assert compile_retry(sc, schedule) == schedule.retry

    def test_tenant_scenarios_imply_the_patient_policy(self):
        sc = _scenario(workload={"tenants": [{"name": "a", "requests": 2}]})
        policy = compile_retry(sc, None)
        assert policy is not None
        assert policy.timeout >= 60.0

    def test_flat_faultless_scenario_needs_no_retry(self):
        assert compile_retry(_scenario(), None) is None


class TestCompileFaults:
    def test_unarmed_compiles_to_none(self):
        assert compile_faults(_scenario(), seed=0) is None

    def test_library_is_seeded_per_run(self):
        sc = _scenario(faults={"library": "chaos"})
        a = compile_faults(sc, seed=0)
        b = compile_faults(sc, seed=1)
        assert a.events != b.events  # the run seed reaches the factory
        assert compile_faults(sc, seed=0).events == a.events

    def test_overrides_reach_the_factory(self):
        sc = _scenario(faults={"library": "chaos",
                               "overrides": {"n_events": 2}})
        wide = _scenario(faults={"library": "chaos",
                                 "overrides": {"n_events": 8}})
        assert len(compile_faults(sc, seed=0).events) \
            < len(compile_faults(wide, seed=0).events)

    def test_bad_override_name_is_a_scenario_error(self):
        sc = _scenario(faults={"library": "chaos",
                               "overrides": {"n_evnets": 2}})
        with pytest.raises(ScenarioError) as err:
            compile_faults(sc, seed=0)
        assert "faults.overrides" in err.value.path

    def test_explicit_events_build_a_schedule(self):
        sc = _scenario(faults={"events": [
            {"at": 0.5, "kind": "slowdown", "target": 0,
             "factor": 0.5, "duration": 2.0},
        ]})
        schedule = compile_faults(sc, seed=0)
        assert schedule is not None
        assert len(schedule.events) == 1

    def test_invalid_event_pairing_is_a_scenario_error(self):
        sc = _scenario(faults={"events": [
            {"at": 1.0, "kind": "slowdown-end", "target": 0},
        ]})
        with pytest.raises(ScenarioError) as err:
            compile_faults(sc, seed=0)
        assert "faults.events" in err.value.path

    def test_guarantee_crash_adds_one(self):
        sc = _scenario(faults={
            "library": "slowdown", "guarantee_crash": True,
        })
        schedule = compile_faults(sc, seed=0)
        kinds = {e.kind.value for e in schedule.events}
        assert "crash" in kinds


class TestValidateScenario:
    def test_every_builtin_validates(self):
        from repro.scenario import list_scenarios

        for name in list_scenarios():
            validate_scenario(get_scenario(name))

    def test_unknown_kernel_is_caught_with_path(self):
        sc = _scenario(workload={"kernel": "fft9000"})
        with pytest.raises(ScenarioError) as err:
            validate_scenario(sc)
        assert "workload.kernel" in err.value.path

    def test_the_baseline_pair_is_built(self, monkeypatch):
        import repro.scenario.compile as compile_module

        def refuse(spec, qos):
            raise ValueError("cannot lower")

        monkeypatch.setitem(compile_module.BASELINES, "unprotected", refuse)
        with pytest.raises(ValueError, match="cannot lower"):
            validate_scenario(get_scenario("noisy-neighbor-queue"))

    def test_deep_check_catches_engine_level_rules(self):
        # TenantSpec's burst-needs-rate rule only fires on lowering.
        sc = _scenario(workload={
            "tenants": [{"name": "a", "requests": 1, "burst_mb": 8.0}],
        })
        with pytest.raises(ScenarioError):
            validate_scenario(sc)


class TestBaselines:
    def test_every_baseline_mode_but_none_has_a_lowering(self):
        from repro.scenario import BASELINES
        from repro.scenario.schema import BASELINE_MODES

        assert set(BASELINES) == set(BASELINE_MODES) - {"none"}

    def test_static_keeps_guarantees_and_turns_borrowing_off(self):
        from repro.scenario import BASELINES

        sc = get_scenario("tenant-fairness")
        spec, qos = compile_workload(sc, seed=1), compile_qos(sc)
        base_spec, base_qos = BASELINES["static"](spec, qos)
        assert base_spec == spec
        assert qos.tenant_borrow is True and base_qos.tenant_borrow is False

    def test_unhedged_turns_the_scheduler_off_and_keeps_replicas(self):
        from repro.scenario import BASELINES

        sc = get_scenario("straggler-tail")
        spec, qos = compile_workload(sc, seed=1), compile_qos(sc)
        base_spec, base_qos = BASELINES["unhedged"](spec, qos)
        assert spec.straggler_scheduler and not base_spec.straggler_scheduler
        assert base_spec.n_replicas == spec.n_replicas == 2
        assert base_qos is qos is None
