"""Slowdown faults: apply/reverse, restart semantics, unknown kinds."""

import pytest

from repro.cluster.config import MB
from repro.core.schemes import Scheme, WorkloadSpec, run_scheme
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    UnknownFaultKind,
    slowdown,
    stragglers,
)
from repro.faults.injector import FaultInjector
from repro.sim.engine import Environment

SPEC = WorkloadSpec(kernel="sum", n_requests=3, request_bytes=32 * MB,
                    n_storage=2, seed=0)


def _run(schedule, scheme=Scheme.AS):
    return run_scheme(scheme, SPEC, fault_schedule=schedule)


class TestSlowdownScenario:
    def test_transient_slowdown_slows_then_recovers(self):
        baseline = _run(None)
        slowed = _run(slowdown(at=0.05, duration=30.0, factor=0.1, target=0))
        brief = _run(slowdown(at=0.05, duration=0.2, factor=0.1, target=0))
        assert slowed.makespan > baseline.makespan
        # The self-healing SLOWDOWN_END restores full speed, so a
        # brief slowdown hurts strictly less than a standing one.
        assert brief.makespan < slowed.makespan
        assert [float(v) for v in slowed.results] == \
            [float(v) for v in baseline.results]

    def test_slowdown_event_derates_cpu_and_link(self):
        sched = slowdown(at=0.05, duration=5.0, factor=0.25, target=0)
        kinds = [e.kind for e in sched.timeline()]
        assert kinds.count(FaultKind.SLOWDOWN) == 1
        assert kinds.count(FaultKind.SLOWDOWN_END) == 1

    def test_restart_clears_standing_derates(self):
        # A standing slowdown (no duration ⇒ no SLOWDOWN_END) followed
        # by a crash+restart: the restart re-initialises the box, so
        # post-restart work runs at full speed.  If the derate
        # survived the restart, the run would pace with the
        # standing-slowdown run; instead it finishes several times
        # sooner.
        standing = FaultSchedule(
            name="standing-slowdown",
            events=(
                FaultEvent(at=0.02, kind=FaultKind.SLOWDOWN, target=0,
                           factor=0.05),
            ),
            retry=slowdown().retry,
            horizon=120.0,
        )
        slow_then_crash = FaultSchedule(
            name="slow-then-crash",
            events=(
                FaultEvent(at=0.02, kind=FaultKind.SLOWDOWN, target=0,
                           factor=0.05),
                FaultEvent(at=0.1, kind=FaultKind.CRASH, target=0,
                           duration=0.2),
            ),
            retry=slowdown().retry,
            horizon=120.0,
        )
        r_standing = _run(standing)
        r_restarted = _run(slow_then_crash)
        assert len(r_restarted.per_request_times) == SPEC.total_requests
        assert r_restarted.makespan < r_standing.makespan / 2


class TestStragglersScenario:
    def test_seeded_and_deterministic(self):
        a = stragglers(seed=4, n_servers=8)
        b = stragglers(seed=4, n_servers=8)
        assert a.events == b.events
        assert a.name == "stragglers-4"

    def test_draws_persistent_and_transient_events(self):
        sched = stragglers(seed=0, n_servers=8, persistent_fraction=0.5,
                           n_transient=3)
        persistent = [e for e in sched.events if e.duration is None]
        transient = [e for e in sched.events if e.duration is not None]
        assert len(persistent) == 4
        assert len(transient) == 3
        assert all(e.kind is FaultKind.SLOWDOWN for e in sched.events)

    def test_at_least_one_straggler_when_fraction_positive(self):
        sched = stragglers(seed=0, n_servers=4, persistent_fraction=0.01)
        assert sum(1 for e in sched.events if e.duration is None) == 1


class TestUnknownFaultKind:
    def _injector(self):
        from repro.cluster.topology import ClusterTopology
        from repro.cluster.config import discfarm_config
        from repro.pvfs.metadata import MetadataServer
        from repro.pvfs.server import IOServer

        env = Environment()
        config = discfarm_config(n_storage=1, n_compute=1)
        topo = ClusterTopology(env, config)
        mds = MetadataServer(1, config.stripe_size)
        server = IOServer(env, topo.storage_node(0),
                          topo.link_for(topo.storage_node(0)), mds)
        return FaultInjector(env, servers=[server], schedule=FaultSchedule(
            name="empty", events=(), retry=slowdown().retry, horizon=1.0,
        ))

    def test_unknown_kind_raises_typed_error(self):
        injector = self._injector()
        with pytest.raises(UnknownFaultKind) as exc:
            injector._apply(
                FaultEvent(at=0.0, kind="not-a-kind", target=0)  # type: ignore[arg-type]
            )
        assert exc.value.kind == "not-a-kind"
        assert "crash" in str(exc.value)
