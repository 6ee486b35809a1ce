"""Circuit breaker state machine: trip, cooldown, half-open probe."""

import pytest

from repro.qos import BreakerBoard, BreakerState, CircuitBreaker


class TestStateMachine:
    def test_closed_until_threshold_consecutive_failures(self):
        b = CircuitBreaker(threshold=3, cooldown=1.0)
        b.on_failure(0.0)
        b.on_failure(0.1)
        assert b.state is BreakerState.CLOSED
        assert b.allow(0.1)
        b.on_failure(0.2)
        assert b.state is BreakerState.OPEN
        assert b.trips == 1
        assert not b.allow(0.2)

    def test_success_resets_the_failure_streak(self):
        b = CircuitBreaker(threshold=2)
        b.on_failure(0.0)
        b.on_success(0.1)
        b.on_failure(0.2)
        assert b.state is BreakerState.CLOSED

    def test_cooldown_grants_exactly_one_probe(self):
        b = CircuitBreaker(threshold=1, cooldown=0.5)
        b.on_failure(0.0)
        assert not b.allow(0.4)
        assert b.allow(0.5)  # the probe
        assert b.state is BreakerState.HALF_OPEN
        # No second request while the probe is undecided.
        assert not b.allow(0.6)

    def test_probe_success_closes(self):
        b = CircuitBreaker(threshold=1, cooldown=0.5)
        b.on_failure(0.0)
        assert b.allow(0.5)
        b.on_success(0.7)
        assert b.state is BreakerState.CLOSED
        assert b.allow(0.7)

    def test_probe_failure_reopens_for_another_cooldown(self):
        b = CircuitBreaker(threshold=1, cooldown=0.5)
        b.on_failure(0.0)
        assert b.allow(0.5)
        b.on_failure(0.6)
        assert b.state is BreakerState.OPEN
        assert b.trips == 2
        assert not b.allow(1.0)
        assert b.allow(1.1)  # 0.6 + cooldown

    def test_released_probe_is_granted_again(self):
        b = CircuitBreaker(threshold=1, cooldown=0.5)
        b.on_failure(0.0)
        assert b.allow(0.5)  # the probe
        b.release_probe()  # answered neither way: slow, not sick
        assert b.state is BreakerState.HALF_OPEN
        assert b.trips == 1
        assert b.allow(0.6)  # a fresh probe
        assert not b.allow(0.6)

    @pytest.mark.parametrize("failures", [0, 1])
    def test_release_outside_half_open_changes_nothing(self, failures):
        b = CircuitBreaker(threshold=1, cooldown=0.5)
        for _ in range(failures):
            b.on_failure(0.0)
        state = b.state
        b.release_probe()
        assert b.state is state
        assert b.allow(0.1) is (state is BreakerState.CLOSED)

    def test_straggler_failure_while_open_changes_nothing(self):
        b = CircuitBreaker(threshold=1, cooldown=0.5)
        b.on_failure(0.0)
        b.on_failure(0.1)  # late report from before the trip
        assert b.trips == 1
        assert b.allow(0.5)  # cooldown still counted from 0.0

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


class TestBreakerBoard:
    def test_per_server_isolation(self):
        board = BreakerBoard(threshold=1, cooldown=1.0)
        board.for_server(0).on_failure(0.0)
        assert board.for_server(0).state is BreakerState.OPEN
        assert board.for_server(1).state is BreakerState.CLOSED
        assert board.for_server(0) is board.for_server(0)

    def test_trips_totals_every_path(self):
        board = BreakerBoard(threshold=1, cooldown=1.0)
        board.for_server(0).on_failure(0.0)
        board.for_server(2).on_failure(0.0)
        assert board.trips() == 2
