"""Unit tests for the service-path faults and their injector.

Consumer and clock stalls are episode windows over the stream's wire
lines (ticks); corruption is one draw per event.  Range checks live in
:class:`ServiceFaultConfig`, which owns the values.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.faults import FaultWindow, episode_windows
from repro.faults.service import ServiceFaultConfig, ServiceFaultInjector
from repro.rng import make_rng


def injector(seed=0, num_ticks=50, **fields):
    return ServiceFaultInjector(ServiceFaultConfig(**fields), make_rng(seed), num_ticks)


def corruptor(seed=0):
    return injector(seed, corrupt_event_rate=1.0)


class _NoDraws:
    """A stand-in stream that fails the test on any draw."""

    def random(self, *args, **kwargs):
        raise AssertionError("a fault with rate 0 drew from its stream")

    integers = random


class TestSlowConsumerFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigError, match="slow_consumer_rate"):
            ServiceFaultConfig(slow_consumer_rate=1.5)
        with pytest.raises(ConfigError, match="slow_consumer_stall_seconds"):
            ServiceFaultConfig(slow_consumer_stall_seconds=-0.1)
        with pytest.raises(ConfigError, match="slow_consumer_duration_ticks"):
            ServiceFaultConfig(slow_consumer_duration_ticks=0)

    def test_stall_window_spans_duration(self):
        # Rate 1.0 opens a window immediately; the first draw covers
        # ticks 0-2 without further draws.
        assert episode_windows(
            "slow_consumer", make_rng(0), 1.0, 3, duration=3, magnitude=0.2
        ) == [FaultWindow("slow_consumer", 0, 3, magnitude=0.2)]
        faults = injector(
            slow_consumer_rate=1.0,
            slow_consumer_stall_seconds=0.2,
            slow_consumer_duration_ticks=3,
        )
        assert [faults.consumer_stall_seconds(t) for t in range(3)] == [0.2] * 3

    def test_zero_rate_never_stalls(self):
        faults = injector(slow_consumer_rate=0.0, slow_consumer_stall_seconds=0.2)
        assert all(faults.consumer_stall_seconds(t) == 0.0 for t in range(20))

    def test_deterministic_given_stream(self):
        def draws(seed):
            faults = injector(
                seed,
                slow_consumer_rate=0.3,
                slow_consumer_stall_seconds=0.1,
                slow_consumer_duration_ticks=2,
            )
            return [faults.consumer_stall_seconds(t) for t in range(50)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)


class TestCorruptEventFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigError, match="corrupt_event_rate"):
            ServiceFaultConfig(corrupt_event_rate=-0.1)
        with pytest.raises(ConfigError, match="corrupt_event_rate"):
            ServiceFaultConfig(corrupt_event_rate=1.1)

    def test_zero_rate_never_corrupts(self):
        assert injector(corrupt_event_rate=0.0).maybe_corrupt("{}") == ("{}", False)

    def test_corruptions_break_json_parsing(self):
        faults = corruptor()
        payload = json.dumps({"tenant": "t0", "kind": "access", "page": 12})
        for _ in range(100):
            mangled, corrupted = faults.maybe_corrupt(payload)
            assert corrupted
            assert mangled != payload
            try:
                parsed = json.loads(mangled)
            except (json.JSONDecodeError, ValueError):
                continue
            # If it still parses it must not be the original valid event.
            assert parsed != json.loads(payload)

    def test_empty_payload_still_mangled(self):
        assert corruptor().maybe_corrupt("") == ("\x00", True)

    def test_deterministic_given_stream(self):
        def mangled(seed):
            faults = corruptor(seed)
            return [faults.maybe_corrupt('{"a": 1, "b": 2}') for _ in range(20)]

        assert mangled(3) == mangled(3)


class TestClockStallFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigError, match="clock_stall_rate"):
            ServiceFaultConfig(clock_stall_rate=1.5)
        with pytest.raises(ConfigError, match="clock_stall_seconds"):
            ServiceFaultConfig(clock_stall_rate=0.5, clock_stall_seconds=-1.0)

    def test_certain_stall(self):
        faults = injector(clock_stall_rate=1.0, clock_stall_seconds=0.75)
        assert faults.clock_stall_seconds(0) == pytest.approx(0.75)

    def test_zero_rate_never_stalls(self):
        faults = injector(clock_stall_rate=0.0, clock_stall_seconds=0.75)
        assert faults.clock_stall_seconds(0) == 0.0


class TestServiceFaultConfig:
    def test_defaults_inject_nothing(self):
        config = ServiceFaultConfig()
        assert config.slow_consumer_rate == 0.0
        assert config.corrupt_event_rate == 0.0
        assert config.clock_stall_rate == 0.0
        assert injector().schedule.windows == ()

    def test_zero_rates_inert_any_rate_fires(self, monkeypatch):
        """A service fault is on exactly when its rate is above 0; there
        is no separate switch that could disagree with the rates."""
        with pytest.raises(TypeError, match="enabled"):
            ServiceFaultConfig(enabled=False)
        monkeypatch.setattr(
            "repro.faults.service.child_rng", lambda rng, label: _NoDraws()
        )
        faults = injector(num_ticks=100)
        assert faults.schedule.windows == ()
        for tick in range(100):
            assert faults.clock_stall_seconds(tick) == 0.0
            assert faults.consumer_stall_seconds(tick) == 0.0
            assert faults.maybe_corrupt("{}") == ("{}", False)
        monkeypatch.undo()
        for field in ("slow_consumer_rate", "corrupt_event_rate", "clock_stall_rate"):
            faults = injector(num_ticks=1, **{field: 1.0})
            fired = [
                faults.consumer_stall_seconds(0) > 0,
                faults.maybe_corrupt("{}")[1],
                faults.clock_stall_seconds(0) > 0,
            ]
            assert sum(fired) == 1, field

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServiceFaultConfig(corrupt_event_rate=1.5)
        with pytest.raises(ConfigError):
            ServiceFaultConfig(clock_stall_seconds=-1.0)
        with pytest.raises(ConfigError):
            ServiceFaultConfig(slow_consumer_duration_ticks=0)


class TestServiceFaultInjector:
    def test_inert_injector_has_no_models(self):
        faults = injector()
        assert faults.schedule.windows == ()
        assert faults.consumer_stall_seconds(0) == 0.0
        assert faults.clock_stall_seconds(0) == 0.0
        assert faults.maybe_corrupt("{}") == ("{}", False)

    def test_from_config_activates_configured_models(self):
        faults = injector(
            slow_consumer_rate=1.0,
            slow_consumer_stall_seconds=0.1,
            corrupt_event_rate=1.0,
            clock_stall_rate=1.0,
            clock_stall_seconds=0.5,
        )
        assert faults.consumer_stall_seconds(0) == pytest.approx(0.1)
        assert faults.clock_stall_seconds(0) == pytest.approx(0.5)
        payload, corrupted = faults.maybe_corrupt('{"x": 1}')
        assert corrupted
        assert payload != '{"x": 1}'

    def test_streams_are_decorrelated(self):
        # Enabling corruption must not shift the slow-consumer schedule.
        def stall_schedule(**extra):
            faults = injector(
                11, slow_consumer_rate=0.3, slow_consumer_stall_seconds=0.1, **extra
            )
            return [faults.consumer_stall_seconds(t) for t in range(50)]

        assert stall_schedule() == stall_schedule(corrupt_event_rate=0.5)

    def test_stalls_past_the_horizon_are_quiet(self):
        faults = injector(num_ticks=5, clock_stall_rate=1.0, clock_stall_seconds=0.5)
        assert [faults.clock_stall_seconds(t) for t in range(7)] == [0.5] * 5 + [0.0] * 2
