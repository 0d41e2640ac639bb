"""FaultPlan / FaultInjector: seeded, deterministic chaos schedules."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.faults import (
    RETRIABLE_KINDS,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    moderate_plan,
)


class TestFaultPlan:
    def test_schedule_is_deterministic(self):
        plan = FaultPlan(seed=9, rates={FaultKind.DROP: 0.5})
        first = [
            plan.schedule_for(epoch, host)
            for epoch in range(10)
            for host in range(4)
        ]
        second = [
            plan.schedule_for(epoch, host)
            for epoch in range(10)
            for host in range(4)
        ]
        assert first == second

    def test_schedule_independent_of_call_order(self):
        plan = FaultPlan(
            seed=3,
            rates={FaultKind.DROP: 0.4, FaultKind.BITFLIP: 0.4},
        )
        forward = {
            (e, h): plan.schedule_for(e, h)
            for e in range(6)
            for h in range(3)
        }
        backward = {
            (e, h): plan.schedule_for(e, h)
            for e in reversed(range(6))
            for h in reversed(range(3))
        }
        assert forward == backward

    def test_different_seeds_differ(self):
        rates = {FaultKind.DROP: 0.5}
        a = FaultPlan(seed=1, rates=rates)
        b = FaultPlan(seed=2, rates=rates)
        cells = [(e, h) for e in range(20) for h in range(4)]
        assert [a.schedule_for(*c) for c in cells] != [
            b.schedule_for(*c) for c in cells
        ]

    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=0, rates={FaultKind.DELAY: 1.0})
        for epoch in range(5):
            assert plan.schedule_for(epoch, 0) == [FaultKind.DELAY]

    def test_crash_preempts_everything_else(self):
        plan = FaultPlan(
            seed=0,
            rates={FaultKind.DROP: 1.0, FaultKind.CRASH: 1.0},
        )
        assert plan.schedule_for(0, 0) == [FaultKind.CRASH]

    def test_pinned_specs(self):
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec(FaultKind.CRASH, epoch=2, host=1),
                FaultSpec(FaultKind.DROP, host=3),  # every epoch
            ],
        )
        assert plan.schedule_for(2, 1) == [FaultKind.CRASH]
        assert plan.schedule_for(0, 1) == []
        assert plan.schedule_for(0, 3) == [FaultKind.DROP]
        assert plan.schedule_for(7, 3) == [FaultKind.DROP]

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(rates={FaultKind.DROP: 1.5})
        with pytest.raises(ConfigError):
            FaultPlan(rates={FaultKind.DROP: -0.1})

    def test_string_kinds_normalized(self):
        plan = FaultPlan(rates={"drop": 0.5})
        assert plan.rates == {FaultKind.DROP: 0.5}

    def test_active_flag(self):
        assert not FaultPlan().active
        assert not FaultPlan(rates={FaultKind.DROP: 0.0}).active
        assert FaultPlan(rates={FaultKind.DROP: 0.1}).active
        assert FaultPlan(specs=[FaultSpec(FaultKind.DROP)]).active


class TestJsonRoundTrip:
    def test_roundtrip(self, tmp_path):
        plan = FaultPlan(
            seed=11,
            rates={FaultKind.DROP: 0.1, FaultKind.REPLAY: 0.05},
            specs=[FaultSpec(FaultKind.CRASH, epoch=4, host=2)],
        )
        path = tmp_path / "plan.json"
        plan.save(str(path))
        loaded = FaultPlan.load(str(path))
        assert loaded.seed == plan.seed
        assert loaded.rates == plan.rates
        assert loaded.specs == plan.specs
        cells = [(e, h) for e in range(10) for h in range(4)]
        assert [loaded.schedule_for(*c) for c in cells] == [
            plan.schedule_for(*c) for c in cells
        ]

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_json("not json {")
        with pytest.raises(ConfigError):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ConfigError):
            FaultPlan.from_json('{"rates": {"no_such_kind": 0.5}}')


class TestInjector:
    def test_truncate_deterministic_and_shorter(self):
        injector = FaultInjector(FaultPlan(seed=4))
        frame = bytes(range(200))
        cut = injector.truncate(frame, epoch=1, host=2)
        assert cut == injector.truncate(frame, epoch=1, host=2)
        assert 0 < len(cut) < len(frame)
        assert frame.startswith(cut)

    def test_bitflip_deterministic_single_bit(self):
        injector = FaultInjector(FaultPlan(seed=4))
        frame = bytes(200)
        flipped = injector.bitflip(frame, epoch=0, host=0)
        assert flipped == injector.bitflip(frame, epoch=0, host=0)
        assert len(flipped) == len(frame)
        diff = [
            a ^ b for a, b in zip(frame, flipped) if a != b
        ]
        assert len(diff) == 1
        assert bin(diff[0]).count("1") == 1

    def test_replay_fuel(self):
        injector = FaultInjector(FaultPlan())
        assert injector.stale_frame(0) is None
        injector.remember(0, b"frame-epoch-0")
        assert injector.stale_frame(0) == b"frame-epoch-0"


class TestModeratePlanAndEnv:
    def test_moderate_plan_is_recoverable_only(self):
        plan = moderate_plan()
        assert plan.active
        assert FaultKind.CRASH not in plan.rates
        for kind in plan.rates:
            assert kind in RETRIABLE_KINDS or kind is FaultKind.DUPLICATE
