"""Tests for the asynchronous two-robot protocol (Section 4.1, Figure 5)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.harness import SwarmHarness
from repro.errors import ProtocolError
from repro.geometry.vec import Vec2
from repro.model.scheduler import (
    FairAsynchronousScheduler,
    RoundRobinScheduler,
    SynchronousScheduler,
)
from repro.protocols.async_two import AsyncTwoProtocol


def pair(
    scheduler=None,
    bounded: bool = False,
    distance: float = 10.0,
    seed: int = 0,
) -> SwarmHarness:
    if scheduler is None:
        scheduler = FairAsynchronousScheduler(fairness_bound=4, seed=seed)
    return SwarmHarness(
        [Vec2(0.0, 0.0), Vec2(distance, 0.0)],
        protocol_factory=lambda: AsyncTwoProtocol(bounded=bounded),
        scheduler=scheduler,
        identified=False,
        sigma=distance,
    )


def deliver(h: SwarmHarness, src: int, bits, max_steps: int = 30_000):
    h.simulator.protocol_of(src).send_bits(1 - src, bits)

    def done(hh):
        return len(hh.simulator.protocol_of(1 - src).received) >= len(bits)

    assert h.pump(done, max_steps=max_steps), "bits lost"
    got = [e.bit for e in h.simulator.protocol_of(1 - src).received]
    assert got[: len(bits)] == list(bits)
    assert got[len(bits):] == []  # no duplicated bits either


class TestValidation:
    def test_needs_two(self):
        with pytest.raises(ProtocolError):
            SwarmHarness(
                [Vec2(0, 0), Vec2(5, 0), Vec2(0, 5)],
                protocol_factory=lambda: AsyncTwoProtocol(),
                identified=False,
            )

    def test_params_checked(self):
        with pytest.raises(ProtocolError):
            AsyncTwoProtocol(ack_threshold=0)
        with pytest.raises(ProtocolError):
            AsyncTwoProtocol(step_fraction=0.5)


class TestRemark43:
    def test_active_robots_always_move(self):
        """Remark 4.3 — the liveness the acknowledgements feed on."""
        h = pair(seed=5)
        h.run(200)
        trace = h.simulator.trace
        for step in trace.steps:
            before = trace.positions_at(step.time)
            for i in step.active:
                assert step.positions[i] != before[i], (
                    f"active robot {i} did not move at t={step.time}"
                )


class TestDelivery:
    def test_figure5_exchange(self):
        """Figure 5: r sends '001...', r' sends '0...'."""
        h = pair(seed=11)
        h.simulator.protocol_of(0).send_bits(1, [0, 0, 1])
        h.simulator.protocol_of(1).send_bits(0, [0])

        def done(hh):
            return (
                len(hh.simulator.protocol_of(1).received) >= 3
                and len(hh.simulator.protocol_of(0).received) >= 1
            )

        assert h.pump(done, max_steps=30_000)
        assert [e.bit for e in h.simulator.protocol_of(1).received] == [0, 0, 1]
        assert [e.bit for e in h.simulator.protocol_of(0).received] == [0]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_fair_schedules(self, seed):
        h = pair(seed=seed)
        deliver(h, 0, [1, 0, 1, 1, 0])

    @pytest.mark.parametrize("bound", [1, 2, 5, 9])
    def test_fairness_bounds(self, bound):
        h = pair(scheduler=FairAsynchronousScheduler(fairness_bound=bound, seed=3))
        deliver(h, 0, [1, 0, 0, 1])

    def test_round_robin_worst_case(self):
        h = pair(scheduler=RoundRobinScheduler())
        deliver(h, 0, [1, 1, 0])

    def test_synchronous_scheduler_also_works(self):
        """Async protocols must tolerate the strongest scheduler too."""
        h = pair(scheduler=SynchronousScheduler())
        deliver(h, 0, [0, 1, 0])

    def test_duplex(self):
        h = pair(seed=17)
        h.simulator.protocol_of(0).send_bits(1, [1, 0, 1])
        h.simulator.protocol_of(1).send_bits(0, [0, 1])

        def done(hh):
            return (
                len(hh.simulator.protocol_of(1).received) >= 3
                and len(hh.simulator.protocol_of(0).received) >= 2
            )

        assert h.pump(done, max_steps=40_000)
        assert [e.bit for e in h.simulator.protocol_of(1).received] == [1, 0, 1]
        assert [e.bit for e in h.simulator.protocol_of(0).received] == [0, 1]

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_arbitrary_bits_arbitrary_schedules(self, bits, seed):
        h = pair(seed=seed)
        deliver(h, 0, bits)


class TestBoundedVariant:
    def test_unbounded_drifts_apart(self):
        """The paper's noted drawback of the base protocol."""
        h = pair(seed=2)
        h.run(400)
        assert h.simulator.positions[0].distance_to(h.simulator.positions[1]) > 20.0

    def test_bounded_stays_in_bands(self):
        h = pair(bounded=True, seed=2)
        h.simulator.protocol_of(0).send_bits(1, [1, 0, 1, 0, 1])
        h.run(2000)
        trace = h.simulator.trace
        for time in range(len(trace) + 1):
            a, b = trace.positions_at(time)
            assert a.distance_to(Vec2(0, 0)) < 5.0
            assert b.distance_to(Vec2(10, 0)) < 5.0

    def test_bounded_never_collides(self):
        h = pair(bounded=True, seed=4)
        h.simulator.protocol_of(0).send_bits(1, [1] * 4)
        h.simulator.protocol_of(1).send_bits(0, [0] * 4)
        h.run(3000)
        assert h.simulator.trace.min_pairwise_distance() > 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_bounded_delivers(self, seed):
        h = pair(bounded=True, seed=seed)
        deliver(h, 0, [0, 1, 1, 0])


class TestAckThreshold:
    def test_paper_threshold_is_two(self):
        assert AsyncTwoProtocol().__dict__["_ack"] == 2


class TestNoiseRobustKnobs:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            AsyncTwoProtocol(on_line_fraction=0.0)
        with pytest.raises(ProtocolError):
            AsyncTwoProtocol(on_line_fraction=0.2)  # >= step_fraction
        with pytest.raises(ProtocolError):
            AsyncTwoProtocol(change_fraction=-0.1)
        with pytest.raises(ProtocolError):
            AsyncTwoProtocol(change_fraction=0.125)  # >= step_fraction

    def test_robust_delivery_under_noise(self):
        from repro.model.robot import Robot
        from repro.model.simulator import Simulator
        from repro.model.world import GaussianNoise

        robots = [
            Robot(
                position=p,
                protocol=AsyncTwoProtocol(
                    on_line_fraction=0.05, change_fraction=0.02
                ),
                sigma=10.0,
            )
            for p in (Vec2(0.0, 0.0), Vec2(10.0, 0.0))
        ]
        sim = Simulator(
            robots,
            FairAsynchronousScheduler(fairness_bound=4, seed=5),
            look=GaussianNoise(0.03, seed=5),
        )
        robots[0].protocol.send_bits(1, [1, 0, 1])
        for _ in range(20_000):
            sim.step()
            if len(robots[1].protocol.received) >= 3:
                break
        assert [e.bit for e in robots[1].protocol.received] == [1, 0, 1]

    def test_robust_mode_exact_sensing_still_works(self):
        h = pair(seed=3)
        h2 = SwarmHarness(
            [Vec2(0.0, 0.0), Vec2(10.0, 0.0)],
            protocol_factory=lambda: AsyncTwoProtocol(
                on_line_fraction=0.05, change_fraction=0.02
            ),
            scheduler=FairAsynchronousScheduler(fairness_bound=4, seed=3),
            identified=False,
            sigma=10.0,
        )
        h2.simulator.protocol_of(0).send_bits(1, [0, 1, 1])
        assert h2.pump(
            lambda hh: len(hh.simulator.protocol_of(1).received) >= 3,
            max_steps=30_000,
        )
        assert [e.bit for e in h2.simulator.protocol_of(1).received] == [0, 1, 1]
