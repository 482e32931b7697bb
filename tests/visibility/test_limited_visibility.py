"""Tests for limited-visibility simulation, protocol, and routing."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.channels.transport import MovementChannel
from repro.errors import ChannelError, ModelError, ProtocolError
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.visibility.flooding import FloodRouter
from repro.visibility.protocol import LocalGranularProtocol


def line_positions(count: int, spacing: float = 10.0) -> List[Vec2]:
    return [Vec2(spacing * i, 0.0) for i in range(count)]


def build_line(count: int = 5, radius: float = 12.0) -> Tuple[
    Simulator, List[MovementChannel], List[FloodRouter]
]:
    robots = [
        Robot(
            position=p,
            protocol=LocalGranularProtocol(),
            sigma=4.0,
            observable_id=i,
        )
        for i, p in enumerate(line_positions(count))
    ]
    sim = Simulator(robots, visibility_radius=radius)
    channels = [MovementChannel(r.protocol) for r in robots]
    routers = [FloodRouter(c) for c in channels]
    return sim, channels, routers


def pump(sim, routers, steps: int) -> None:
    for _ in range(steps):
        sim.step()
        for router in routers:
            router.pump(sim.time)


class TestVisibilitySimulator:
    def test_radius_validated(self):
        robots = [Robot(position=Vec2(0, 0), protocol=LocalGranularProtocol(), observable_id=0)]
        with pytest.raises(ModelError):
            Simulator(robots, visibility_radius=0.0)

    def test_observations_filtered(self):
        sim, _, _ = build_line()
        protocol = sim.protocol_of(2)
        obs = sim._observe(2)
        assert obs.visible_indices() == (1, 2, 3)
        assert obs.get(0) is None
        with pytest.raises(KeyError):
            obs.position_of(4)

    def test_binding_knowledge_filtered(self):
        sim, _, _ = build_line()
        info = sim.protocol_of(0).info
        assert info.initial_positions[0] is not None
        assert info.initial_positions[1] is not None
        assert info.initial_positions[2] is None  # 20 > 12 away
        assert info.visibility_radius == pytest.approx(12.0)


class TestLocalGranularProtocol:
    def test_requires_visibility_system(self):
        from repro.model.simulator import Simulator

        robots = [
            Robot(position=Vec2(0, 0), protocol=LocalGranularProtocol(), observable_id=0),
            Robot(position=Vec2(5, 0), protocol=LocalGranularProtocol(), observable_id=1),
        ]
        with pytest.raises(ProtocolError):
            Simulator(robots)  # unlimited visibility -> wrong protocol

    def test_requires_roster_ids(self):
        robots = [
            Robot(position=Vec2(0, 0), protocol=LocalGranularProtocol(), observable_id=7),
            Robot(position=Vec2(5, 0), protocol=LocalGranularProtocol(), observable_id=3),
        ]
        with pytest.raises(ProtocolError):
            Simulator(robots, visibility_radius=10.0)

    def test_visible_peers(self):
        sim, _, _ = build_line()
        assert sim.protocol_of(0).visible_peers() == [1]
        assert sim.protocol_of(2).visible_peers() == [1, 3]
        assert sim.protocol_of(2).can_see(3)
        assert not sim.protocol_of(2).can_see(4)

    def test_one_hop_delivery(self):
        sim, channels, _ = build_line()
        sim.protocol_of(1).send_bits(2, [1, 0, 1])
        sim.run(8)
        assert [e.bit for e in sim.protocol_of(2).received] == [1, 0, 1]

    def test_direct_send_to_invisible_rejected(self):
        sim, _, _ = build_line()
        sim.protocol_of(0).send_bits(4, [1])
        with pytest.raises(ProtocolError):
            sim.run(2)

    def test_granular_radius_is_collision_safe(self):
        """The local radius never exceeds half the true NN distance."""
        sim, _, _ = build_line()
        # Spacing 10: true half-NN distance is 5; the local bound is
        # min(12, 10)/2 = 5.
        protocol = sim.protocol_of(2)
        assert protocol._granulars[2].radius == pytest.approx(5.0)

    def test_isolated_robot_uses_visibility_bound(self):
        positions = [Vec2(0, 0), Vec2(100, 0), Vec2(200, 0)]
        robots = [
            Robot(position=p, protocol=LocalGranularProtocol(), sigma=4.0, observable_id=i)
            for i, p in enumerate(positions)
        ]
        sim = Simulator(robots, visibility_radius=12.0)
        assert sim.protocol_of(0)._granulars[0].radius == pytest.approx(6.0)


class TestFloodRouter:
    def test_requires_local_protocol(self):
        from repro.apps.harness import SwarmHarness, ring_positions

        h = SwarmHarness(ring_positions(3, jitter=0.05), lambda: SyncGranularProtocol())
        with pytest.raises(ChannelError):
            FloodRouter(h.channel(0))

    def test_ttl_validated(self):
        sim, channels, _ = build_line(3)
        with pytest.raises(ChannelError):
            FloodRouter(channels[0], ttl=0)

    def test_multi_hop_delivery(self):
        sim, channels, routers = build_line(5)
        routers[0].send(4, "across the line")
        pump(sim, routers, 4000)
        inbox = routers[4].inbox
        assert len(inbox) == 1
        assert inbox[0].payload == b"across the line"
        assert inbox[0].origin == 0

    def test_direct_when_visible(self):
        sim, channels, routers = build_line(3)
        copies = routers[1].send(2, "adjacent")
        assert copies == 1
        pump(sim, routers, 600)
        assert routers[2].inbox[0].payload == b"adjacent"

    def test_duplicate_suppression(self):
        """A ring topology floods both ways; delivery happens once."""
        import math

        count = 6
        radius = 9.0
        ring = [Vec2.from_polar(8.0, 2 * math.pi * i / count) for i in range(count)]
        robots = [
            Robot(position=p, protocol=LocalGranularProtocol(), sigma=3.0, observable_id=i)
            for i, p in enumerate(ring)
        ]
        sim = Simulator(robots, visibility_radius=radius)
        channels = [MovementChannel(r.protocol) for r in robots]
        routers = [FloodRouter(c) for c in channels]
        # Opposite side of the ring: 3 hops either way.
        routers[0].send(3, "around")
        pump(sim, routers, 8000)
        assert [m.payload for m in routers[3].inbox] == [b"around"]

    def test_ttl_expiry_blocks_delivery(self):
        sim, channels, routers = build_line(5)
        short_ttl = FloodRouter(MovementChannel(sim.protocol_of(0)), ttl=2)
        # Rebuild router list with the short-TTL sender.
        routers = [short_ttl] + routers[1:]
        short_ttl.send(4, "too far")
        pump(sim, routers, 3000)
        assert routers[4].inbox == []

    def test_bidirectional_traffic(self):
        sim, channels, routers = build_line(4)
        routers[0].send(3, "east")
        routers[3].send(0, "west")
        pump(sim, routers, 5000)
        assert routers[3].inbox[0].payload == b"east"
        assert routers[0].inbox[0].payload == b"west"

    def test_self_send_rejected(self):
        sim, channels, routers = build_line(3)
        with pytest.raises(ChannelError):
            routers[0].send(0, "loop")
