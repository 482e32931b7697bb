"""Property-based tests: flooding delivers on any connected topology."""

from __future__ import annotations

import random
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.transport import MovementChannel
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.visibility.flooding import FloodRouter
from repro.visibility.graph import shortest_route, visibility_is_connected
from repro.visibility.protocol import LocalGranularProtocol
from repro.model.simulator import Simulator

RADIUS = 12.0


def connected_positions(count: int, seed: int) -> List[Vec2]:
    """Random positions forming a connected visibility graph.

    Grown incrementally: each new robot lands within visibility range
    of an existing one (so the graph is connected by construction) but
    not too close to anyone (granulars need room).
    """
    rng = random.Random(seed)
    points = [Vec2(0.0, 0.0)]
    while len(points) < count:
        anchor = rng.choice(points)
        angle = rng.uniform(0.0, 6.28318)
        distance = rng.uniform(6.0, RADIUS * 0.95)
        candidate = anchor + Vec2.from_polar(distance, angle)
        if all(candidate.distance_to(p) > 4.0 for p in points):
            points.append(candidate)
    return points


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=3, max_value=7),
    st.integers(min_value=0, max_value=10_000),
)
def test_flooding_delivers_on_random_connected_graphs(count, seed):
    positions = connected_positions(count, seed)
    assert visibility_is_connected(positions, RADIUS)

    robots = [
        Robot(
            position=p,
            protocol=LocalGranularProtocol(),
            sigma=4.0,
            observable_id=i,
        )
        for i, p in enumerate(positions)
    ]
    simulator = Simulator(robots, visibility_radius=RADIUS)
    routers = [FloodRouter(MovementChannel(r.protocol)) for r in robots]

    src = seed % count
    dst = (src + 1 + seed // 7 % (count - 1)) % count
    if src == dst:
        dst = (dst + 1) % count

    payload = f"p{seed}".encode()
    routers[src].send(dst, payload)

    route = shortest_route(positions, RADIUS, src, dst)
    assert route is not None
    budget = 900 * (len(route) + 2)  # generous per-hop step budget
    for _ in range(budget):
        simulator.step()
        for router in routers:
            router.pump(simulator.time)
        if routers[dst].inbox:
            break

    inbox = routers[dst].inbox
    assert len(inbox) == 1, f"route {route}: expected delivery"
    assert inbox[0].payload == payload
    assert inbox[0].origin == src
