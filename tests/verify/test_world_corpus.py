"""Golden CRC corpus for the weakened worlds.

Every §5 world the engines model — Gaussian sensing noise, uniform and
sawtooth stale looks, square and hex lattices, a visibility radius —
is run at two seeds and pinned by a CRC over the observable run: the
trace steps (time, activation set, exact positions) plus every robot's
received bit events, the same recipe as
:meth:`repro.serve.session.Session.trace_crc`.  Any behaviour change in
a world model trips the corpus.

The corpus lives beside the matrix regression seeds in
``tests/verify/seeds.json`` under the ``world_corpus`` key.  Regenerate
after an intentional world-model change with::

    PYTHONPATH=src:. python - <<'PY'
    import json, pathlib
    from tests.verify import test_world_corpus as twc
    entries = [
        {"world": world, "seed": seed, "crc": twc.world_crc(world, seed)}
        for world in twc.WORLDS for seed in twc.SEEDS
    ]
    path = pathlib.Path("tests/verify/seeds.json")
    corpus = json.loads(path.read_text())
    corpus[twc.CORPUS_KEY] = entries
    path.write_text(json.dumps(corpus, indent=2) + "\\n")
    PY
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import zlib
from typing import List, Tuple

import pytest

from repro.apps.harness import ring_positions
from repro.discrete.lattice import HexLattice, SquareLattice
from repro.discrete.lattice_protocol import LatticeLogKProtocol
from repro.errors import ModelError
from repro.events.delay import ConstantDelay
from repro.events.engine import EventSimulator
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.model.scheduler import SynchronousScheduler
from repro.model.simulator import Simulator
from repro.model.world import GaussianNoise, StaleLook
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.verify.scenarios import CELLS, build_run
from repro.visibility.protocol import LocalGranularProtocol

pytestmark = [pytest.mark.events, pytest.mark.verify]

_CORPUS_PATH = pathlib.Path(__file__).parent / "seeds.json"
CORPUS_KEY = "world_corpus"

WORLDS: Tuple[str, ...] = (
    "noise",
    "stale_uniform",
    "sawtooth_rounds",
    "sawtooth_events",
    "square_lattice",
    "hex_lattice",
    "visibility_rounds",
    "visibility_events",
)
SEEDS: Tuple[int, ...] = (3, 17)


def _payload(rng: random.Random) -> List[int]:
    return [rng.randrange(2) for _ in range(3)]


def _flow(rng: random.Random, count: int) -> Tuple[int, int]:
    src = rng.randrange(count)
    dst = rng.randrange(count - 1)
    return src, dst + 1 if dst >= src else dst


def _ring_robots(**protocol_kwargs) -> List[Robot]:
    return [
        Robot(
            position=p,
            protocol=SyncGranularProtocol(**protocol_kwargs),
            sigma=4.0,
            observable_id=i,
        )
        for i, p in enumerate(ring_positions(5, radius=10.0, jitter=0.06))
    ]


def _lattice_robots(lattice, positions, k: int) -> List[Robot]:
    return [
        Robot(
            position=p,
            protocol=LatticeLogKProtocol(k=k, lattice=lattice),
            sigma=6.0,
            observable_id=i,
        )
        for i, p in enumerate(positions)
    ]


def build_world(world: str, seed: int) -> Tuple[Simulator, int]:
    """One seeded weakened-world run: the simulator, traffic queued,
    and the number of instants to drive it."""
    rng = random.Random(seed)
    if world == "noise":
        robots = _ring_robots(off_home_fraction=0.25, tolerate_ambiguity=True)
        sim: Simulator = Simulator(robots, look=GaussianNoise(0.05, seed=seed))
        steps = 12
    elif world == "stale_uniform":
        robots = _ring_robots(dilation=3)
        sim = Simulator(robots, look=StaleLook(2, seed=seed))
        steps = 30
    elif world in ("sawtooth_rounds", "sawtooth_events"):
        engine = world.split("_")[1]
        run = build_run(
            CELLS[("sync_granular", "worst_stale")], seed, quick=True, engine=engine
        )
        return run.sim, run.max_steps
    elif world == "square_lattice":
        lattice = SquareLattice(pitch=1.0)
        positions = [Vec2(12.0 * (i % 3), 12.0 * (i // 3)) for i in range(6)]
        sim = Simulator(_lattice_robots(lattice, positions, 3), lattice=lattice)
        steps = 40
    elif world == "hex_lattice":
        lattice = HexLattice(pitch=1.0)
        raw = [
            Vec2(0.0, 0.0),
            Vec2(12.0, 0.0),
            Vec2(6.0, 6.0 * math.sqrt(3.0)),
            Vec2(18.0, 6.0 * math.sqrt(3.0)),
        ]
        positions = [lattice.snap(p) for p in raw]
        sim = Simulator(_lattice_robots(lattice, positions, 2), lattice=lattice)
        steps = 40
    elif world in ("visibility_rounds", "visibility_events"):
        robots = [
            Robot(
                position=Vec2(10.0 * i, 0.0),
                protocol=LocalGranularProtocol(),
                sigma=4.0,
                observable_id=i,
            )
            for i in range(5)
        ]
        if world == "visibility_rounds":
            sim = Simulator(robots, visibility_radius=12.0)
        else:
            sim = EventSimulator(
                robots, SynchronousScheduler(), visibility_radius=12.0
            )
        # One hop along the line: the receiver is a visible neighbour.
        src = rng.randrange(4)
        src, dst = (src, src + 1) if rng.random() < 0.5 else (src + 1, src)
        sim.protocol_of(src).send_bits(dst, _payload(rng))
        return sim, 12
    else:  # pragma: no cover - WORLDS is static
        raise KeyError(world)
    src, dst = _flow(rng, sim.count)
    sim.protocol_of(src).send_bits(dst, _payload(rng))
    return sim, steps


def world_crc(world: str, seed: int) -> str:
    """Run one world and CRC its trace steps plus received bit events."""
    sim, steps = build_world(world, seed)
    sim.run(steps)
    crc = 0
    for step in sim.trace.steps:
        blob = repr(
            (
                step.time,
                tuple(sorted(step.active)),
                tuple((p.x, p.y) for p in step.positions),
            )
        )
        crc = zlib.crc32(blob.encode("ascii"), crc)
    for i in range(sim.count):
        for e in sim.protocol_of(i).received:
            crc = zlib.crc32(
                repr((i, e.time, e.src, e.dst, e.bit)).encode("ascii"), crc
            )
    return format(crc, "08x")


def _entries():
    with open(_CORPUS_PATH) as handle:
        return json.load(handle).get(CORPUS_KEY, [])


def test_corpus_covers_every_world_at_both_seeds():
    pairs = [(e["world"], e["seed"]) for e in _entries()]
    assert sorted(pairs) == sorted((w, s) for w in WORLDS for s in SEEDS)


@pytest.mark.parametrize(
    "entry", _entries(), ids=lambda e: f"{e['world']}-s{e['seed']}"
)
def test_world_run_matches_golden_crc(entry):
    assert world_crc(entry["world"], entry["seed"]) == entry["crc"]


class TestTransformBinding:
    """A look transform holds per-run state: one simulator per instance."""

    def test_a_transform_binds_to_one_simulator_only(self):
        look = GaussianNoise(0.05)
        Simulator(_ring_robots(), look=look)
        with pytest.raises(ModelError, match="already bound"):
            Simulator(_ring_robots(), look=look)

    def test_stale_looks_refuse_a_delay_model(self):
        with pytest.raises(ModelError, match="delay"):
            EventSimulator(
                _ring_robots(), look=StaleLook(2), delay=ConstantDelay(1.0)
            )

    def test_unknown_lag_policy_rejected(self):
        with pytest.raises(ModelError, match="lag policy"):
            StaleLook(2, lag="random")
