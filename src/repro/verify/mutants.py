"""Intentionally-buggy protocol mutants: the verifier's self-test.

A monitor that never fires proves nothing.  Each mutant here breaks
exactly one of the paper's guarantees on purpose; the self-test runs
the standard monitor suite over every mutant and asserts the *expected*
invariant is reported violated.  A silent monitor is a bug in the
verifier, and ``python -m repro.verify --self-test`` fails the build.

The mutants are deliberately minimal edits of the real protocols —
the kind of regression a refactor could plausibly introduce:

==============  ====================================================
``chatty``      idle robots fidget (breaks *silence*)
``deaf``        the decoder returns nothing (breaks *receipt*)
``liar``        every queued bit is flipped at send time (*receipt*)
``forger``      the receiver invents an extra bit (*no-forged-bits*)
``slow``        the sender holds excursions twice as long (*two-per-bit*)
``rammer``      one robot steers onto another (*collision*)
``starver``     a scheduler breaks its declared fairness (*scheduler*)
``amnesiac``    a stale look rewinds its look times (*staleness*)
==============  ====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.geometry.frames import make_frames
from repro.geometry.vec import Vec2
from repro.model.observation import Observation
from repro.model.protocol import BitEvent
from repro.model.robot import Robot
from repro.model.scheduler import Scheduler, SynchronousScheduler
from repro.model.simulator import Simulator
from repro.model.world import StaleLook
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.verify.monitors import (
    CollisionFreedomMonitor,
    InvariantMonitor,
    NoForgedBitsMonitor,
    ReceiptMonitor,
    SchedulerContractMonitor,
    SilenceMonitor,
    StalenessContractMonitor,
    TwoInstantsPerBitMonitor,
    Violation,
    attach,
)

__all__ = ["MUTANTS", "MutantResult", "run_mutant", "run_self_test"]

_PAYLOAD = [1, 0, 1]
_STEPS = 60
_SRC, _DST = 0, 1


# ----------------------------------------------------------------------
# The buggy protocols
# ----------------------------------------------------------------------

class _ChattyGranular(SyncGranularProtocol):
    """Idle robots fidget by a sub-threshold amount.

    The offset is far below the decoder's off-home threshold, so peers
    still read the robot as idle — only the silence monitor can see
    the movement.  (Exactly the regression a sloppy 'return home'
    epsilon would introduce.)
    """

    def _compute(self, observation: Observation) -> Vec2:
        target = super()._compute(observation)
        if self.pending_bits == 0:
            # Alternate the sign so the fidget never accumulates past
            # the decoder's off-home epsilon.
            sign = 1.0 if self.activations % 2 else -1.0
            return target + Vec2(sign * 1e-8, 0.0)
        return target


class _DeafGranular(SyncGranularProtocol):
    """The decoder went missing: nothing is ever received."""

    def _decode(self, observation: Observation) -> List[BitEvent]:
        super()._decode(observation)  # keep sender-side state moving
        return []


class _LiarGranular(SyncGranularProtocol):
    """Every queued bit is flipped on its way into the queue."""

    def send_bit(self, dst: int, bit: int) -> None:
        super().send_bit(dst, 1 - bit)


class _ForgerGranular(SyncGranularProtocol):
    """The receiver invents one extra bit it was never sent."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._forged_once = False

    def _decode(self, observation: Observation) -> List[BitEvent]:
        events = super()._decode(observation)
        if events and not self._forged_once:
            self._forged_once = True
            first = events[0]
            events.append(
                BitEvent(time=first.time, src=first.src, dst=first.dst, bit=1)
            )
        return events


class _RammerGranular(SyncGranularProtocol):
    """Robot 2 steers straight onto robot 3's observed position."""

    def _compute(self, observation: Observation) -> Vec2:
        if self.info.index == 2:
            return observation.position_of(3)
        return super()._compute(observation)


class _StarvingScheduler(Scheduler):
    """Claims fairness but only ever activates robot 0 after t=0."""

    def activations(self, time: int, count: int) -> FrozenSet[int]:
        if time == 0:
            return frozenset(range(count))
        return frozenset({0})


class _AmnesiacStaleLook(StaleLook):
    """Periodically rewinds a robot's look clock: the robot un-sees."""

    def __call__(self, index: int, config):
        config = super().__call__(index, config)
        if self._sim.time >= 4 and self._sim.time % 4 == 0:
            self._look_times[index] = 0
        return config


# ----------------------------------------------------------------------
# Scaffold
# ----------------------------------------------------------------------

def _swarm(
    factory: Callable[[], SyncGranularProtocol],
    *,
    sigma: float = 12.0,
    seed: int = 11,
) -> List[Robot]:
    rng = random.Random(seed)
    positions: List[Vec2] = []
    while len(positions) < 4:
        p = Vec2(rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0))
        if all(p.distance_to(q) >= 5.0 for q in positions):
            positions.append(p)
    frames = make_frames(4, "sense_of_direction", seed=seed)
    return [
        Robot(position=p, protocol=factory(), frame=frames[i], sigma=sigma,
              observable_id=i)
        for i, p in enumerate(positions)
    ]


def _standard_monitors(
    sent: Dict[Tuple[int, int], List[int]],
    fairness: Optional[int] = 1,
) -> List[InvariantMonitor]:
    return [
        CollisionFreedomMonitor(),
        SilenceMonitor(senders={_SRC}),
        ReceiptMonitor(sent),
        NoForgedBitsMonitor(sent),
        TwoInstantsPerBitMonitor(sent),
        SchedulerContractMonitor(fairness_bound=fairness),
    ]


def _build(mutant: str) -> Tuple[Simulator, List[InvariantMonitor]]:
    sent = {(_SRC, _DST): list(_PAYLOAD)}

    if mutant == "starver":
        robots = _swarm(lambda: SyncGranularProtocol(naming="identified"))
        sim: Simulator = Simulator(robots, _StarvingScheduler())
        # The scheduler *claims* the built-in fairness window of 4.
        monitors = _standard_monitors(sent, fairness=4)
        # Under starvation nothing is delivered; receipt/rate noise
        # would mask the scheduler violation we are testing for.
        monitors = [
            m for m in monitors
            if m.name not in ("receipt", "two-per-bit", "silence")
        ]
    elif mutant == "amnesiac":
        robots = _swarm(
            lambda: SyncGranularProtocol(naming="identified", dilation=3)
        )
        sim = Simulator(
            robots,
            SynchronousScheduler(),
            look=_AmnesiacStaleLook(2, lag="sawtooth"),
        )
        monitors = [StalenessContractMonitor()]
    else:
        protocol_cls = {
            "chatty": _ChattyGranular,
            "deaf": _DeafGranular,
            "liar": _LiarGranular,
            "forger": _ForgerGranular,
            "slow": None,  # real protocol, wrong dilation
            "rammer": _RammerGranular,
        }[mutant]
        if mutant == "slow":
            factory: Callable[[], SyncGranularProtocol] = (
                lambda: SyncGranularProtocol(naming="identified", dilation=2)
            )
        elif mutant == "rammer":
            # Peers cannot classify the rammer's rogue trajectory; let
            # them shrug it off so the collision itself is what fails.
            factory = lambda: protocol_cls(
                naming="identified", tolerate_ambiguity=True
            )
        else:
            factory = lambda: protocol_cls(naming="identified")
        sigma = 60.0 if mutant == "rammer" else 12.0
        robots = _swarm(factory, sigma=sigma)
        sim = Simulator(robots, SynchronousScheduler())
        monitors = _standard_monitors(sent)
        if mutant == "rammer":
            # The rammer moves without traffic by design; silence noise
            # would mask the collision we are testing for.
            monitors = [m for m in monitors if m.name != "silence"]

    sim.protocol_of(_SRC).send_bits(_DST, _PAYLOAD)
    return sim, monitors


#: mutant name -> (description, the invariant its bug must trip)
MUTANTS: Dict[str, Tuple[str, str]] = {
    "chatty": ("idle robots fidget below the decode threshold", "silence"),
    "deaf": ("the decoder returns nothing", "receipt"),
    "liar": ("queued bits are flipped at send time", "receipt"),
    "forger": ("the receiver invents an extra bit", "no-forged-bits"),
    "slow": ("excursions held twice as long as claimed", "two-per-bit"),
    "rammer": ("one robot steers onto another", "collision"),
    "starver": ("the scheduler breaks its declared fairness", "scheduler"),
    "amnesiac": ("the stale look rewinds its look times", "staleness"),
}


@dataclass
class MutantResult:
    """Outcome of running the monitors over one buggy mutant."""

    name: str
    expected: str
    violations: List[Violation]

    @property
    def caught(self) -> bool:
        return any(v.invariant == self.expected for v in self.violations)


def run_mutant(name: str) -> MutantResult:
    """Run one mutant under the standard monitors."""
    if name not in MUTANTS:
        raise KeyError(
            f"unknown mutant {name!r} (choose from {sorted(MUTANTS)})"
        )
    sim, monitors = _build(name)
    attach(sim, monitors)
    for _ in range(_STEPS):
        sim.step()
    for monitor in monitors:
        monitor.finish(sim)
    violations = [v for m in monitors for v in m.violations]
    return MutantResult(name, MUTANTS[name][1], violations)


def run_self_test() -> List[MutantResult]:
    """Run every mutant; each must be caught by its expected monitor."""
    return [run_mutant(name) for name in MUTANTS]
