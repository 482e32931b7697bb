"""Protocol-agnostic invariant monitors on the live trace stream.

A monitor subscribes to the simulator's step stream
(:meth:`repro.model.simulator.Simulator.add_step_listener`) and checks
one of the paper's guarantees online; violations are collected, never
raised, so a single run can report every broken invariant at once.

The monitors are *protocol-agnostic*: what they check is declared by
the scenario (who sends what to whom, which robots are crash victims,
which displacements were injected), and protocol capabilities are
read off the protocol instances themselves (``idle_silent``).

Invariant names are stable identifiers — the CLI, the seed corpus and
the self-test all key on them:

==================  ====================================================
``collision``       no two robots ever occupy the same point
``silence``         traffic-free robots of silent protocols never move
``receipt``         every queued bit is delivered, exactly once, in order
``no-forged-bits``  a receiver never decodes bits the sender didn't queue
``two-per-bit``     synchronous streaming costs exactly 2 instants/bit
``scheduler``       the (adversarial) schedule itself stays legal
``staleness``       stale looks stay monotone and within the lag bound
``transparency``    caching on/off runs are bit-identical (engine-level)
==================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry.vec import Vec2
from repro.model.simulator import Simulator
from repro.model.trace import TraceStep
from repro.model.world import StaleLook

__all__ = [
    "Violation",
    "InvariantMonitor",
    "set_flag_hook",
    "CollisionFreedomMonitor",
    "SilenceMonitor",
    "ReceiptMonitor",
    "NoForgedBitsMonitor",
    "TwoInstantsPerBitMonitor",
    "SchedulerContractMonitor",
    "StalenessContractMonitor",
    "attach",
]

#: ``sent`` maps (src, dst) to the exact bit payload queued at t=0.
TrafficMap = Dict[Tuple[int, int], List[int]]

#: Observability injection point: when set, every monitor firing is
#: also dispatched as ``hook(invariant, time, message)`` — the obs
#: recorder counts firings into its metrics registry and puts them on
#: the run's event timeline.  None (the default) costs one identity
#: check per firing; verdicts are never affected.
_flag_hook: Optional[Callable[[str, int, str], None]] = None


def set_flag_hook(
    hook: Optional[Callable[[str, int, str], None]],
) -> Optional[Callable[[str, int, str], None]]:
    """Install (or clear, with None) the monitor-firing hook.

    Returns the previously installed hook so callers can restore it.
    """
    global _flag_hook
    previous = _flag_hook
    _flag_hook = hook
    return previous


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken invariant.

    Attributes:
        invariant: stable invariant identifier (see module docstring).
        time: the instant at which the breach was detected (-1 for
            end-of-run checks).
        message: human-readable diagnosis.
    """

    invariant: str
    time: int
    message: str

    def __str__(self) -> str:
        when = f"t={self.time}" if self.time >= 0 else "end"
        return f"[{self.invariant} @ {when}] {self.message}"


class InvariantMonitor:
    """Base class: collects violations over one run."""

    #: stable identifier of the invariant this monitor checks
    name: str = "invariant"

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def on_step(self, sim: Simulator, step: TraceStep) -> None:
        """Called after every simulator step (the trace stream)."""

    def finish(self, sim: Simulator) -> None:
        """Called once after the run, for end-of-run checks."""

    def _flag(self, time: int, message: str) -> None:
        self.violations.append(Violation(self.name, time, message))
        if _flag_hook is not None:
            _flag_hook(self.name, time, message)


def attach(sim: Simulator, monitors: Sequence[InvariantMonitor]) -> None:
    """Subscribe every monitor to the simulator's step stream."""
    for monitor in monitors:
        sim.add_step_listener(monitor.on_step)


class CollisionFreedomMonitor(InvariantMonitor):
    """Section 3.2's guarantee: robots never collide.

    Checked at every instant on the exact configuration — two robots
    on the same point is a violation, however briefly.
    """

    name = "collision"

    def on_step(self, sim: Simulator, step: TraceStep) -> None:
        positions = step.positions
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                if positions[i] == positions[j]:
                    self._flag(
                        step.time,
                        f"robots {i} and {j} collided at {positions[i]!r}",
                    )


class SilenceMonitor(InvariantMonitor):
    """The silence property: no traffic, no movement.

    Applies only to robots whose protocol declares ``idle_silent`` and
    that never had outgoing traffic; displacement injections are
    exempt (a teleport is a fault, not a protocol movement).
    """

    name = "silence"

    def __init__(
        self,
        senders: Set[int],
        displaced: Optional[Set[int]] = None,
    ) -> None:
        super().__init__()
        self._senders = set(senders)
        self._displaced = set(displaced or ())
        self._previous: Optional[Tuple[Vec2, ...]] = None

    def on_step(self, sim: Simulator, step: TraceStep) -> None:
        previous = (
            self._previous if self._previous is not None else sim.trace.initial_positions
        )
        for i, position in enumerate(step.positions):
            if i in self._senders or i in self._displaced:
                continue
            if not sim.protocol_of(i).idle_silent:
                continue
            if position != previous[i]:
                self._flag(
                    step.time,
                    f"silent robot {i} moved from {previous[i]!r} to "
                    f"{position!r} with no traffic queued",
                )
        self._previous = step.positions


class ReceiptMonitor(InvariantMonitor):
    """Emission + Receipt: queued bits arrive exactly once, in order.

    The strongest of the paper's correctness claims: for every
    declared flow ``(src, dst)``, the receiver's decoded stream from
    ``src`` equals the queued payload — no loss, no duplication, no
    reordering, no corruption.
    """

    name = "receipt"

    def __init__(self, sent: TrafficMap) -> None:
        super().__init__()
        self._sent = dict(sent)

    def finish(self, sim: Simulator) -> None:
        for (src, dst), bits in self._sent.items():
            received = [
                e.bit for e in sim.protocol_of(dst).received if e.src == src
            ]
            if received != list(bits):
                self._flag(
                    -1,
                    f"flow {src}->{dst}: queued {list(bits)}, "
                    f"delivered {received}",
                )


class NoForgedBitsMonitor(InvariantMonitor):
    """Weak-delivery soundness: nothing arrives that wasn't sent.

    Under schedules outside a protocol's envelope, bits may be *lost*
    (the receiver missed the excursion) — but a sound decoder must
    never invent, duplicate, or corrupt traffic: per declared flow,
    the delivered stream must be a subsequence of the queued payload.
    """

    name = "no-forged-bits"

    def __init__(self, sent: TrafficMap) -> None:
        super().__init__()
        self._sent = dict(sent)

    def finish(self, sim: Simulator) -> None:
        for (src, dst), bits in self._sent.items():
            received = [
                e.bit for e in sim.protocol_of(dst).received if e.src == src
            ]
            if not _is_subsequence(received, list(bits)):
                self._flag(
                    -1,
                    f"flow {src}->{dst}: delivered {received} is not a "
                    f"subsequence of queued {list(bits)}",
                )


def _is_subsequence(candidate: List[int], reference: List[int]) -> bool:
    it = iter(reference)
    return all(any(bit == ref for ref in it) for bit in candidate)


class TwoInstantsPerBitMonitor(InvariantMonitor):
    """The synchronous rate: bit ``k`` of a stream decodes at ``2k+1``.

    Holds for the side-step protocols (Sections 3.1/3.2) when the
    payload is queued before the first instant and every live robot is
    activated at every instant: excursion at ``2k``, observed and
    decoded at ``2k+1``, home again at ``2k+1`` — exactly two instants
    per bit, which is also the paper's throughput claim.
    """

    name = "two-per-bit"

    def __init__(self, sent: TrafficMap) -> None:
        super().__init__()
        self._sent = dict(sent)

    def finish(self, sim: Simulator) -> None:
        for (src, dst), bits in self._sent.items():
            events = [e for e in sim.protocol_of(dst).received if e.src == src]
            if len(events) != len(bits):
                # Loss is receipt's domain; rate cannot be assessed.
                continue
            for k, event in enumerate(events):
                if event.time != 2 * k + 1:
                    self._flag(
                        event.time,
                        f"flow {src}->{dst}: bit {k} decoded at t={event.time}, "
                        f"expected t={2 * k + 1} (2 instants per bit)",
                    )
                    break


class SchedulerContractMonitor(InvariantMonitor):
    """The adversary itself must stay a legal SSM scheduler.

    Checks, per instant: the activation set is nonempty and in range;
    crash victims are never activated after the crash instant; and —
    when a fairness bound is declared — no live robot's inactivity gap
    ever exceeds it.  This is how the verifier verifies its own
    adversaries (and how the scheduler-mutant self-test is caught).
    """

    name = "scheduler"

    def __init__(
        self,
        fairness_bound: Optional[int] = None,
        crashed: Optional[Set[int]] = None,
        crash_time: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._bound = fairness_bound
        self._crashed = set(crashed or ())
        self._crash_time = crash_time
        self._last_active: Optional[List[int]] = None

    def on_step(self, sim: Simulator, step: TraceStep) -> None:
        count = sim.count
        if self._last_active is None:
            self._last_active = [-1] * count
        active = step.active
        if not active:
            self._flag(step.time, "empty activation set")
        out_of_range = [i for i in active if not (0 <= i < count)]
        if out_of_range:
            self._flag(step.time, f"activation of unknown robots {out_of_range}")
        if self._crash_time is not None and step.time >= self._crash_time:
            dead_active = sorted(self._crashed & set(active))
            if dead_active:
                self._flag(
                    step.time,
                    f"crashed robots {dead_active} activated after "
                    f"t={self._crash_time}",
                )
        if self._bound is not None:
            for i in range(count):
                if i in self._crashed:
                    continue
                gap = step.time - self._last_active[i]
                if gap > self._bound:
                    self._flag(
                        step.time,
                        f"robot {i} starved for {gap} instants "
                        f"(declared fairness bound {self._bound})",
                    )
        for i in active:
            if 0 <= i < count:
                self._last_active[i] = step.time


class StalenessContractMonitor(InvariantMonitor):
    """Stale looks must be monotone and boundedly old.

    For runs whose world has a :class:`~repro.model.world.StaleLook`
    (CORDA-style): every robot's look time never decreases (a robot
    never un-sees) and an activated robot's look lags the present by
    at most ``max_delay`` instants.  Other worlds are not checked.
    """

    name = "staleness"

    def __init__(self) -> None:
        super().__init__()
        self._previous_looks: Optional[List[int]] = None

    def on_step(self, sim: Simulator, step: TraceStep) -> None:
        look = sim.look
        if not isinstance(look, StaleLook):
            return
        max_delay = look.max_delay
        look_of = look.look_time_of
        count = sim.count
        if self._previous_looks is None:
            self._previous_looks = [0] * count
        for i in range(count):
            look = look_of(i)
            if look < self._previous_looks[i]:
                self._flag(
                    step.time,
                    f"robot {i} un-saw: look time went {self._previous_looks[i]} "
                    f"-> {look}",
                )
            if i in step.active and step.time - look > max_delay:
                self._flag(
                    step.time,
                    f"robot {i} looked at t={look}, lag "
                    f"{step.time - look} exceeds max_delay={max_delay}",
                )
            self._previous_looks[i] = look
