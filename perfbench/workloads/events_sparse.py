"""``events_sparse``: the event engine at n=10k robots and 1% duty.

Idle robots (decode nothing, stay put) on a jittered grid, with unit
Look/Compute/Move phases separated by exponential gaps sized for a 1%
duty cycle, limited visibility and lazy initial views: the huge-swarm
path of :class:`~repro.events.engine.EventSimulator`.  The protocol
does no work, so the run measures the engine's per-event cost.  A
"session" here is one activation cycle's worth of simulated time (the
3 time units of Look, Compute and Move) in wall time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Tuple

from perfbench import core

#: Look, Compute and Move take one time unit each.
ACTIVE_SPAN = 3.0
DUTY = 0.01
#: mean gap so that active / (active + gap) = DUTY
GAP_MEAN = ACTIVE_SPAN * (1.0 - DUTY) / DUTY
#: the achieved duty must land in this band
DUTY_BAND = (0.5 * DUTY, 1.5 * DUTY)

#: phase-hook names -> per-layer names: the robot hook marks Look,
#: Compute and Move; the step-level marks split off the rest
_PHASES = {"compute": "pop", "compute.observe": None, "compute.decide": None,
           "move": "apply", "record": "record", "end": "end"}


@dataclass(frozen=True)
class Params:
    n: int = 10_000
    radius: float = 25.0
    setups: int = 3


TINY = Params(n=500, setups=2)


def _idle_protocol():
    from repro.model.protocol import Protocol

    class IdleProtocol(Protocol):
        """Decode nothing, go nowhere."""

        def _decode(self, observation):
            return []

        def _compute(self, observation):
            return observation.self_position

    return IdleProtocol


def _inputs(seed: int, params: Params):
    import math

    from repro.geometry.frames import make_frames
    from repro.geometry.vec import Vec2

    rng = random.Random(seed)
    side = int(math.ceil(math.sqrt(params.n)))
    positions = []
    for i in range(params.n):
        row, col = divmod(i, side)
        positions.append(Vec2(col * 10.0 + rng.uniform(-2.0, 2.0),
                              row * 10.0 + rng.uniform(-2.0, 2.0)))
    frames = make_frames(params.n, "sense_of_direction",
                         seed=rng.randrange(1 << 30))
    return positions, frames, rng.randrange(1 << 30)


def _build(positions, frames, engine_seed: int, params: Params, registry):
    from repro.events.distributions import Deterministic, Exponential
    from repro.events.engine import EventSimulator
    from repro.events.timing import TimingModel
    from repro.model.robot import Robot
    from repro.model.trace import TracePolicy

    idle = _idle_protocol()
    robots = [Robot(position=p, protocol=idle(), frame=frames[i], sigma=1.0,
                    observable_id=i) for i, p in enumerate(positions)]
    timing = TimingModel.free(
        look=Deterministic(1.0),
        compute=Deterministic(1.0),
        move=Deterministic(1.0),
        gap=Exponential(mean=GAP_MEAN),
        max_gap=4.0 * GAP_MEAN,
        # staggered first looks keep the swarm sparse from the start
        activate_all_first=False,
    )
    started = time.perf_counter()
    sim = EventSimulator(robots, None, timing=timing, seed=engine_seed,
                         registry=registry, visibility_radius=params.radius,
                         lazy_views=True,
                         trace_policy=TracePolicy(stride=1_000))
    return time.perf_counter() - started, sim


def _loop(sim, seconds: float, clock=None, spans=None):
    """Step for ``seconds``; also notes the events each step processed
    and when the clock completed each cycle span."""
    events: List[float] = []
    cycles: List[float] = []
    last = [sim.events_processed, sim.clock + ACTIVE_SPAN]

    def after(now: float) -> None:
        processed = sim.events_processed
        events.append(processed - last[0])
        last[0] = processed
        if sim.clock >= last[1]:
            cycles.append(now)
            last[1] = sim.clock + ACTIVE_SPAN

    steps, ends, start, end = core.run_steps(sim.step, seconds, None, after,
                                             clock, spans)
    return steps, ends, start, end, events, cycles


def _warm(sim) -> None:
    """Run until nearly every robot has made its first Look: a robot's
    first observation builds its cached view, which later ones reuse."""
    while sim.clock < 3.0 * GAP_MEAN:
        sim.step()


def _counts(registry) -> Tuple[float, float, float]:
    """(events processed, cycles completed, heap depth max)."""
    from repro.obs.history import metrics_from_snapshot

    snap = metrics_from_snapshot(registry.collect())
    events = sum(v for k, v in snap.items() if k.startswith("event_count{"))
    return events, snap.get("event_count{phase=move}", 0.0), snap.get(
        "event_heap_depth_max", 0.0)


def run(seed: int, seconds: float, trace: bool,
        params: Params = Params()) -> core.Outcome:
    from repro.obs.registry import MetricsRegistry

    positions, frames, engine_seed = _inputs(seed, params)
    times = []
    for _ in range(params.setups):
        registry = MetricsRegistry()
        elapsed, sim = _build(positions, frames, engine_seed, params, registry)
        times.append(elapsed)
    setup_s = core.median(times)

    _warm(sim)
    if trace:
        plain, _, p0, p1, _, _ = _loop(sim, seconds / 2)
        spans = core.SpanLog()
        clock = core.PhaseClock(spans, rename=_PHASES)
        sim.set_phase_hook(clock.hook)
        sim.set_robot_phase_hook(clock.robot_hook)
        events0, _, _ = _counts(registry)
        steps0 = sim.time
        traced, _, t0, t1, _, _ = _loop(sim, seconds / 2, clock, spans)
        sim.set_phase_hook(None)
        sim.set_robot_phase_hook(None)
        plain_wall, traced_wall = p1 - p0, t1 - t0
    else:
        steps, ends, start, end, per_step, cycle_ends = _loop(sim, seconds)
        cycles = [b - a for a, b in zip([start] + cycle_ends, cycle_ends)]
    events, moves, heap_max = _counts(registry)

    # correctness: idle robots never move, and the duty is as designed
    duty = moves * ACTIVE_SPAN / (params.n * sim.clock) if sim.clock else 0.0
    errors = []
    if not DUTY_BAND[0] <= duty <= DUTY_BAND[1]:
        errors.append(f"achieved duty {duty:.4f} outside {DUTY_BAND}")
    if tuple(sim.positions) != tuple(positions):
        errors.append("idle robots moved")
    attempted = sim.time
    failed = attempted if errors else 0
    notes = {"duty": round(duty, 5), "setup_samples": times}

    if trace:
        rows, coverage = core.layer_rows(spans, traced_wall, roots=("step",))
        totals = clock.totals
        metrics = core.idle_layers()
        metrics.update({
            f"events.{phase}_share": (totals.get(phase, 0.0) / traced_wall, "ratio")
            for phase in ("look", "compute", "move")
        })
        metrics.update({
            "events.heap_depth_max": (heap_max, "count"),
            "events.steps_per_event": ((sim.time - steps0) / (events - events0),
                                       "ratio"),
            "trace_overhead_share": (
                (traced_wall / len(traced)) / (plain_wall / len(plain)) - 1.0,
                "ratio"),
            "trace_coverage": (coverage, "ratio"),
        })
        notes.update(plain_steps=len(plain), traced_steps=len(traced),
                     spans=len(spans))
        return core.Outcome(attempted, failed, metrics, table=rows,
                            notes=notes, errors=errors, spans=spans)

    metrics = core.common_metrics(setup_s, attempted, failed)
    # each activation cycle is one Look, one Compute and one Move event
    metrics.update(core.rate_metrics(start, end, len(ends),
                                     sum(per_step) / 3.0, sum(per_step)))
    metrics.update({
        "step_p50_ms": (core.step_median_ms(steps, ends, start, end), "ms"),
        "step_p95_ms": (1e3 * core.p95(steps), "ms"),
        "session_p50_ms": (1e3 * core.median(cycles), "ms"),
        "session_p90_ms": (1e3 * core.p90(cycles), "ms"),
    })
    notes.update(step_samples=len(steps), session_samples=len(cycles))
    return core.Outcome(attempted, failed, metrics, notes=notes, errors=errors)
