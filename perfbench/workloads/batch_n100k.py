"""``batch_n100k``: build a kernel-mode ``BatchSimulator`` at n=100k, run it.

The swarm is identified ``SyncGranularProtocol`` robots on a jittered
grid, the envelope the vectorized granular kernel accepts.  Building
it (the SoA arrays, the nearest-neighbour pass, the SEC) is what
``setup_s`` measures; the run, with one sender sending one-bit
messages back to back, is what ``robots_per_s`` measures.  A "session"
here is one bit, from queued to received.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import List

from perfbench import core


@dataclass(frozen=True)
class Params:
    n: int = 100_000
    setups: int = 3
    drain_steps: int = 200


TINY = Params(n=2_000, setups=2)


def _inputs(seed: int, params: Params):
    """Positions and frames (shared by every build), sender, receiver."""
    import math

    from repro.geometry.frames import make_frames
    from repro.geometry.vec import Vec2

    rng = random.Random(seed)
    n = params.n
    side = int(math.ceil(math.sqrt(n)))
    positions = []
    for i in range(n):
        row, col = divmod(i, side)
        positions.append(Vec2(col * 10.0 + rng.uniform(-2.0, 2.0),
                              row * 10.0 + rng.uniform(-2.0, 2.0)))
    frames = make_frames(n, "sense_of_direction", seed=rng.randrange(1 << 30))
    sender, receiver = rng.sample(range(n), 2)
    return positions, frames, sender, receiver, random.Random(rng.random())


def _robots(positions, frames) -> list:
    """Fresh robots (a simulator binds their protocols, so one set each)."""
    from repro.model.robot import Robot
    from repro.protocols.sync_granular import SyncGranularProtocol

    return [
        Robot(position=p, protocol=SyncGranularProtocol(naming="identified"),
              frame=frames[i], sigma=12.0, observable_id=i)
        for i, p in enumerate(positions)
    ]


def _build(robots):
    from repro.batch.engine import BatchSimulator
    from repro.model.trace import TracePolicy

    return BatchSimulator(robots, trace_policy=TracePolicy(stride=1_000))


class _Bits:
    """One sender, one bit in flight at a time; times each to receipt."""

    def __init__(self, sim, sender: int, receiver: int, rng: random.Random):
        self.sender = sim.protocol_of(sender)
        self.receiver = sim.protocol_of(receiver)
        self.receiver_index = receiver
        self.sender_index = sender
        self.rng = rng
        self.sent: List[int] = []
        self.queued: List[float] = []
        self.latencies: List[float] = []

    def refill(self) -> None:
        if not self.sender.pending_bits:
            bit = self.rng.randrange(2)
            self.sender.send_bit(self.receiver_index, bit)
            self.sent.append(bit)
            self.queued.append(time.perf_counter())

    def collect(self) -> None:
        got = len(self.receiver.received)
        done = len(self.latencies)
        now = time.perf_counter()
        while done < got and done < len(self.queued):
            self.latencies.append(now - self.queued[done])
            done += 1

    def wrong(self) -> bool:
        events = self.receiver.received
        return [e.bit for e in events] != self.sent or any(
            e.src != self.sender_index for e in events)


def _loop(sim, bits: _Bits, seconds: float, clock=None, spans=None):
    return core.run_steps(lambda: sim.run(1), seconds, bits.refill,
                          lambda _: bits.collect(), clock, spans)


def run(seed: int, seconds: float, trace: bool,
        params: Params = Params()) -> core.Outcome:
    positions, frames, sender, receiver, rng = _inputs(seed, params)
    times = []
    sim = None
    for _ in range(1 if trace else params.setups):
        sim = None
        gc.collect()
        robots = _robots(positions, frames)
        elapsed, sim = core.timed(lambda: _build(robots))
        del robots
        times.append(elapsed)
    setup_s = core.median(times)
    errors = []
    if sim.mode != "kernel":
        errors.append(f"BatchSimulator ran in {sim.mode!r} mode, not kernel")
    bits = _Bits(sim, sender, receiver, rng)

    if trace:
        plain, _, p0, p1 = _loop(sim, bits, seconds / 2)
        spans = core.SpanLog()
        clock = core.PhaseClock(spans)
        sim.set_phase_hook(clock.hook)
        traced, _, t0, t1 = _loop(sim, bits, seconds / 2, clock, spans)
        sim.set_phase_hook(None)
        plain_wall, traced_wall = p1 - p0, t1 - t0
    else:
        steps, ends, start, end = _loop(sim, bits, seconds)
    for _ in range(params.drain_steps):
        if len(bits.receiver.received) >= len(bits.sent):
            break
        sim.run(1)
    bits.collect()
    attempted = len(bits.sent)
    failed = 0
    if bits.wrong():
        failed = attempted
        errors.append("the receiver decoded bits that were not sent")
    if errors:
        failed = attempted

    if trace:
        counters = {row["name"]: row["value"]
                    for row in sim.stats.registry.collect()
                    if row["type"] == "counter"}
        sim = None
        gc.collect()
        rows, coverage = core.layer_rows(spans, traced_wall, roots=("step",))
        build_spans = core.SpanLog()
        build_s, parts = _build_parts(positions, frames, build_spans)
        build_rows, _ = core.layer_rows(build_spans, build_s)
        rows += build_rows
        spans = _merge(spans, build_spans)
        totals = clock.totals
        metrics = core.idle_layers()
        metrics.update({
            f"batch.phase_share.{phase}": (totals.get(phase, 0.0) / traced_wall,
                                           "ratio")
            for phase in ("schedule", "compute", "move", "record")
        })
        metrics.update({
            "batch.arrays_s": (parts["arrays"], "s"),
            "batch.neighbors_s": (parts["neighbors"], "s"),
            "batch.sec_s": (parts["sec"], "s"),
            "batch.build_coverage": (sum(parts.values()) / build_s, "ratio"),
            "batch.neighbor_passes": (float(counters.get("batch_neighbor_passes", 0)),
                                      "count"),
            "batch.sec_fallbacks": (float(counters.get("batch_sec_fallbacks", 0)),
                                    "count"),
            "batch.array_reallocs": (float(counters.get("batch_array_reallocs", 0)),
                                     "count"),
            "trace_overhead_share": (
                (traced_wall / len(traced)) / (plain_wall / len(plain)) - 1.0,
                "ratio"),
            "trace_coverage": (coverage, "ratio"),
        })
        notes = {"plain_steps": len(plain), "traced_steps": len(traced),
                 "build_s": build_s, "spans": len(spans)}
        return core.Outcome(attempted, failed, metrics, table=rows,
                            notes=notes, errors=errors, spans=spans)

    n = params.n
    latencies = bits.latencies
    metrics = core.common_metrics(setup_s, attempted, failed)
    metrics.update(core.rate_metrics(start, end, len(ends), n * len(ends),
                                     3 * n * len(ends)))
    metrics.update({
        "step_p50_ms": (core.step_median_ms(steps, ends, start, end), "ms"),
        "step_p95_ms": (1e3 * core.p95(steps), "ms"),
        "session_p50_ms": (1e3 * core.median(latencies), "ms"),
        "session_p90_ms": (1e3 * core.p90(latencies), "ms"),
    })
    notes = {"step_samples": len(steps), "session_samples": len(latencies),
             "setup_samples": times, "mode": sim.mode}
    return core.Outcome(attempted, failed, metrics, notes=notes, errors=errors)


def _build_parts(positions, frames, spans: core.SpanLog):
    """Time a whole build, then its public steps one by one, on one swarm.

    ``SwarmArrays`` -> ``nearest_neighbor_radii`` -> ``batch_sec`` are
    the build's heavy passes; their sum over the build time is the
    build coverage.
    """
    from repro.batch.arrays import SwarmArrays
    from repro.batch.neighbors import nearest_neighbor_radii
    from repro.batch.sec import batch_sec

    robots = _robots(positions, frames)
    t0 = time.perf_counter()
    sim = _build(robots)
    build_s = time.perf_counter() - t0
    spans.add("build", t0, t0 + build_s)
    del sim
    gc.collect()
    root = spans.open("build.parts", time.perf_counter())
    t0 = time.perf_counter()
    arrays = SwarmArrays(robots)
    t1 = time.perf_counter()
    nearest_neighbor_radii(arrays.ax, arrays.ay)
    t2 = time.perf_counter()
    batch_sec(arrays.px, arrays.py)
    t3 = time.perf_counter()
    spans.add("arrays", t0, t1, root)
    spans.add("neighbors", t1, t2, root)
    spans.add("sec", t2, t3, root)
    spans.close(root, t3)
    return build_s, {"arrays": t1 - t0, "neighbors": t2 - t1, "sec": t3 - t2}


def _merge(first: core.SpanLog, second: core.SpanLog) -> core.SpanLog:
    """One log holding both (parent indices of ``second`` shifted)."""
    offset = len(first)
    for i in range(len(second)):
        parent = second.parent[i]
        first.add(second.names[second.name[i]], second.start[i], second.end[i],
                  parent + offset if parent >= 0 else -1, second.request[i])
    return first
