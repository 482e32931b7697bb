"""``scalar_n64``: the round engine at n=64 with 32 senders busy.

A :class:`~repro.apps.harness.SwarmHarness` of 64 robots on
:class:`~repro.protocols.sync_granular.SyncGranularProtocol`.  Robots
0-31 each send a stream of 4-bit messages to a partner in 32-63,
queueing the next message as soon as the last one has left, so bits
are in flight for the whole run.  At this size the per-activation
observe and decide cost the full O(n^2) per round.  A "session" here
is one message, from queued to fully received.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from perfbench import core

#: phase-hook names -> per-layer names (the hook's ``compute`` marks
#: the loop entry; its dotted sub-phases carry the work)
_PHASES = {"compute.observe": "observe", "compute.decide": "decide"}


@dataclass(frozen=True)
class Params:
    n: int = 64
    senders: int = 32
    message_bits: int = 4
    setups: int = 11
    drain_steps: int = 600


TINY = Params(n=12, senders=4, setups=2)


def _inputs(seed: int, params: Params):
    """Positions, frame seed, sender -> receiver pairs, bit source."""
    from repro.geometry.vec import Vec2

    rng = random.Random(seed)
    n = params.n
    positions = [
        Vec2.from_polar(10.0, 2.0 * math.pi * i / n + rng.uniform(-0.05, 0.05))
        for i in range(n)
    ]
    receivers = list(range(params.senders, 2 * params.senders))
    rng.shuffle(receivers)
    pairs = list(zip(range(params.senders), receivers))
    return positions, rng.randrange(1 << 30), pairs, random.Random(rng.random())


def _build(positions, frame_seed: int):
    from repro.apps.harness import SwarmHarness
    from repro.protocols.sync_granular import SyncGranularProtocol

    return SwarmHarness(
        positions,
        protocol_factory=lambda: SyncGranularProtocol(),
        sigma=4.0,
        frame_seed=frame_seed,
    )


class _Traffic:
    """Keeps every sender busy; times each message to its receipt."""

    def __init__(self, sim, pairs, bits: random.Random, message_bits: int):
        self.sim = sim
        self.pairs = pairs
        self.bits = bits
        self.message_bits = message_bits
        self.sent: Dict[int, List[int]] = {s: [] for s, _ in pairs}
        #: sender -> [(bits sent up to and incl. this message, queued at)]
        self.inflight: Dict[int, List[Tuple[int, float]]] = {s: [] for s, _ in pairs}
        self.latencies: List[float] = []
        self.messages = 0

    def refill(self) -> None:
        now = time.perf_counter()
        for sender, receiver in self.pairs:
            protocol = self.sim.protocol_of(sender)
            if protocol.pending_bits:
                continue
            message = [self.bits.randrange(2) for _ in range(self.message_bits)]
            protocol.send_bits(receiver, message)
            self.sent[sender].extend(message)
            self.inflight[sender].append((len(self.sent[sender]), now))
            self.messages += 1

    def collect(self) -> None:
        now = time.perf_counter()
        for sender, receiver in self.pairs:
            queue = self.inflight[sender]
            if not queue:
                continue
            got = len(self.sim.protocol_of(receiver).received)
            while queue and queue[0][0] <= got:
                self.latencies.append(now - queue.pop(0)[1])

    def pending(self) -> bool:
        return any(self.inflight.values())

    def wrong(self) -> int:
        """Senders whose receiver decoded anything but the bits sent."""
        bad = 0
        for sender, receiver in self.pairs:
            events = self.sim.protocol_of(receiver).received
            if [e.bit for e in events] != self.sent[sender] or any(
                e.src != sender for e in events
            ):
                bad += 1
        return bad


def _loop(harness, traffic: _Traffic, seconds: float, clock=None,
          spans=None):
    """Step for ``seconds``, polling channels and timing messages."""
    def after(_: float) -> None:
        for channel in harness.channels:
            channel.poll()
        traffic.collect()

    return core.run_steps(harness.simulator.step, seconds, traffic.refill,
                          after, clock, spans)


def _drain(harness, traffic: _Traffic, params: Params) -> None:
    for _ in range(params.drain_steps):
        if not traffic.pending():
            return
        harness.simulator.step()
        traffic.collect()


def run(seed: int, seconds: float, trace: bool,
        params: Params = Params()) -> core.Outcome:
    positions, frame_seed, pairs, bits = _inputs(seed, params)
    times = []
    for _ in range(params.setups):
        elapsed, harness = core.timed(lambda: _build(positions, frame_seed))
        times.append(elapsed)
    setup_s = core.median(times)
    sim = harness.simulator
    traffic = _Traffic(sim, pairs, bits, params.message_bits)
    n = params.n

    if trace:
        plain, _, p0, p1 = _loop(harness, traffic, seconds / 2)
        spans = core.SpanLog()
        clock = core.PhaseClock(spans, rename=_PHASES)
        sim.set_phase_hook(clock.hook)
        traced, _, t0, t1 = _loop(harness, traffic, seconds / 2, clock, spans)
        sim.set_phase_hook(None)
        plain_wall, traced_wall = p1 - p0, t1 - t0
    else:
        steps, ends, start, end = _loop(harness, traffic, seconds)
    _drain(harness, traffic, params)
    wrong = traffic.wrong()
    undelivered = sum(len(q) for q in traffic.inflight.values())
    attempted = traffic.messages
    failed = min(attempted, wrong + undelivered)
    errors = []
    if wrong:
        errors.append(f"{wrong} receivers decoded bits that were not sent")
    if undelivered:
        errors.append(f"{undelivered} messages undelivered after the drain")

    if trace:
        rows, coverage = core.layer_rows(spans, traced_wall, roots=("step",))
        activations = len(traced) * n
        totals = clock.totals
        stats = sim.stats
        metrics = core.idle_layers()
        metrics.update({
            f"model.{phase}_share": (totals.get(phase, 0.0) / traced_wall, "ratio")
            for phase in ("schedule", "observe", "decide", "move", "record")
        })
        metrics.update({
            "model.observe_us_per_activation": (
                1e6 * totals.get("observe", 0.0) / activations, "us"),
            "model.decide_us_per_activation": (
                1e6 * totals.get("decide", 0.0) / activations, "us"),
            "perf.observation_reuse_rate": (stats.observation_reuse_rate, "ratio"),
            "perf.cache_hit_rate": (stats.hit_rate, "ratio"),
            "trace_overhead_share": (
                (traced_wall / len(traced)) / (plain_wall / len(plain)) - 1.0,
                "ratio"),
            "trace_coverage": (coverage, "ratio"),
        })
        notes = {"plain_steps": len(plain), "traced_steps": len(traced),
                 "spans": len(spans)}
        return core.Outcome(attempted, failed, metrics, table=rows,
                            notes=notes, errors=errors, spans=spans)

    latencies = traffic.latencies
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
             "setup_samples": len(times)}
    return core.Outcome(attempted, failed, metrics, notes=notes, errors=errors)
