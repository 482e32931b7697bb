"""``serve_mix``: open-loop users against the in-process session service.

Users arrive at fixed rates (a Poisson process conditioned on its count,
see :mod:`perfbench.loadgen`).  Each user opens one session through
:class:`~repro.serve.client.ServeClient` (mostly two-robot ``chat``,
some 16-robot ``gossip``), steps it to completion with a ``send`` and
``query`` calls in between, pauses once midway, reads the outcome and
closes it.  The manager runs on the default ``make_pool()`` with a
session store and a ``max_live`` below the number of sessions open at
the nominal rate: paused sessions are checkpointed and evicted, and
restored (with the CRC check) when their user comes back.

A run warms up, measures ``seconds`` at the nominal rate and lets
those sessions finish.  The traced run also climbs the ladder, after
its untraced half, until a rung misses the step-latency limit or grows
a backlog: ``serve.max_ok_rate``.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from perfbench import core
from perfbench.loadgen import Meter, Rung, UserSession, run_rung, settle


def _geometric(first: float, ratio: float, count: int) -> Tuple[float, ...]:
    return tuple(round(first * ratio ** i, 1) for i in range(count))


@dataclass(frozen=True)
class Params:
    """The traffic shape and the load.  README.md gives the source of
    every value: taken from ``repro.serve.bench``, from the workload's
    definition, or an assumption and why it was made."""

    #: the rate the latency metrics are measured at (sessions/s):
    #: about 40% of the capacity measured when it was chosen
    nominal: float = 2.0
    #: the rungs the traced run climbs after its untraced nominal
    #: window: twice the nominal rate, up by 10% a rung, to about 5x
    #: the capacity measured when the ladder was chosen
    ladder: Tuple[float, ...] = _geometric(4.0, 1.1, 20)
    #: seconds per ladder rung
    rung_s: float = 2.0
    #: unmeasured warm-up at the nominal rate (s): the paused population
    #: reaches its steady size and first-call costs are paid
    warmup_s: float = 4.0
    #: a rung passes when the p99 of the step requests that fell due
    #: during it stays under this (ms) and its backlog does not grow
    step_limit_ms: float = 300.0
    #: a rung stops admitting users once more sessions are open than
    #: this many times its steady number (rate x mean pause), plus 10
    max_backlog: float = 1.5
    #: one session in this many is gossip, the rest chat (assumption)
    gossip_every: int = 5
    gossip_size: int = 16
    #: as ``repro.serve.bench`` steps its chat sessions
    instants_per_step: int = 16
    #: live (non-pause) queries after every this many steps (assumption)
    query_every: int = 5
    #: each user pauses once, after this many steps, for a time drawn
    #: uniformly from ``pause_s``, and queries its session mid-pause
    #: (assumption: the pause is what makes sessions idle, and so
    #: evictable)
    pause_after: int = 2
    pause_s: Tuple[float, float] = (1.0, 2.0)
    #: below the ~3 sessions paused at the nominal rate: most paused
    #: sessions are evicted and restored (assumption: it makes the
    #: checkpoint/evict/restore path run at a steady rate)
    max_live: int = 2
    #: setup_s: timed builds, each opening this many planned sessions
    setups: int = 31
    setup_sessions: int = 16
    #: cap on steps per session (a stalled session fails)
    max_steps: int = 200


#: the nominal window is cut into this many equal chunks for step and
#: for session latencies; each percentile is the median over chunks
STEP_CHUNKS = 5
SESSION_CHUNKS = 3

TINY = Params(nominal=4.0, ladder=(4.0, 8.0), rung_s=0.5, warmup_s=0.2,
              step_limit_ms=2000.0, pause_s=(0.05, 0.1), max_live=1,
              gossip_every=2, setups=2, setup_sessions=2)


def _plan(seed: int, index: int, params: Params) -> Dict[str, object]:
    """The inputs of session ``index``: a pure function of the seed."""
    rng = random.Random(seed * 1_000_003 + index)
    pause = rng.uniform(*params.pause_s)
    if index % params.gossip_every == seed % params.gossip_every:
        size = params.gossip_size
        return {
            "app": "gossip",
            "pause": pause,
            "size": size,
            "seed": rng.randrange(1 << 30),
            "params": {"rumor": rng.choice("ghijkl"),
                       "source": rng.randrange(size)},
        }
    # the ping/pong lines of ``repro.serve.bench``, with a fixed-width
    # tag so every chat carries the same number of bits
    tag = rng.randrange(100_000, 1_000_000)
    return {
        "app": "chat",
        "pause": pause,
        "size": 2,
        "seed": rng.randrange(1 << 30),
        "params": {"script": [[0, f"ping {tag}"]]},
        "send": f"pong {tag}",
        # robot 0's script line and robot 1's live send cross in flight
        "expected": [1, 1],
    }


def _manager(params: Params, root: str, tracer=None):
    from repro.serve.manager import ServeConfig, SessionManager
    from repro.serve.pool import make_pool
    from repro.serve.store import SessionStore

    return SessionManager(make_pool(), store=SessionStore(root),
                          config=ServeConfig(max_live=params.max_live),
                          tracer=tracer)


@dataclass(frozen=True)
class _Call:
    """One client call of a traced run."""

    session: int
    app: str
    op: str
    sent: float
    done: float
    trace: Optional[str]
    #: instants the call ran (step requests)
    ran: int
    #: step requests queued at the manager when the reply came back
    depth: int


class _Service:
    """One manager plus the users that drive it."""

    def __init__(self, params: Params, seed: int, root: str,
                 traced: bool) -> None:
        from repro.obs.live import RequestTracer
        from repro.serve.client import ServeClient

        self.params = params
        self.seed = seed
        # a ring large enough that no trace of the run is dropped
        self.tracer = RequestTracer(ring_size=1 << 22) if traced else None
        self.manager = _manager(params, root, self.tracer)
        self.client = ServeClient(self.manager)
        self.meter = Meter()
        #: app -> instants run, from step replies
        self.ran: Dict[str, int] = {"chat": 0, "gossip": 0}
        #: (arrival rung, plan, checkpoint) of each session that was
        #: parked when its user came to read the outcome
        self.parked: List[Tuple[Rung, Dict[str, object], Dict]] = []
        #: traced runs: every call of every session
        self.ops: List[_Call] = []
        #: traced runs: (session, start, end) of user pauses and sessions
        self.pauses: List[Tuple[int, float, float]] = []
        self.sessions: List[Tuple[int, float, float]] = []

    def watch(self, session: UserSession, index: int) -> None:
        """Traced runs: keep every call of this session."""
        app = str(_plan(self.seed, index, self.params)["app"])

        def on_call(op: str, sent: float, done: float, reply: object) -> None:
            reply = reply if isinstance(reply, dict) else {}
            self.ops.append(_Call(index, app, op, sent, done, reply.get("trace"),
                                  int(reply.get("ran", 0)),
                                  int(self.manager.stats()["queue_depth"])))

        session.on_call = on_call

    async def _pause(self, session: UserSession, index: int,
                     seconds: float) -> None:
        started = time.perf_counter()
        await session.think(seconds)
        if self.tracer is not None:
            self.pauses.append((index, started, time.perf_counter()))

    async def user(self, session: UserSession, index: int) -> bool:
        plan = _plan(self.seed, index, self.params)
        client = self.client
        app = str(plan["app"])
        sid = await session.call("create", lambda: client.create(
            app, int(plan["size"]), seed=int(plan["seed"]),
            params=dict(plan["params"])))
        status, steps = "running", 0
        while status == "running" and steps < self.params.max_steps:
            doc = await session.call("step", lambda: client.step(
                sid, self.params.instants_per_step))
            steps += 1
            self.ran[app] += int(doc.get("ran", 0))
            status = str(doc["status"])
            if status != "running":
                break
            if steps == 1 and "send" in plan:
                doc = await session.call("send", lambda: client.send(
                    sid, 1, 0, str(plan["send"])))
                status = str(doc["status"])
            elif steps == self.params.pause_after:
                # the user steps away: its session goes idle, is evicted
                # once newer sessions need the room, and answers the
                # mid-pause query from the store
                pause = float(plan["pause"])
                await self._pause(session, index, pause / 2)
                await session.call("query", lambda: client.query(sid))
                await self._pause(session, index, pause / 2)
            elif steps % self.params.query_every == 0:
                await session.call("query", lambda: client.query(sid))
        if status != "done":
            await session.call("close", lambda: client.close(sid))
            return False
        session.finished()
        # the user reads the outcome.  A session parked since its last
        # step answers with its status alone; its checkpoint is kept and
        # checked once the run is over (see ``check_parked``).
        summary = await session.call("query", lambda: client.query(sid))
        if summary.get("evicted"):
            checkpoint = await session.call(
                "checkpoint", lambda: client.checkpoint(sid))
            self.parked.append((session.rung, plan, checkpoint))
        await session.call("close", lambda: client.close(sid))
        if self.tracer is not None:
            self.sessions.append((index, session.arrival, time.perf_counter()))
        return bool(summary.get("evicted")) or _outcome_ok(plan, summary)

    def check_parked(self) -> None:
        """Check the outcome of every session that was parked when its
        user read it: restore it from its checkpoint, which replays its
        inputs and re-proves its trace CRC, and read its summary.  A
        wrong outcome, or a restore that raises, fails the session."""
        from repro.serve.session import Session

        for rung, plan, checkpoint in self.parked:
            try:
                ok = _outcome_ok(plan, Session.restore(checkpoint).summary())
            except Exception as exc:
                rung.errors.append(f"parked check: {type(exc).__name__}: {exc}")
                ok = False
            if not ok:
                rung.sessions_failed += 1


def _outcome_ok(plan: Dict[str, object], summary: Dict[str, object]) -> bool:
    """Every message delivered (chat), everyone informed (gossip)."""
    if plan["app"] == "chat":
        return summary.get("delivered") == summary.get("expected") == plan[
            "expected"]
    return summary.get("informed") == summary.get("size") == plan["size"]


def _verdict(rung: Rung, limit_ms: float) -> Dict[str, object]:
    """One rung's row: latency, backlog, and whether the rate held."""
    steps = rung.latency.get("step", [])
    p99 = 1e3 * core.p99(steps) if len(steps) > 1 else float("inf")
    return {
        "rate": rung.rate,
        "arrivals": rung.arrivals,
        "steps": len(steps),
        "step_p50_ms": round(1e3 * core.median(steps), 3) if steps else None,
        "step_p99_ms": round(p99, 3),
        "backlog_mid": rung.backlog_mid,
        "backlog_end": rung.backlog_end,
        "aborted": rung.aborted,
        "failed": rung.failed(),
        "ok": p99 <= limit_ms and not rung.growing() and rung.failed() == 0,
    }


class _Runner:
    """Drives one service through warm-up, rungs and drain."""

    def __init__(self, service: _Service, rng: random.Random) -> None:
        self.service = service
        self.rng = rng
        self.pending: Set[asyncio.Task] = set()
        self.index = 0
        self.rungs: List[Rung] = []

    async def rung(self, rate: float, seconds: float) -> Rung:
        service = self.service
        params = service.params
        steady = rate * sum(params.pause_s) / 2
        rung = await run_rung(
            rate, seconds, service.user, self.rng, self.pending, self.index,
            max_backlog=int(params.max_backlog * steady) + 10,
            on_start=service.watch if service.tracer is not None else None,
            meter=service.meter,
        )
        self.index += rung.arrivals
        self.rungs.append(rung)
        return rung

    def failures(self) -> Tuple[int, int, List[str]]:
        attempted = sum(r.attempted() for r in self.rungs)
        failed = sum(r.failed() for r in self.rungs)
        return attempted, failed, [e for r in self.rungs for e in r.errors]


async def _measure(service: _Service, params: Params, seconds: float,
                   rng: random.Random, ladder: bool):
    """Warm up, measure the nominal rate, then (optionally) the ladder.

    The nominal rung's sessions finish before the ladder starts, so
    every request of theirs is timed at the nominal load.  The CPU
    time, the instants run and the manager's counters (as deltas) are
    taken over one window: from the nominal rung's start until its
    sessions have finished.
    """
    runner = _Runner(service, rng)
    async with service.manager:
        await runner.rung(params.nominal, params.warmup_s)
        cpu0 = time.process_time()
        ran0 = dict(service.ran)
        stats0 = service.manager.stats()
        nominal = await runner.rung(params.nominal, seconds)
        await settle(runner.pending)
        cpu = time.process_time() - cpu0
        ran = {app: service.ran[app] - ran0[app] for app in ran0}
        stats1 = service.manager.stats()
        stats = {key: stats1[key] - stats0[key] for key in _COUNTERS}
        verdicts = [_verdict(nominal, params.step_limit_ms)]
        if ladder:
            for rate in params.ladder:
                verdict = _verdict(await runner.rung(rate, params.rung_s),
                                   params.step_limit_ms)
                verdicts.append(verdict)
                if not verdict["ok"]:
                    break
            await settle(runner.pending)
    service.check_parked()
    return runner, nominal, cpu, ran, stats, verdicts


#: the ``manager.stats()`` counters a run reports as deltas
_COUNTERS = ("evictions", "restores", "rejections", "checkpoint_bytes")


def _max_ok_rate(verdicts: List[Dict[str, object]]) -> float:
    """The highest ladder rate that held (0 if none did)."""
    return max((float(v["rate"]) for v in verdicts[1:] if v["ok"]),
               default=0.0)


def _setup(params: Params, seed: int, root: str) -> float:
    """Median wall time to bring the service up: build the manager on
    the default pool and store, start it, and open the first planned
    sessions.  Closing them and stopping are outside the timer."""
    from repro.serve.client import ServeClient

    plans = [_plan(seed, i, params) for i in range(params.setup_sessions)]

    async def build(path: str) -> float:
        started = time.perf_counter()
        manager = _manager(params, path)
        manager.start()
        client = ServeClient(manager)
        sids = [await client.create(str(p["app"]), int(p["size"]),
                                    seed=int(p["seed"]),
                                    params=dict(p["params"]))
                for p in plans]
        elapsed = time.perf_counter() - started
        for sid in sids:
            await client.close(sid)
        await manager.stop()
        return elapsed

    asyncio.run(build(f"{root}/warm"))  # first-call costs are not setup
    return core.median([asyncio.run(build(f"{root}/setup{i}"))
                        for i in range(params.setups)])


def run(seed: int, seconds: float, trace: bool,
        params: Params = Params()) -> core.Outcome:
    root = tempfile.mkdtemp(prefix="serve-", dir=str(core.work_dir()))
    try:
        if trace:
            return _traced(params, seed, seconds, root)
        return _measured(params, seed, seconds, root, _setup(params, seed, root))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _measured(params: Params, seed: int, seconds: float, root: str,
              setup_s: float) -> core.Outcome:
    service = _Service(params, seed, f"{root}/store", traced=False)
    runner, nominal, cpu, ran, stats, _ = asyncio.run(
        _measure(service, params, seconds, random.Random(seed), ladder=False))
    attempted, failed, errors = runner.failures()
    steps = nominal.latency.get("step", [])
    sessions = nominal.sessions

    def chunked(stamps, values, stat, chunks):
        return 1e3 * core.chunk_median(stamps, values, nominal.start,
                                       nominal.end, stat, chunks)

    # every robot of a session is activated at each of its instants
    activations = 2 * ran["chat"] + params.gossip_size * ran["gossip"]
    metrics = core.common_metrics(setup_s, attempted, failed)
    # the offered load is fixed by the arrival rate, so work per second
    # is taken over the service's busy (CPU) time, not wall time
    metrics.update({
        "instants_per_s": (sum(ran.values()) / cpu, "1/s"),
        "robots_per_s": (activations / cpu, "activations/s"),
        "events_per_s": (3 * activations / cpu, "1/s"),
        "step_p50_ms": (chunked(nominal.due["step"], steps, core.median,
                                STEP_CHUNKS), "ms"),
        "step_p95_ms": (chunked(nominal.due["step"], steps, core.p95,
                                STEP_CHUNKS), "ms"),
        "session_p50_ms": (chunked(nominal.arrived, sessions, core.median,
                                   SESSION_CHUNKS), "ms"),
        "session_p90_ms": (chunked(nominal.arrived, sessions, core.p90,
                                   SESSION_CHUNKS), "ms"),
    })
    notes = {
        "nominal": _verdict(nominal, params.step_limit_ms),
        "step_samples": len(steps),
        "session_samples": len(sessions),
        "gen.lag_p99_ms": round(1e3 * core.p99(nominal.lags), 3),
        "evictions": stats["evictions"],
        "restores": stats["restores"],
        "parked_at_done": len(service.parked),
    }
    return core.Outcome(attempted, failed, metrics, notes=notes, errors=errors)


def _traced(params: Params, seed: int, seconds: float,
            root: str) -> core.Outcome:
    """Nominal rate without, then with, the request tracer and spans.

    Every traced figure is taken over the traced service's nominal
    window (the calls sent from its start until its sessions finished);
    the warm-up before it, with its first-call costs, is left out, as in
    the untraced metrics.
    """
    half = seconds / 2
    plain = _Service(params, seed, f"{root}/plain", traced=False)
    p_runner, p_nominal, p_cpu, _, _, verdicts = asyncio.run(
        _measure(plain, params, half, random.Random(seed), ladder=True))
    service = _Service(params, seed, f"{root}/traced", traced=True)
    runner, nominal, cpu, _, stats, _ = asyncio.run(
        _measure(service, params, half, random.Random(seed), ladder=False))
    attempted, failed, errors = runner.failures()
    p_attempted, p_failed, p_errors = p_runner.failures()
    attempted += p_attempted
    failed += p_failed
    errors += p_errors

    traces = {t.trace_id: t for t in service.tracer.ring.traces()}
    window = [c for c in service.ops if c.sent >= nominal.start]
    # the sessions that arrived in the window: the span tree and table
    first = nominal.first
    spans = _span_log(service, traces, first)
    sessions = [s for s in service.sessions if s[0] >= first]
    active = sum(end - start for _, start, end in sessions) - sum(
        end - start for index, start, end in service.pauses if index >= first)
    rows, coverage = core.layer_rows(spans, active, roots=("session",),
                                     outside=("pause",))

    steps = [c for c in window if c.op == "step"]
    instants = {"chat": 0, "gossip": 0}
    executed = {"chat": 0.0, "gossip": 0.0}
    by_name: Dict[str, List[float]] = {
        "queue-wait": [], "dispatch": [], "restore": []}
    coverage_parts: List[float] = []
    for call in window:
        trace = traces.get(call.trace) if call.trace else None
        if trace is None:
            continue
        coverage_parts.append(trace.coverage())
        if call.op != "step":
            continue
        for span in trace.spans:
            if span.name in by_name:
                by_name[span.name].append(span.seconds)
            elif span.name == "execute":
                executed[call.app] += span.seconds
    for call in steps:
        instants[call.app] += call.ran
    per_1k = 1e3 / max(len(steps), 1)
    # CPU per step request, since the schedule fixes the wall time
    traced_cost = cpu / max(len(nominal.latency.get("step", [])), 1)
    plain_cost = p_cpu / max(len(p_nominal.latency.get("step", [])), 1)

    def pct(values: List[float], q) -> float:
        return 1e3 * q(values) if values else 0.0

    metrics = core.idle_layers()
    metrics.update({
        "serve.queue_wait_p50_ms": (pct(by_name["queue-wait"], core.median), "ms"),
        "serve.queue_wait_p99_ms": (pct(by_name["queue-wait"], core.p99), "ms"),
        "serve.dispatch_p99_ms": (pct(by_name["dispatch"], core.p99), "ms"),
        "serve.execute_us_per_instant.chat": (
            1e6 * executed["chat"] / max(instants["chat"], 1), "us"),
        "serve.execute_us_per_instant.gossip": (
            1e6 * executed["gossip"] / max(instants["gossip"], 1), "us"),
        "serve.restore_p50_ms": (pct(by_name["restore"], core.median), "ms"),
        "serve.restore_p99_ms": (pct(by_name["restore"], core.p99), "ms"),
        "serve.restores_per_1k_steps": (per_1k * stats["restores"], "count"),
        "serve.evictions_per_1k_steps": (per_1k * stats["evictions"], "count"),
        "serve.checkpoint_bytes_mean": (
            stats["checkpoint_bytes"] / stats["evictions"]
            if stats["evictions"] else 0.0, "bytes"),
        "serve.queue_depth_max": (
            float(max((c.depth for c in window), default=0)), "count"),
        "serve.rejections": (float(stats["rejections"]), "count"),
        "serve.span_coverage": (
            sum(coverage_parts) / len(coverage_parts) if coverage_parts else 0.0,
            "ratio"),
        "serve.max_ok_rate": (_max_ok_rate(verdicts), "sessions/s"),
        "gen.lag_p99_ms": (pct(nominal.lags, core.p99), "ms"),
        "trace_overhead_share": (traced_cost / plain_cost - 1.0, "ratio"),
        "trace_coverage": (coverage, "ratio"),
    })
    for op in ("create", "send", "query", "close"):
        metrics[f"serve.op_p99_ms.{op}"] = (
            pct(nominal.service.get(op, []), core.p99), "ms")
    notes = {
        "ladder": verdicts,
        "steps": len(steps),
        "traces": len(traces),
        "window_calls": len(window),
        "restore_spans": len(by_name["restore"]),
        "spans": len(spans),
        "instants": instants,
        "evictions": stats["evictions"],
        "restores": stats["restores"],
        "parked_at_done": len(service.parked) + len(plain.parked),
    }
    return core.Outcome(attempted, failed, metrics, table=rows, notes=notes,
                        errors=errors, spans=spans)


def _span_log(service: _Service, traces, first: int) -> core.SpanLog:
    """Session -> op -> service-span tree for the sessions from index
    ``first`` on; ``request`` is the session.

    Tracer spans hang under the client call that carried their trace
    id; user pauses hang under their session.
    """
    spans = core.SpanLog()
    roots: Dict[int, int] = {}
    for index, start, end in service.sessions:
        if index >= first:
            roots[index] = spans.add("session", start, end, request=index)
    for index, start, end in service.pauses:
        if index in roots:
            spans.add("pause", start, end, roots[index], index)
    for call in service.ops:
        if call.session not in roots:
            continue
        parent = spans.add(f"op.{call.op}", call.sent, call.done,
                           roots[call.session], call.session)
        trace = traces.get(call.trace) if call.trace else None
        for span in trace.spans if trace is not None else ():
            spans.add(span.name, span.start, span.end, parent, call.session)
    return spans
