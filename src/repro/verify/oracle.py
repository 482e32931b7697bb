"""The engine oracles: differential twins and causal checks.

The paper's guarantees hold on every engine only because the engines
are proven to agree.  Every executable cell of the scenario matrix
(:mod:`repro.verify.scenarios`) builds from one seed with every RNG
draw made before the simulator is constructed, so the same cell on
two engines sees the identical swarm, schedule, payload and fault
plan.  Three oracles sweep the matrix over :data:`ORACLES`:

* ``backend`` — **rounds vs batch** (:mod:`repro.batch`), requires
  numpy;
* ``event`` — **rounds vs events** (:mod:`repro.events` in
  round-emulation mode: unit phase durations, zero delay);
* ``causal`` — every cell runs instrumented with an
  :class:`~repro.obs.recorder.ObsRecorder` on ``rounds`` and on
  ``events``, and the recorded trace must rebuild (:mod:`repro.obs.
  causal`) into a clean happens-before DAG whose critical-path edge
  durations telescope to exactly each flow's end-to-end latency.

A differential comparison (:func:`compare_cell`) is strict: run
length, retained trace steps, per-robot received streams, final
configurations, configuration epochs and the full monitor verdict
lists must match exactly.  A run that raises is fine only if the twin
raises the same exception type and message — the engines promise
exception parity at the raise instant.

Which engine can run which adversary is the engine table
:data:`repro.verify.scenarios.ENGINES`; a differential pair skips any
cell one of its engines cannot run, the causal check runs each cell on
every engine that can.  Each differential oracle also re-runs every
``synchronous`` cell under a seeded
:class:`~repro.model.scheduler.FairAsynchronousScheduler` (the
fair-async arm), so all six protocols are diffed under genuinely
partial activation.

CLI: ``python -m repro.verify --backend-oracle | --event-oracle |
--causal-oracle``.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.model.scheduler import FairAsynchronousScheduler, Scheduler
from repro.verify.engine import _received_fingerprint, _trace_fingerprint, drive
from repro.verify.monitors import attach
from repro.verify.scenarios import (
    ENGINES,
    SKIPS,
    Cell,
    ScenarioRun,
    build_run,
    cells_for,
)

__all__ = [
    "ORACLES",
    "RHYTHM_ADVANCING",
    "OracleReport",
    "OracleResult",
    "check_cell",
    "compare_cell",
    "run_oracle",
]

#: The three oracles: name -> (engines, fair-async scheduler seed as
#: ``(multiplier, offset)``).  Two engines and a seed make a
#: differential pair; ``None`` means a per-engine causal check with no
#: fair-async arm.  Each pair keeps its own scheduler seed so the
#: sweep replays exactly the runs it always has.
ORACLES: Dict[str, Tuple[Tuple[str, ...], Optional[Tuple[int, int]]]] = {
    "backend": (("rounds", "batch"), (1_009, 11)),
    "event": (("rounds", "events"), (1_013, 17)),
    "causal": (("rounds", "events"), None),
}

#: Protocols whose sender advances on a framing *rhythm* rather than
#: the implicit acknowledgement of Lemma 4.1, with the reason strict
#: ack ordering is not checked for them: the addressee commits a bit
#: only once the whole unit lands, so the ack event (sender advanced)
#: legitimately precedes the receipt event (decode committed).
RHYTHM_ADVANCING: Dict[str, str] = {
    "sync_logk": (
        "the Section 3.3 sender starts the next address/digit block on "
        "the synchronous rhythm; the addressee commits the bit only at "
        "block end, so acks are not receipt-gated"
    ),
}

#: tolerance for the critical-path telescoping identity (floats on the
#: event engine's continuous clock).
_EPS = 1e-9


@dataclass
class OracleResult:
    """Outcome of one comparison or causal check at one seed."""

    protocol: str
    scheduler: str
    #: the engine checked, or ``"a/b"`` for a differential pair.
    engine: str
    seed: int
    #: ``"matrix"`` for the cell's own adversary, ``"fair_async"`` for
    #: the fair-asynchronous re-run of a synchronous cell.
    variant: str = "matrix"
    size: int = 0
    steps: int = 0
    #: flows with at least one bit-lifecycle event (causal checks).
    flows: int = 0
    #: divergences or causality violations; empty means a clean run.
    problems: List[str] = field(default_factory=list)
    #: populated when a build/drive crashed (asymmetrically, for a pair).
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the run was clean."""
        return self.error is None and not self.problems

    def to_json(self) -> Dict[str, object]:
        """JSON-ready dict: run coordinates plus any problems."""
        payload: Dict[str, object] = {
            "protocol": self.protocol,
            "scheduler": self.scheduler,
            "engine": self.engine,
            "variant": self.variant,
            "seed": self.seed,
            "size": self.size,
            "steps": self.steps,
            "flows": self.flows,
            "ok": self.ok,
        }
        if self.problems:
            payload["problems"] = list(self.problems)
        if self.error is not None:
            payload["error"] = self.error
        return payload


def _monitor_verdicts(run: ScenarioRun) -> List[Tuple[object, ...]]:
    """Flatten a run's monitor violations into a comparable list."""
    return [
        (monitor.name, v.invariant, v.time, v.message)
        for monitor in run.monitors
        for v in monitor.violations
    ]


def _build_and_drive(
    cell: Cell,
    seed: int,
    engine: str,
    quick: bool,
    scheduler_factory: Optional[Callable[[], Scheduler]],
) -> Tuple[Optional[ScenarioRun], int, Optional[BaseException]]:
    """Run one engine's twin; returns (run, steps, exception)."""
    try:
        run = build_run(
            cell,
            seed,
            quick=quick,
            engine=engine,
            scheduler_factory=scheduler_factory,
        )
        attach(run.sim, run.monitors)
        steps = drive(run)
        return run, steps, None
    except Exception as exc:
        return None, 0, exc


def compare_cell(
    cell: Cell,
    seed: int,
    *,
    engines: Tuple[str, str],
    quick: bool = False,
    scheduler_factory: Optional[Callable[[], Scheduler]] = None,
    variant: str = "matrix",
) -> OracleResult:
    """Build one cell at one seed on two engines and diff the runs."""
    a, b = engines
    result = OracleResult(cell.protocol, cell.scheduler, f"{a}/{b}", seed, variant)
    left, a_steps, a_exc = _build_and_drive(cell, seed, a, quick, scheduler_factory)
    right, b_steps, b_exc = _build_and_drive(cell, seed, b, quick, scheduler_factory)
    if a_exc is not None or b_exc is not None:
        # Exception parity: identical type and message is a pass —
        # the engines promise to diverge nowhere before the raise.
        if (
            a_exc is not None
            and b_exc is not None
            and type(a_exc) is type(b_exc)
            and str(a_exc) == str(b_exc)
        ):
            return result
        result.error = (
            "asymmetric failure:\n"
            f"  {a}: {type(a_exc).__name__ if a_exc else 'ok'}: {a_exc}\n"
            f"  {b}: {type(b_exc).__name__ if b_exc else 'ok'}: {b_exc}\n"
            + "".join(traceback.format_exception(b_exc or a_exc, limit=6))
        )
        return result
    assert left is not None and right is not None
    result.size = left.size
    result.steps = a_steps
    if a_steps != b_steps:
        result.problems.append(f"run length diverged: {a_steps} vs {b_steps}")
    if _trace_fingerprint(left) != _trace_fingerprint(right):
        result.problems.append("position traces diverged")
    if _received_fingerprint(left) != _received_fingerprint(right):
        result.problems.append("received bit streams diverged")
    if tuple(left.sim.positions) != tuple(right.sim.positions):
        result.problems.append("final configurations diverged")
    if left.sim.epoch != right.sim.epoch:
        result.problems.append(
            f"configuration epochs diverged: {left.sim.epoch} vs {right.sim.epoch}"
        )
    if _monitor_verdicts(left) != _monitor_verdicts(right):
        result.problems.append("monitor verdicts diverged")
    return result


def check_cell(
    cell: Cell,
    seed: int,
    engine: str,
    *,
    quick: bool = False,
) -> OracleResult:
    """Drive one instrumented cell and check its causal structure.

    Ack ordering is only enforced (``strict_acks``) in cells whose
    invariant list claims receipt: under adversaries that may starve
    the addressee, a rhythm-based sender can legitimately advance
    before the receipt lands, and the matrix documents that envelope
    rather than fighting it.
    """
    from repro.obs.causal import build_causal, check_invariants, critical_path
    from repro.obs.recorder import ObsRecorder

    result = OracleResult(cell.protocol, cell.scheduler, engine, seed)
    recorder = ObsRecorder(
        meta={
            "protocol": cell.protocol,
            "scheduler": cell.scheduler,
            "seed": seed,
        }
    )
    try:
        run = build_run(cell, seed, quick=quick, engine=engine)
        recorder.attach(run.sim)
        try:
            result.size = run.size
            result.steps = drive(run)
        finally:
            recorder.detach(run.sim)
    except Exception as exc:
        result.error = (
            f"{type(exc).__name__}: {exc}\n"
            + "".join(traceback.format_exception(exc, limit=6))
        )
        return result
    trace = build_causal(recorder.to_run())
    result.flows = len(trace.flows)
    strict = (
        "receipt" in cell.invariants
        and cell.protocol not in RHYTHM_ADVANCING
    )
    result.problems.extend(check_invariants(trace, strict_acks=strict))
    # Attribution completeness: the critical path's edge durations must
    # telescope to exactly the wall span it covers — 100% of the
    # latency lands on named edges, never a remainder.
    for flow, graph in trace.flows.items():
        path = critical_path(graph)
        if not path.edges:
            continue
        span = path.nodes[-1].wall - path.nodes[0].wall
        if abs(path.total - span) > _EPS:
            result.problems.append(
                f"flow {flow[0]}->{flow[1]}: critical path attribution "
                f"({path.total!r}) does not telescope to its wall span "
                f"({span!r})"
            )
    return result


@dataclass
class OracleReport:
    """Aggregate outcome of an oracle sweep."""

    results: List[OracleResult] = field(default_factory=list)
    skipped: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every run was clean."""
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[OracleResult]:
        """The runs that diverged, violated causality or crashed."""
        return [r for r in self.results if not r.ok]

    def to_json(self) -> Dict[str, object]:
        """JSON-ready dict of the whole sweep (results and skips)."""
        return {
            "ok": self.ok,
            "runs": len(self.results),
            "failures": len(self.failures),
            "skipped": [
                {"protocol": p, "scheduler": s, "reason": reason}
                for p, s, reason in self.skipped
            ],
            "results": [r.to_json() for r in self.results],
        }

    def format(self, verbose: bool = False) -> str:
        """Human-readable per-cell summary with problem details."""
        lines: List[str] = []
        by_cell: Dict[Tuple[str, str, str, str], List[OracleResult]] = {}
        for r in self.results:
            key = (r.protocol, r.scheduler, r.variant, r.engine)
            by_cell.setdefault(key, []).append(r)
        for (protocol, scheduler, variant, engine), runs in sorted(by_cell.items()):
            bad = [r for r in runs if not r.ok]
            shown = scheduler if variant == "matrix" else "fair_async*"
            status = "ok" if not bad else f"FAIL ({len(bad)}/{len(runs)} seeds)"
            lines.append(
                f"{protocol:14s} x {shown:17s} [{engine}] "
                f"{len(runs):4d} seeds  {status}"
            )
            for r in bad:
                for problem in r.problems:
                    lines.append(f"    seed {r.seed}: {problem}")
                if r.error is not None:
                    first = r.error.strip().splitlines()[0]
                    lines.append(f"    seed {r.seed}: {first}")
        if verbose and self.skipped:
            lines.append("")
            for protocol, scheduler, reason in self.skipped:
                lines.append(f"skip {protocol} x {scheduler}: {reason}")
        summary = (
            f"{len(self.results)} runs, {len(self.failures)} failures, "
            f"{len(self.skipped)} cells skipped"
        )
        if any(r.variant == "fair_async" for r in self.results):
            summary += " (* = synchronous cell re-run under the fair-async scheduler)"
        lines += ["", summary]
        return "\n".join(lines)


def run_oracle(
    oracle: str,
    protocols: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = range(5),
    *,
    quick: bool = False,
    progress: Optional[Callable[[OracleResult], None]] = None,
) -> OracleReport:
    """Sweep one of :data:`ORACLES` over the scenario matrix.

    The ``backend`` oracle requires numpy (``pip install
    repro[batch]``) — check :func:`repro.batch.available` first to skip
    cleanly without it.
    """
    engines, fair_async = ORACLES[oracle]
    report = OracleReport()
    wanted_p = set(protocols) if protocols else None
    wanted_s = set(schedulers) if schedulers else None
    for (p, s), reason in sorted(SKIPS.items()):
        if (wanted_p is None or p in wanted_p) and (wanted_s is None or s in wanted_s):
            report.skipped.append((p, s, reason))

    def record(result: OracleResult) -> None:
        report.results.append(result)
        if progress is not None:
            progress(result)

    cells = cells_for(protocols, schedulers)
    for cell in cells:
        able = [e for e in engines if cell.scheduler not in ENGINES[e]]
        refused = [e for e in engines if e not in able]
        # A pair needs both engines; a causal check needs either one.
        if refused and (fair_async is not None or not able):
            reason = ENGINES[refused[0]][cell.scheduler]
            report.skipped.append((cell.protocol, cell.scheduler, reason))
            continue
        if fair_async is None:
            for engine in able:
                for seed in seeds:
                    record(check_cell(cell, seed, engine, quick=quick))
        else:
            for seed in seeds:
                record(compare_cell(cell, seed, engines=engines, quick=quick))
    if fair_async is not None:
        multiplier, offset = fair_async
        for cell in cells:
            if cell.scheduler != "synchronous":
                continue
            for seed in seeds:
                # Each engine calls the factory once, so each run owns a
                # private scheduler whose RNG starts from the same seed.
                factory = partial(FairAsynchronousScheduler,
                                  seed=seed * multiplier + offset)
                record(compare_cell(
                    cell,
                    seed,
                    engines=engines,
                    quick=quick,
                    scheduler_factory=factory,
                    variant="fair_async",
                ))
    return report
