"""Shared machinery of the benchmark: stamps, timing, spans, results.

Everything here measures the program from outside: wall clocks around
calls into public functions, process counters, and span records the
benchmark itself keeps.  Nothing in ``src/`` is instrumented for it.
"""

from __future__ import annotations

import array
import json
import math
import os
import pathlib
import platform
import re
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Where a run writes its per-layer table and its spans (gitignored).
OUT_DIR = "perfbench-out"

#: Metric names the result format accepts.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Iterations of the fixed pure-Python calibration loop.
CALIB_OPS = 400_000


#: Latency tails that untraced runs measure and print beside the
#: metrics of ``BENCHMARK.json``; they carry no bound (README.md says
#: why).
REPORTED: Tuple[Tuple[str, str], ...] = (
    ("step_p95_ms", "ms"),
    ("session_p50_ms", "ms"),
    ("session_p90_ms", "ms"),
)


def repo_root() -> pathlib.Path:
    """The checkout this benchmark lives in (the parent of its dir)."""
    return pathlib.Path(__file__).resolve().parent.parent


def spec() -> Dict[str, object]:
    """``BENCHMARK.json``: the workloads and the metric catalogue."""
    return json.loads((repo_root() / "BENCHMARK.json").read_text())


def work_dir() -> pathlib.Path:
    """Scratch space inside the checkout (session stores and the like)."""
    path = repo_root() / OUT_DIR / "work"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Environment stamp and drift gauge
# ----------------------------------------------------------------------

def _git_commit(root: pathlib.Path) -> Optional[str]:
    """HEAD's commit read from ``.git`` directly (no subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head or None
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip() or None
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: pathlib.Path) -> str:
    """CRC32 over ``src/**/*.py``: names the code under test even in a
    checkout that is not a git repository."""
    import zlib

    crc = 0
    for path in sorted((root / "src").rglob("*.py")):
        crc = zlib.crc32(str(path.relative_to(root)).encode(), crc)
        crc = zlib.crc32(path.read_bytes(), crc)
    return format(crc, "08x")


def calibrate(ops: int = CALIB_OPS) -> float:
    """Operations per second of a fixed pure-Python loop.

    Reported beside the metrics as ``calib.ops_per_s`` so machine drift
    between runs is visible; never used to rescale a metric.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(ops):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - started
    if acc < 0:  # pragma: no cover - keeps the loop from being dead code
        raise AssertionError
    return ops / elapsed


def environment(seed: int) -> Dict[str, object]:
    """The stamp every result carries."""
    root = repo_root()
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a repo dependency
        numpy_version = None
    return {
        "git_commit": _git_commit(root),
        "source_crc": source_digest(root),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


# ----------------------------------------------------------------------
# Quantiles (stdlib only)
# ----------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


def _quantile(values: Sequence[float], q: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def p90(values: Sequence[float]) -> float:
    """The 90th percentile: backed by ten samples beyond from 100 up."""
    return _quantile(values, 90)


def p95(values: Sequence[float]) -> float:
    """The 95th percentile: backed by ten samples beyond from 200 up."""
    return _quantile(values, 95)


def p99(values: Sequence[float]) -> float:
    """The 99th percentile (``statistics.quantiles``, inclusive).

    Callers record the sample count next to it: a p99 is only backed
    by ten samples beyond it from 1000 samples up.
    """
    return _quantile(values, 99)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class SpanLog:
    """Spans kept in flat arrays in memory, written out once at the end.

    A span is ``(name, start, end, parent, request)``: ``parent`` is the
    index of the enclosing span (-1 for a root) and ``request`` groups
    the spans of one serve session (-1 outside serve).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.request = array.array("q")

    def code(self, name: str) -> int:
        """The small integer a span name is stored as."""
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def add(self, name: str, start: float, end: float,
            parent: int = -1, request: int = -1) -> int:
        """Record one finished span; returns its index."""
        self.name.append(self.code(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(request)
        return len(self.start) - 1

    def open(self, name: str, start: float, parent: int = -1,
             request: int = -1) -> int:
        """Record a span whose end is set later with :meth:`close`."""
        return self.add(name, start, start, parent, request)

    def close(self, index: int, end: float) -> None:
        self.end[index] = end

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (count, total s, self s)``.

        Self time is a span's duration minus its children's durations,
        children being spans whose ``parent`` is that span.
        """
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out: Dict[str, List[float]] = {}
        for i, code in enumerate(self.name):
            duration = self.end[i] - self.start[i]
            row = out.setdefault(self.names[code], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def write(self, path: pathlib.Path) -> None:
        """One JSON header line, then the five columns as raw arrays."""
        header = {
            "schema": "perfbench-spans-v1",
            "names": self.names,
            "count": len(self),
            "columns": [["name", "H"], ["start", "d"], ["end", "d"],
                        ["parent", "q"], ["request", "q"]],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.name, self.start, self.end,
                           self.parent, self.request):
                column.tofile(handle)


def read_spans(path: pathlib.Path) -> Tuple[Dict[str, object], Dict[str, array.array]]:
    """Load a span file written by :meth:`SpanLog.write`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns: Dict[str, array.array] = {}
        for name, code in header["columns"]:
            column = array.array(code)
            column.fromfile(handle, header["count"])
            columns[name] = column
    return header, columns


class PhaseClock:
    """Charges wall time between hook calls to the phase last entered.

    Installed as a simulator phase hook: each call closes the running
    phase (adding its span when a :class:`SpanLog` is attached) and
    opens the next.  ``stop`` closes the last one.
    """

    def __init__(self, spans: Optional[SpanLog] = None,
                 rename: Optional[Dict[str, Optional[str]]] = None) -> None:
        self.spans = spans
        self.rename = rename or {}
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.parent = -1
        self._phase: Optional[str] = None
        self._since = 0.0

    def enter(self, phase: Optional[str]) -> None:
        now = time.perf_counter()
        current = self._phase
        if current is not None:
            self.totals[current] = self.totals.get(current, 0.0) + (now - self._since)
            self.counts[current] = self.counts.get(current, 0) + 1
            if self.spans is not None:
                self.spans.add(current, self._since, now, self.parent)
        self._phase = phase
        self._since = now

    def hook(self, phase: str, *_: object) -> None:
        """The ``hook(phase, ...)`` signature the simulators call."""
        self.enter(self.rename.get(phase, phase))

    def robot_hook(self, phase: str, *_: object) -> None:
        """The ``hook(phase, robot, time)`` signature of robot hooks
        (its phase names are used as they are)."""
        self.enter(phase)

    def stop(self) -> None:
        self.enter(None)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run hands back to the runner."""

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    #: per-layer table rows: layer, count, self seconds, share of wall
    table: List[Dict[str, object]] = field(default_factory=list)
    #: sample counts and other context printed beside the metrics
    notes: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    spans: Optional[SpanLog] = None


def layer_rows(spans: SpanLog, wall_s: float, roots: Iterable[str] = (),
               outside: Iterable[str] = ()) -> Tuple[List[Dict[str, object]], float]:
    """Per-layer self time and share of ``wall_s``; plus coverage.

    Coverage is the share of wall time attributed to a named layer:
    the self time of every span except the ``roots`` (the enclosing
    run/step spans that only exist to parent the layers).  Spans named
    in ``outside`` are time ``wall_s`` does not count (a user's pauses)
    and get no row.
    """
    roots = set(roots)
    rows = []
    covered = 0.0
    for name, (count, total, own) in sorted(spans.self_times().items()):
        if name in outside:
            continue
        rows.append({
            "layer": name,
            "count": count,
            "total_s": total,
            "self_s": own,
            "share": own / wall_s if wall_s > 0 else 0.0,
        })
        if name not in roots:
            covered += own
    return rows, (covered / wall_s if wall_s > 0 else 0.0)


def render_table(rows: List[Dict[str, object]]) -> str:
    """The per-layer table as fixed-width text."""
    lines = [f"{'layer':<24s} {'count':>9s} {'self s':>10s} {'share':>8s}"]
    for row in rows:
        lines.append(
            f"{str(row['layer']):<24s} {row['count']:>9d} "
            f"{float(row['self_s']):>10.4f} {100.0 * float(row['share']):>7.2f}%"
        )
    return "\n".join(lines)


def common_metrics(setup_s: float, attempted: int,
                   failed: int) -> Dict[str, Tuple[float, str]]:
    """The metrics every workload reports the same way."""
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "ok_share": (1.0 - failed / attempted if attempted else 0.0, "ratio"),
    }


def chunk_median(stamps: Sequence[float], values: Sequence[float],
                 start: float, end: float,
                 stat: Callable[[Sequence[float]], float],
                 chunks: int) -> float:
    """Median over equal wall-time chunks of ``stat`` of the values
    stamped in each chunk (stamps past ``end`` join the last chunk).

    A slow spell of the machine that covers fewer than half the chunks
    cannot move it, where it would shift a statistic of the pooled run.
    """
    width = (end - start) / chunks
    groups: List[List[float]] = [[] for _ in range(chunks)]
    for stamp, value in zip(stamps, values):
        slot = min(max(int((stamp - start) / width), 0), chunks - 1)
        groups[slot].append(value)
    return statistics.median(stat(group) for group in groups if group)


#: The measured window of an engine run is cut into this many equal
#: chunks for its median step.
CHUNKS = 10


def step_median_ms(durations: Sequence[float], ends: Sequence[float],
                   start: float, end: float) -> float:
    """Median over :data:`CHUNKS` equal wall-time chunks of the mean
    step in each, in ms.

    Engine steps are not alike: the round engine alternates a light and
    a heavy instant per bit, so the median of the pooled steps lands on
    the edge of one cluster in one run and of the other in the next.
    A chunk's mean covers both kinds.
    """
    return 1e3 * chunk_median(ends, durations, start, end, statistics.mean,
                              CHUNKS)


def rate_metrics(start: float, end: float, instants: float,
                 activations: float,
                 events: float) -> Dict[str, Tuple[float, str]]:
    """Simulated instants, robot activations and Look/Compute/Move
    events per second, as totals over the whole measured window.

    The host's speed drifts in spells of seconds; a total over the
    window averages them, where a median over chunks of it would pick
    whichever spell covers most of the run.
    """
    wall = end - start
    return {
        "instants_per_s": (instants / wall, "1/s"),
        "robots_per_s": (activations / wall, "activations/s"),
        "events_per_s": (events / wall, "1/s"),
    }


def idle_layers() -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric at 0: the start of a traced run's report,
    so layers the workload never enters read 0."""
    return {m["name"]: (0.0, m["unit"]) for m in spec()["per_layer"]}


def check_names(names: Iterable[str]) -> None:
    """Raise on a metric name the result format does not allow."""
    bad = [name for name in names if not METRIC_NAME.match(name)]
    if bad:
        raise ValueError(f"malformed metric names: {bad}")


def finite(value: float) -> float:
    """Guard against NaN/inf leaking into the JSON line."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return value


def emit(workload: str, seed: int, trace: bool, outcome: Outcome,
         env: Dict[str, object], calib: float, wanted: Sequence[str],
         out_dir: Optional[pathlib.Path] = None) -> Dict[str, object]:
    """Write the run's artifacts and build the result line.

    The result line carries exactly ``wanted`` metrics; the stamp, the
    drift gauge, the per-layer table and sample counts go to the
    artifact file and to the lines printed before the result.
    """
    check_names(outcome.metrics)
    missing = [name for name in wanted if name not in outcome.metrics]
    if missing:
        raise KeyError(f"{workload} did not measure {missing}")
    metrics = {
        name: {"value": finite(outcome.metrics[name][0]),
               "unit": outcome.metrics[name][1]}
        for name in wanted
    }
    result = {
        "correct": not outcome.errors and outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "trace": trace,
        "env": env,
        "calib.ops_per_s": calib,
        "notes": outcome.notes,
        "errors": outcome.errors[:20],
        "table": outcome.table,
        "all_metrics": {k: {"value": v[0], "unit": v[1]}
                        for k, v in sorted(outcome.metrics.items())},
        "result": result,
    }
    out_dir = out_dir or (repo_root() / OUT_DIR)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if outcome.spans is not None:
        outcome.spans.write(out_dir / f"{stem}.spans")
    stamp = " ".join(f"{k}={v}" for k, v in env.items())
    print(f"# {workload} {stamp} calib.ops_per_s={calib:.0f}")
    for key, value in sorted(outcome.notes.items()):
        print(f"# {key} = {value}")
    for error in outcome.errors[:5]:
        print(f"# error: {error}")
    if outcome.table:
        print("# per-layer table (traced run)")
        for line in render_table(outcome.table).splitlines():
            print(f"#   {line}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in sorted(outcome.metrics.items()):
        if name not in metrics:
            print(f"# {name} = {value:.6g} {unit} (not bounded)")
    return result


def run_steps(step: Callable[[], object], seconds: float,
              before: Optional[Callable[[], None]] = None,
              after: Optional[Callable[[float], None]] = None,
              clock: Optional[PhaseClock] = None,
              spans: Optional[SpanLog] = None):
    """Call ``step`` back to back for ``seconds``.

    Returns ``(durations, ends, start, end)``: each call's wall time
    and completion time, and the window.  With a ``clock`` each call
    is a ``step`` span parenting the phases the clock records.
    """
    durations: List[float] = []
    ends: List[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        if before is not None:
            before()
        t0 = time.perf_counter()
        if clock is not None:
            clock.parent = spans.open("step", t0)
            step()
            clock.stop()
            t1 = time.perf_counter()
            spans.close(clock.parent, t1)
        else:
            step()
            t1 = time.perf_counter()
        durations.append(t1 - t0)
        ends.append(t1)
        if after is not None:
            after(t1)
        if t1 >= deadline:
            return durations, ends, start, t1


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value
