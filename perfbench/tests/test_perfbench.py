"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import importlib
import pathlib
import random
import re
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import core  # noqa: E402
from perfbench.loadgen import run_rung, settle  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = core.spec()
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert names and all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_the_spec_names_the_workloads_and_bounds_setup_most():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(bound <= bounds["setup_s"] <= 0.25 for bound in bounds.values())


def test_a_stall_shows_on_the_requests_due_after_it():
    """Requests are timed from when they were due, not sent.

    The fake service blocks the whole event loop once.  Sessions that
    fell due during the block start late; their latency must include
    the wait, though the service answered them at once.
    """
    stall_at, stall_s = 0.15, 0.2
    origin = time.perf_counter()
    stalled = []
    seen = []

    async def request():
        now = time.perf_counter()
        if not stalled and now - origin >= stall_at:
            time.sleep(stall_s)  # a blocking call: nothing else runs
            stalled.append(time.perf_counter())
        await asyncio.sleep(0)
        return {}

    async def user(session, index):
        due = session.due
        await session.call("op", request)
        seen.append((due, session.due - due))
        session.finished()
        return True

    async def main():
        pending = set()
        rung = await run_rung(200.0, 0.5, user, random.Random(7), pending)
        await settle(pending)
        return rung

    rung = asyncio.run(main())
    assert stalled, "the fake service never stalled"
    stall_end = stalled[0]
    during = [(due, lat) for due, lat in seen
              if stall_end - stall_s < due < stall_end]
    assert len(during) >= 5
    for due, latency in during:
        assert latency >= stall_end - due - 1e-3
    # the generator itself ran late by about the stall
    assert max(rung.lags) >= 0.5 * stall_s
    assert rung.failed() == 0 and rung.arrivals == len(seen)


def test_failed_requests_count_against_the_rung():
    async def request():
        raise RuntimeError("refused")

    async def user(session, index):
        await session.call("op", request)
        return True

    async def main():
        pending = set()
        rung = await run_rung(100.0, 0.2, user, random.Random(1), pending)
        await settle(pending)
        return rung

    rung = asyncio.run(main())
    assert rung.arrivals > 0
    assert rung.failures["op"] == rung.arrivals
    assert rung.failed() == 2 * rung.arrivals  # the request and its session
    assert rung.attempted() == rung.arrivals


def test_a_session_parked_at_done_is_checked_from_its_checkpoint(tmp_path):
    """A wrong outcome, or a checkpoint that no longer restores, fails
    a session its user found parked; a right one does not."""
    from perfbench.loadgen import Rung
    from perfbench.workloads import serve_mix
    from repro.serve.session import Session, SessionSpec

    params = serve_mix.TINY
    plan = serve_mix._plan(5, 0, params)
    assert plan["app"] == "chat"
    session = Session(SessionSpec(app="chat", size=2, seed=int(plan["seed"]),
                                  params=dict(plan["params"])))
    session.step(1)
    session.apply_send(1, 0, str(plan["send"]).encode())
    while session.status == "running":
        session.step(16)
    checkpoint = session.checkpoint()
    tampered = dict(checkpoint, trace_crc="00000000")

    service = serve_mix._Service(params, 5, str(tmp_path), traced=False)
    right, wrong = Rung(1.0, 1.0), Rung(1.0, 1.0)
    service.parked = [(right, plan, checkpoint),
                      (wrong, dict(plan, expected=[2, 1]), checkpoint),
                      (wrong, plan, tampered)]
    service.check_parked()
    assert right.sessions_failed == 0 and not right.errors
    assert wrong.sessions_failed == 2
    assert len(wrong.errors) == 1 and "parked check" in wrong.errors[0]


def test_span_self_time_and_round_trip(tmp_path):
    spans = core.SpanLog()
    root = spans.add("step", 0.0, 10.0)
    spans.add("observe", 1.0, 4.0, root)
    spans.add("decide", 4.0, 9.0, root)
    times = spans.self_times()
    assert times["step"] == (1, 10.0, 2.0)
    rows, coverage = core.layer_rows(spans, 10.0, roots=("step",))
    assert coverage == pytest.approx(0.8)
    spans.write(tmp_path / "s.spans")
    header, columns = core.read_spans(tmp_path / "s.spans")
    assert header["names"] == ["step", "observe", "decide"]
    assert list(columns["parent"]) == [-1, 0, 0]
    assert list(columns["end"]) == [10.0, 4.0, 9.0]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    module = importlib.import_module(f"perfbench.workloads.{workload}")
    outcome = module.run(5, 1.0, trace, module.TINY)
    kind = "per_layer" if trace else "end_to_end"
    wanted = [m["name"] for m in SPEC[kind]]
    result = core.emit(workload, 5, trace, outcome, {"seed": 5}, 1.0,
                       wanted, out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == wanted
    assert result["correct"], outcome.errors
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    if trace:
        assert outcome.table
        assert (tmp_path / f"{workload}-seed5-trace1.spans").exists()
    else:
        assert all(name in outcome.metrics for name, _ in core.REPORTED)
