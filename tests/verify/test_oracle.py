"""The one oracle sweep: pinned coordinates per arm, engine table, CLI."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.batch import available
from repro.errors import ModelError
from repro.verify.__main__ import main
from repro.verify.oracle import run_oracle
from repro.verify.scenarios import CELLS, ENGINES, SKIPS, build_run

pytestmark = pytest.mark.verify

_MATRIX_SKIPS = [
    ("sync_two", s, SKIPS[("sync_two", s)])
    for s in ("crash", "displacement", "event_delay_spike", "event_heavy_tail")
]

#: oracle -> (pinned (protocol, scheduler, variant, engine, seed) set,
#: pinned skip list) for ``protocols=["sync_two"]`` at ``seeds=range(1)``.
_PINNED = {
    "backend": (
        {
            ("sync_two", "synchronous", "matrix", "rounds/batch", 0),
            ("sync_two", "bounded_unfair", "matrix", "rounds/batch", 0),
            ("sync_two", "burst", "matrix", "rounds/batch", 0),
            ("sync_two", "synchronous", "fair_async", "rounds/batch", 0),
        },
        _MATRIX_SKIPS
        + [("sync_two", "worst_stale", ENGINES["batch"]["worst_stale"])],
    ),
    "event": (
        {
            ("sync_two", "synchronous", "matrix", "rounds/events", 0),
            ("sync_two", "bounded_unfair", "matrix", "rounds/events", 0),
            ("sync_two", "burst", "matrix", "rounds/events", 0),
            ("sync_two", "worst_stale", "matrix", "rounds/events", 0),
            ("sync_two", "synchronous", "fair_async", "rounds/events", 0),
        },
        _MATRIX_SKIPS,
    ),
    "causal": (
        {
            ("sync_two", s, "matrix", engine, 0)
            for s in ("synchronous", "bounded_unfair", "burst", "worst_stale")
            for engine in ("rounds", "events")
        },
        _MATRIX_SKIPS,
    ),
}


@pytest.mark.parametrize("oracle", sorted(_PINNED))
def test_sync_two_arm_pins_coordinates_and_skips(oracle):
    if oracle == "backend" and not available():
        pytest.skip("the rounds/batch pair needs numpy")
    report = run_oracle(oracle, ["sync_two"], seeds=range(1), quick=True)
    coordinates, skipped = _PINNED[oracle]
    assert report.ok, report.format()
    assert {
        (r.protocol, r.scheduler, r.variant, r.engine, r.seed)
        for r in report.results
    } == coordinates
    assert len(report.results) == len(coordinates)
    assert report.skipped == skipped


def test_build_run_refuses_what_the_engine_table_refuses():
    for engine, refused in ENGINES.items():
        for adversary, reason in refused.items():
            cell = next(c for (p, s), c in CELLS.items() if s == adversary)
            with pytest.raises(ModelError, match="cannot run") as err:
                build_run(cell, 0, quick=True, engine=engine)
            assert reason in str(err.value)
    with pytest.raises(ModelError, match="unknown engine"):
        build_run(CELLS[("sync_two", "synchronous")], 0, engine="scalar")


def test_build_run_defaults_to_the_native_engine():
    from repro.events.engine import EventSimulator
    from repro.model.simulator import Simulator

    event_cell = CELLS[("async_n", "event_heavy_tail")]
    assert isinstance(build_run(event_cell, 0, quick=True).sim, EventSimulator)
    round_cell = CELLS[("sync_two", "synchronous")]
    assert type(build_run(round_cell, 0, quick=True).sim) is Simulator


@pytest.mark.parametrize(
    "flags",
    list(itertools.combinations(
        ["--backend-oracle", "--event-oracle", "--causal-oracle"], 2
    )),
)
def test_two_oracle_flags_are_a_usage_error(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*flags, "--quick", "--seeds", "1"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_oracle_cli_writes_its_json_report(tmp_path, capsys):
    path = tmp_path / "event.json"
    code = main([
        "--event-oracle", "--quick", "--seeds", "1",
        "--protocol", "sync_two", "--scheduler", "synchronous",
        "--json", str(path),
    ])
    assert code == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["ok"] is True
    assert doc["runs"] == 2  # one matrix + one fair-async comparison
    assert "2 runs, 0 failures" in capsys.readouterr().out
