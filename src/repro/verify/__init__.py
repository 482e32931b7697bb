"""Adversarial-scheduler verification for the movement protocols.

The paper proves its protocols against *every* legal SSM schedule; the
test suite, by construction, only ever runs a handful of benign ones.
This package closes that gap with a seeded property-test harness:

* a zoo of adversarial schedulers (:mod:`repro.verify.schedulers`),
  the sawtooth stale-look adversary
  (:class:`~repro.model.world.StaleLook` with ``lag="sawtooth"``)
  and displacement fault plans (:mod:`repro.faults.transient`);
* protocol-agnostic invariant monitors over the live trace stream
  (:mod:`repro.verify.monitors`);
* a protocol x adversary matrix with per-cell envelopes
  (:mod:`repro.verify.scenarios`) and the seeded engine that sweeps
  it, checks caching transparency, and minimizes failing reproductions
  (:mod:`repro.verify.engine`);
* intentionally-buggy mutants that prove the monitors actually fire
  (:mod:`repro.verify.mutants`);
* the engine oracles — rounds vs batch, rounds vs events, and the
  causality check on each engine — as one sweep
  (:mod:`repro.verify.oracle`).

Command line::

    python -m repro.verify --seeds 50 --protocol all
    python -m repro.verify --self-test
    python -m repro.verify --list
"""

from repro.verify.engine import CellResult, Report, drive, run_cell, run_matrix
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
from repro.verify.mutants import MUTANTS, MutantResult, run_mutant, run_self_test
from repro.verify.scenarios import (
    CELLS,
    PROTOCOLS,
    SCHEDULERS,
    SKIPS,
    Cell,
    ScenarioRun,
    build_run,
    cells_for,
)
from repro.verify.schedulers import (
    BoundedUnfairScheduler,
    BurstScheduler,
    CrashScheduler,
)

__all__ = [
    # engine
    "CellResult",
    "Report",
    "drive",
    "run_cell",
    "run_matrix",
    # matrix
    "CELLS",
    "PROTOCOLS",
    "SCHEDULERS",
    "SKIPS",
    "Cell",
    "ScenarioRun",
    "build_run",
    "cells_for",
    # monitors
    "InvariantMonitor",
    "Violation",
    "attach",
    "CollisionFreedomMonitor",
    "SilenceMonitor",
    "ReceiptMonitor",
    "NoForgedBitsMonitor",
    "TwoInstantsPerBitMonitor",
    "SchedulerContractMonitor",
    "StalenessContractMonitor",
    # adversaries
    "BoundedUnfairScheduler",
    "BurstScheduler",
    "CrashScheduler",
    # mutants
    "MUTANTS",
    "MutantResult",
    "run_mutant",
    "run_self_test",
]
