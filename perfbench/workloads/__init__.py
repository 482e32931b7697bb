"""The benchmark's workloads: one module each, with a
``run(seed, seconds, trace)`` function, imported only when it runs."""

from __future__ import annotations

import importlib
from typing import Callable

from perfbench.core import Outcome

WORKLOADS = ("serve_mix", "scalar_n64", "batch_n100k", "events_sparse")


def load(name: str) -> Callable[..., Outcome]:
    """The ``run`` function of workload ``name``."""
    return importlib.import_module(f"perfbench.workloads.{name}").run
