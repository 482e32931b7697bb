"""The semi-synchronous robot model (SSM) of Suzuki-Yamashita.

This subpackage is the execution substrate the paper adopts
(Section 2): ``n`` mobile robots viewed as points in the plane, each
with its own local coordinate system, activated by a scheduler at
discrete instants ``t0, t1, ...``.  An active robot observes the
instantaneous configuration, computes a destination with its protocol,
and moves toward it by at most its per-step bound ``sigma``.

Public surface:

* :class:`~repro.model.robot.Robot` — a robot specification.
* :class:`~repro.model.observation.Observation` /
  :class:`~repro.model.observation.ObservedRobot` — activation snapshots.
* :class:`~repro.model.protocol.Protocol` — the state-machine interface
  all movement protocols implement.
* Schedulers: synchronous, fair-asynchronous, round-robin, scripted.
* :class:`~repro.model.simulator.Simulator` — the engine.
* :class:`~repro.model.trace.Trace` — recorded histories.
* :class:`~repro.model.world.StaleLook` /
  :class:`~repro.model.world.GaussianNoise` — the Section 5 look
  transforms (stale looks, sensing noise).
"""

from repro.model.robot import Robot
from repro.model.observation import Observation, ObservedRobot
from repro.model.protocol import BitEvent, Protocol
from repro.model.scheduler import (
    FairAsynchronousScheduler,
    RoundRobinScheduler,
    Scheduler,
    ScriptedScheduler,
    SynchronousScheduler,
)
from repro.model.simulator import Simulator
from repro.model.trace import Trace, TracePolicy, TraceStep
from repro.model.world import GaussianNoise, StaleLook

__all__ = [
    "Robot",
    "Observation",
    "ObservedRobot",
    "Protocol",
    "BitEvent",
    "Scheduler",
    "SynchronousScheduler",
    "FairAsynchronousScheduler",
    "RoundRobinScheduler",
    "ScriptedScheduler",
    "Simulator",
    "Trace",
    "TracePolicy",
    "TraceStep",
    "StaleLook",
    "GaussianNoise",
]
