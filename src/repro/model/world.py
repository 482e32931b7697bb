"""World-model look transforms: what an activation's Look returns.

The paper's base model is a continuous plane in which every robot sees
the exact instantaneous configuration ``P(t_j)``.  Its Section 5 open
problems weaken that world in four ways, and every engine that
subclasses :class:`~repro.model.simulator.Simulator` (rounds, events)
models them through three constructor arguments instead of one
simulator subclass per weakened model:

* ``visibility_radius`` — observations and the bound ``P(t_0)``
  knowledge are restricted to robots within the radius (see
  :mod:`repro.visibility`);
* ``lattice`` — the *move* transform: start positions must be lattice
  points and destinations are snapped onto the lattice (see
  :mod:`repro.discrete`);
* ``look`` — one *look transform* from this module, applied to the
  configuration each Look would otherwise return:
  :class:`StaleLook` (CORDA-style bounded staleness) or
  :class:`GaussianNoise` (round-off as sensing noise).

A transform instance keeps per-run state (look clocks, an RNG stream),
so it binds to exactly one simulator; building a second simulator on
the same instance raises :class:`~repro.errors.ModelError`.  The batch
kernel has no look-transform path: stale and noisy worlds stay on the
scalar engines.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import ModelError
from repro.geometry.vec import Vec2

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.simulator import Simulator

__all__ = ["LookTransform", "StaleLook", "GaussianNoise"]

_LAG_POLICIES = ("uniform", "sawtooth")


class LookTransform:
    """Base of the look transforms: maps a Look's configuration.

    :meth:`Simulator._observe <repro.model.simulator.Simulator._observe>`
    calls ``transform(index, config)`` once per activation with the
    configuration the engine would otherwise serve, and builds the
    observation from the returned sequence.  Returning ``config``
    itself keeps the engine's identity-based observation-cache fast
    path.  Calls may have side effects (look clocks, RNG draws); the
    engine calls the transform on every Look, caching on or off.
    """

    _sim: Optional["Simulator"] = None

    def bind(self, sim: "Simulator") -> None:
        """Attach to the simulator being built (once per instance)."""
        if self._sim is not None:
            raise ModelError(
                f"this {type(self).__name__} is already bound to a simulator; "
                "build one transform per run"
            )
        self._sim = sim

    def __call__(self, index: int, config: Sequence[Vec2]) -> Sequence[Vec2]:
        raise NotImplementedError


class StaleLook(LookTransform):
    """Boundedly stale Look phases — toward CORDA (Section 5).

        "It would be interesting to achieve solutions by relaxing
        synchrony among the robots to achieve solutions into a fully
        asynchronous model (e.g., CORDA)."

    In CORDA the Look, Compute and Move phases of an activation are
    decoupled: a robot may *move* based on a snapshot it *looked* at
    earlier.  This transform interpolates between SSM and CORDA by
    bounding that gap: an activation at instant ``t`` computes on the
    configuration of an instant in ``[t - max_delay, t]``, with
    per-robot look times non-decreasing (a robot never un-sees);
    ``max_delay = 0`` is exactly SSM.  A robot's *own* position is stale
    too — CORDA's pathology: a robot that "stays where it is" moves to
    where it *was*.

    Lag policies:

    * ``"uniform"`` draws each activation's lag uniformly from
      ``[0, max_delay]`` (seeded by ``seed``);
    * ``"sawtooth"`` is the adversarial choice used by the
      verification matrix.  Per robot, activations alternate between
      the maximal lag and a fresh look.  A constant lag is just a
      delayed but gap-free replay of the history; the sawtooth makes
      consecutive looks jump forward by up to ``max_delay + 1``
      instants and therefore *skip* whole configurations.  It is
      deterministic (no RNG).

    What the experiments (``benchmarks/bench_a4_staleness.py``) find:

    * the paper's synchronous protocols **break immediately** — a look
      sequence with lag bound ``d >= 1`` can skip a configuration,
      hence miss a whole one-instant excursion or return, losing or
      duplicating bits.  This is the concrete content of the paper's
      open problem;
    * **phase dilation repairs them**: holding every signal position
      for ``d + 1`` instants (the ``dilation`` knob of
      :class:`repro.protocols.sync_granular.SyncGranularProtocol`)
      makes skipping impossible — a monotone look sequence with lag at
      most ``d`` advances by at most ``d + 1`` per activation, so it
      must land inside every ``d+1``-instant phase.  Delivery returns
      to 100% at a ``(d+1)``-fold latency cost.  The sawtooth is the
      worst case this guarantee is stated against.

    Stale configurations are read back from the trace, so the
    simulator's :class:`~repro.model.trace.TracePolicy` must retain
    the last ``max_delay`` instants; binding refuses a policy that
    cannot.

    Args:
        max_delay: maximum Look staleness in instants (>= 0).
        lag: the lag policy, ``"uniform"`` or ``"sawtooth"``.
        seed: RNG seed of the uniform lag draws.
    """

    def __init__(self, max_delay: int, lag: str = "uniform", seed: int = 0) -> None:
        if max_delay < 0:
            raise ModelError(f"max_delay must be >= 0, got {max_delay}")
        if lag not in _LAG_POLICIES:
            raise ModelError(f"unknown lag policy {lag!r} (choose from {_LAG_POLICIES})")
        self._max_delay = max_delay
        self._lag = lag
        self._rng = random.Random(seed)
        self._look_times: List[int] = []
        self._sawtooth_phase: List[int] = []

    @property
    def max_delay(self) -> int:
        """The staleness bound, in instants."""
        return self._max_delay

    def bind(self, sim: "Simulator") -> None:
        policy = sim.trace.policy
        if self._max_delay > 0 and (
            policy.stride > 1
            or (policy.capacity is not None and policy.capacity < self._max_delay)
        ):
            raise ModelError(
                "stale looks need the last max_delay configurations: "
                f"policy {policy!r} cannot serve max_delay={self._max_delay}"
            )
        super().bind(sim)
        self._look_times = [0] * sim.count
        self._sawtooth_phase = [0] * sim.count

    def look_time_of(self, index: int) -> int:
        """The instant whose configuration the robot last looked at."""
        return self._look_times[index]

    def _draw_lag(self, index: int) -> int:
        """The Look lag of this activation, in ``[0, max_delay]``."""
        if self._lag == "uniform":
            return self._rng.randint(0, self._max_delay)
        phase = self._sawtooth_phase[index]
        self._sawtooth_phase[index] = 1 - phase
        return self._max_delay if phase == 0 else 0

    def __call__(self, index: int, config: Sequence[Vec2]) -> Sequence[Vec2]:
        if self._max_delay == 0:
            return config
        now = self._sim.time
        lag = self._draw_lag(index)
        if not (0 <= lag <= self._max_delay):
            raise ModelError(
                f"lag policy produced {lag}, outside [0, {self._max_delay}]"
            )
        look = max(self._look_times[index], now - lag)
        self._look_times[index] = look
        if look >= now:
            return config
        return self._sim.trace.positions_at(look)


class GaussianNoise(LookTransform):
    """Sensing noise — the Section 5 round-off discussion, continuous form.

        "robots could be prone to make computation errors due to round
        off, and, therefore, face a situation where robots are not able
        to identify all of possible 2n directions"

    Where :mod:`repro.discrete` models the *discrete* version of this
    (finitely many recognisable directions), this transform models the
    *continuous* one: every observed position of *another* robot is
    perturbed by independent zero-mean Gaussian noise, freshly drawn
    per observation (a robot knows its own position from odometry).
    Movements themselves are exact: this models imprecise *sensing*,
    not imprecise actuation.

    Decoders see perturbed excursions; whether they survive depends on
    their guard bands.  A robot observed "off home" by less than its
    decoder's threshold stays classified as idle, and an excursion
    whose perceived direction drifts past the slice tolerance raises
    ``AmbiguousDirectionError``.  The paper's exact decode is
    infinitely noise-sensitive; the ``off_home_fraction`` /
    ``tolerate_ambiguity`` robust-decode knobs on
    :class:`repro.protocols.sync_granular.SyncGranularProtocol` restore
    delivery up to noise of about 4% of the excursion length
    (``benchmarks/bench_a5_noise.py`` maps the cliff).

    Args:
        std: standard deviation of the per-axis position error (world
            units); 0 leaves observations exact.
        seed: RNG seed; runs are reproducible.
    """

    def __init__(self, std: float, seed: int = 0) -> None:
        if std < 0.0:
            raise ModelError(f"noise std must be >= 0, got {std}")
        self._std = std
        self._rng = random.Random(seed)

    def __call__(self, index: int, config: Sequence[Vec2]) -> Sequence[Vec2]:
        if self._std == 0.0:
            return config
        std = self._std
        gauss = self._rng.gauss
        noisy: List[Vec2] = []
        for i, position in enumerate(config):
            if i == index:
                noisy.append(position)
            else:
                noisy.append(
                    Vec2(position.x + gauss(0.0, std), position.y + gauss(0.0, std))
                )
        return noisy
