"""Two asynchronous robots (Section 4.1, Figure 5 — Protocol Async2).

Idle behaviour: each robot drifts along the common *horizon line*
``H`` (the line through the two initial positions), away from its
peer — that direction is its private North.  Every activation moves
the robot (Remark 4.3), so the peer always has changes to observe.

Sending a bit: once the sender has observed the peer's position change
twice (so, by Corollary 4.2, the peer knows ``H`` and the sender's
direction), it steps off ``H`` perpendicular — East of its North for a
"0", West for a "1" — and keeps going *in the same direction* at every
activation until it again observes the peer change twice.  By
Lemma 4.1 the peer has then certainly seen it off ``H``: an implicit
acknowledgement.  The sender returns to ``H`` and drifts North until
the peer changes twice more, which separates consecutive bits.

Receiving is pure observation: a sighting of the peer off ``H``
immediately after an on-``H`` sighting is one bit, its side giving the
value.  Shared chirality lets the receiver compute the sender's East.

The paper notes the base scheme "has the drawback of making the two
robots moving away infinitely often from each other" and sketches the
fix: alternate the drift direction per leg and divide the covered
distance by ``x > 1`` in each move.  ``bounded=True`` implements that
variant; the step sizes decay as ``1/(i+1)^2`` within each leg — a
different vanishing series than the paper's geometric one, chosen
because it preserves the bounded-total-distance property while staying
far from floating-point underflow on long legs (the paper assumes
exact reals).  Total excursion and drift distances then stay within
fixed bands around the initial positions and the robots never collide.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ProtocolError
from repro.geometry.vec import Vec2
from repro.model.observation import Observation
from repro.model.protocol import BindingInfo, BitEvent, Protocol
from repro.protocols.acks import ChangeWatcher

__all__ = ["AsyncTwoProtocol"]

_ON_LINE_EPS_FACTOR = 1e-9


class AsyncTwoProtocol(Protocol):
    """Protocol Async2 of Section 4.1.

    Args:
        bounded: False reproduces the paper's base protocol (constant
            steps, unbounded drift); True enables the
            alternating-direction, vanishing-step variant.
        ack_threshold: how many observed peer changes complete a leg;
            the paper's value is 2 (Lemma 4.1).  Exposed so tests can
            demonstrate that 1 is *not* sufficient.
        step_fraction: idle/excursion step length as a fraction of the
            initial inter-robot distance (unbounded mode).
        on_line_fraction: decode margin — a peer within this fraction
            of the inter-robot distance from ``H`` counts as on the
            line.  The tiny default assumes exact sensing; raise it
            (e.g. to 0.05) under sensor noise
            (:class:`~repro.model.world.GaussianNoise`).
        change_fraction: debounce for the acknowledgement counters —
            only peer displacements beyond this fraction of the
            inter-robot distance count as "the position changed".
            0 is the paper's exact model.
    """

    #: Remark 4.3: an active robot always moves (idle drift along
    #: H keeps the peer's acknowledgement counter alive), so the
    #: silence property deliberately does not hold here.
    idle_silent = False

    def __init__(
        self,
        bounded: bool = False,
        ack_threshold: int = 2,
        step_fraction: float = 0.125,
        on_line_fraction: float = _ON_LINE_EPS_FACTOR,
        change_fraction: float = 0.0,
    ) -> None:
        super().__init__()
        if ack_threshold < 1:
            raise ProtocolError(f"ack_threshold must be >= 1, got {ack_threshold}")
        if not (0.0 < step_fraction <= 0.25):
            raise ProtocolError(
                f"step_fraction must be in (0, 0.25], got {step_fraction}"
            )
        if not (0.0 < on_line_fraction < step_fraction):
            raise ProtocolError(
                "on_line_fraction must be positive and below step_fraction "
                "or genuine excursions would read as on-line"
            )
        if change_fraction < 0.0 or change_fraction >= step_fraction:
            raise ProtocolError(
                "change_fraction must be in [0, step_fraction) or genuine "
                "movements would be debounced away"
            )
        self._bounded = bounded
        self._ack = ack_threshold
        self._step_fraction = step_fraction
        self._on_line_fraction = on_line_fraction
        self._change_fraction = change_fraction

        self._peer_index = -1
        self._home = Vec2.zero()
        self._peer_home = Vec2.zero()
        self._north = Vec2.zero()
        self._east = Vec2.zero()
        self._distance = 0.0
        self._sigma = 0.0
        self._watcher: Optional[ChangeWatcher] = None

        self._phase = "north"
        self._leg_step = 0  # steps taken in the current leg
        self._leg_first_step = 0.0  # decayed-series scale of the leg
        self._north_sign = 1.0  # +1 away from peer; alternates if bounded
        self._excursion_sign = 1.0
        self._peer_was_on_line = True

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def _on_bind(self, info: BindingInfo) -> None:
        if info.count != 2:
            raise ProtocolError(
                f"AsyncTwoProtocol is specified for exactly 2 robots, got {info.count}"
            )
        self._peer_index = 1 - info.index
        self._home = info.initial_positions[info.index]
        self._peer_home = info.initial_positions[self._peer_index]
        self._distance = self._home.distance_to(self._peer_home)
        if self._distance <= 0.0:
            raise ProtocolError("the two robots coincide")
        # North: away from the peer, along the horizon line H.
        self._north = (self._home - self._peer_home).normalized()
        # East: 90 degrees clockwise from North (shared chirality).
        self._east = self._north.perp_cw()
        self._watcher = ChangeWatcher(
            info.count,
            info.index,
            min_change=self._change_fraction * self._distance,
        )
        self._sigma = info.sigma
        self._start_north_leg(first=True)

    # ------------------------------------------------------------------
    # Leg management
    # ------------------------------------------------------------------
    def _band(self) -> float:
        """Half-width of the drift/excursion bands (bounded mode)."""
        return self._distance / 4.0

    def _start_north_leg(self, first: bool = False) -> None:
        assert self._watcher is not None
        self._phase = "north"
        self._leg_step = 0
        if not first:
            self._watcher.reset()
        if self._bounded:
            if not first:
                self._north_sign = -self._north_sign
            # Room left toward the leg direction inside the drift band.
            # The along-H coordinate is 0 at the home position.
            room = self._band()  # refined per-step from the live position
            self._leg_first_step = 0.6 * room
        else:
            self._leg_first_step = self._step_fraction * self._distance

    def _start_excursion(self, bit: int) -> None:
        assert self._watcher is not None
        self._phase = "excursion"
        self._leg_step = 0
        self._excursion_sign = 1.0 if bit == 0 else -1.0
        self._watcher.reset()
        if self._bounded:
            self._leg_first_step = 0.6 * self._band()
        else:
            self._leg_first_step = self._step_fraction * self._distance

    def _leg_step_length(self) -> float:
        """The next step of the current leg (vanishing in bounded mode)."""
        if self._bounded:
            raw = self._leg_first_step / float((self._leg_step + 1) ** 2)
        else:
            raw = self._leg_first_step
        return min(raw, self._sigma)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode(self, observation: Observation) -> List[BitEvent]:
        assert self._watcher is not None
        self._watcher.observe(observation)
        events: List[BitEvent] = []
        peer_pos = observation.position_of(self._peer_index)
        # The peer's East, in our coordinates: its North is away from
        # us, i.e. the opposite of ours.
        peer_east = (-self._north).perp_cw()
        offset = peer_east.dot(peer_pos - self._peer_home)
        if abs(offset) <= self._on_line_fraction * self._distance:
            self._peer_was_on_line = True
            return events
        if self._peer_was_on_line:
            events.append(
                BitEvent(
                    time=observation.time,
                    src=self._peer_index,
                    dst=self.info.index,
                    bit=0 if offset > 0.0 else 1,
                )
            )
        self._peer_was_on_line = False
        return events

    # ------------------------------------------------------------------
    # Movement rule
    # ------------------------------------------------------------------
    def _compute(self, observation: Observation) -> Vec2:
        assert self._watcher is not None
        pos = observation.self_position
        acked = self._watcher.changed_at_least(self._peer_index, self._ack)

        if self._phase == "north":
            if acked and self._peek_outgoing() is not None:
                _, bit = self._next_outgoing()
                self._start_excursion(bit)
                return pos + self._east * (self._excursion_sign * self._leg_step_length())
            return pos + self._north * (self._north_sign * self._north_step(pos))

        if self._phase == "excursion":
            if acked:
                self._phase = "return"
                return self._projection_on_h(pos)
            self._leg_step += 1
            return pos + self._east * (self._excursion_sign * self._leg_step_length())

        # phase == "return"
        offset = self._east.dot(pos - self._home)
        if abs(offset) <= self._on_line_fraction * self._distance:
            self._start_north_leg()
            return pos + self._north * (self._north_sign * self._north_step(pos))
        return self._projection_on_h(pos)

    def _north_step(self, pos: Vec2) -> float:
        """Advance the leg counter and return the drift step length."""
        if self._bounded:
            along = self._north.dot(pos - self._home)
            room = self._band() - self._north_sign * along
            # Keep the vanishing series but never outrun the band: the
            # per-leg series total is < 1.645 * first_step.
            first = min(self._leg_first_step, 0.6 * max(room, 0.0))
            step = first / float((self._leg_step + 1) ** 2)
            self._leg_step += 1
            # Remark 4.3: an active robot always moves.  The floor is
            # negligible against the drift band but keeps the promise
            # alive even when the band is (nearly) exhausted.
            return min(max(step, 1e-12 * self._distance), self._sigma)
        self._leg_step += 1
        return min(self._leg_first_step, self._sigma)

    def _projection_on_h(self, pos: Vec2) -> Vec2:
        """The foot of the robot's position on the horizon line H."""
        return pos - self._east * self._east.dot(pos - self._home)
