"""Open-loop session arrivals with due-time accounting.

Users arrive at a fixed rate, as a Poisson process conditioned on its
count (``rate x seconds`` arrival times drawn uniformly and sorted, so
every run offers the same load), and do not wait for each other (open
loop); each user then runs one session closed-loop, issuing its next
request as soon as the previous reply arrives.

Every request is timed from when it was *due*, not from when it was
sent: a session's first request is due at its scheduled arrival, and
each later request is due when the reply before it arrived (plus any
pause the user takes).  When the process stalls, arrivals that fell
due during the stall start late, and that delay is in their latency.
How late the generator itself ran is recorded separately as ``lags``.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Set

Clock = Callable[[], float]


class RequestFailed(Exception):
    """A request raised; it is already counted against its rung."""


@dataclass
class Rung:
    """Everything measured at one fixed arrival rate."""

    rate: float
    duration: float
    arrivals: int = 0
    #: the index of the rung's first session
    first: int = 0
    #: generator lateness per arrival (s)
    lags: List[float] = field(default_factory=list)
    #: when the arrival window opened and closed (clock seconds)
    start: float = 0.0
    end: float = 0.0
    #: op -> latencies from due time (s), successful requests only
    latency: Dict[str, List[float]] = field(default_factory=dict)
    #: op -> the due time of each request in ``latency``
    due: Dict[str, List[float]] = field(default_factory=dict)
    #: op -> latencies from send time (s): the service time alone
    service: Dict[str, List[float]] = field(default_factory=dict)
    #: op -> failed or refused requests
    failures: Dict[str, int] = field(default_factory=dict)
    #: arrival -> done minus the user's own pauses, per finished session (s)
    sessions: List[float] = field(default_factory=list)
    #: the arrival time of each session in ``sessions``
    arrived: List[float] = field(default_factory=list)
    sessions_failed: int = 0
    #: sessions open (any rung's) at half time and at the end
    backlog_mid: int = 0
    backlog_end: int = 0
    #: arrivals stopped early because the backlog passed its cap
    aborted: bool = False
    errors: List[str] = field(default_factory=list)

    def attempted(self) -> int:
        return sum(len(v) for v in self.latency.values()) + sum(
            self.failures.values()
        )

    def failed(self) -> int:
        return sum(self.failures.values()) + self.sessions_failed

    def growing(self) -> bool:
        """Did the backlog grow over the rung's second half?

        A sustainable rate holds the backlog near its steady level; an
        overloaded one keeps adding to it, so the end count clearly
        exceeds twice the half-time count (by more than a Poisson swing).
        """
        return self.aborted or self.backlog_end > 2 * self.backlog_mid + 10


class Meter:
    """Which rung is running now: requests count toward the rung that
    was running when they fell due, sessions toward the rung they
    arrived in."""

    def __init__(self) -> None:
        self.current: Optional[Rung] = None


class UserSession:
    """One user's closed loop; times each call from its due time."""

    __slots__ = ("rung", "meter", "clock", "arrival", "due", "paused",
                 "on_call")

    def __init__(self, rung: Rung, arrival: float, clock: Clock,
                 meter: Optional[Meter] = None) -> None:
        self.rung = rung
        self.meter = meter
        self.clock = clock
        self.arrival = arrival
        self.due = arrival
        self.paused = 0.0
        #: optional ``(op, sent, done, reply)`` observer (traced runs)
        self.on_call: Optional[Callable[[str, float, float, object], None]] = None

    async def call(self, op: str, request: Callable[[], Awaitable[object]]):
        """Issue one request; the next one falls due when it returns."""
        rung = self.rung if self.meter is None else self.meter.current
        sent = self.clock()
        try:
            reply = await request()
        except Exception as exc:
            rung.failures[op] = rung.failures.get(op, 0) + 1
            rung.errors.append(f"{op}: {type(exc).__name__}: {exc}")
            self.due = self.clock()
            raise RequestFailed(op) from exc
        done = self.clock()
        rung.latency.setdefault(op, []).append(done - self.due)
        rung.due.setdefault(op, []).append(self.due)
        rung.service.setdefault(op, []).append(done - sent)
        self.due = done
        if self.on_call is not None:
            self.on_call(op, sent, done, reply)
        return reply

    async def think(self, seconds: float) -> None:
        """Pause like a user would; the next request falls due after it."""
        self.due += seconds
        self.paused += seconds
        delay = self.due - self.clock()
        if delay > 0:
            await asyncio.sleep(delay)

    def finished(self) -> None:
        """The session reached its goal: record its time to get there."""
        self.rung.sessions.append(self.clock() - self.arrival - self.paused)
        self.rung.arrived.append(self.arrival)


#: ``user(session, index)`` runs one session, calls ``session.finished``
#: when it is done and returns whether its outputs were right.
User = Callable[[UserSession, int], Awaitable[bool]]


def _open(tasks: Set[asyncio.Task]) -> int:
    return sum(1 for task in tasks if not task.done())


async def run_rung(
    rate: float,
    duration: float,
    user: User,
    rng: random.Random,
    pending: Set[asyncio.Task],
    first_index: int = 0,
    clock: Clock = time.perf_counter,
    max_backlog: Optional[int] = None,
    on_start: Optional[Callable[[UserSession, int], None]] = None,
    meter: Optional[Meter] = None,
) -> Rung:
    """Start users at ``rate``/s for ``duration`` s.

    Returns at the end of the arrival window; the rung's sessions keep
    running as tasks in ``pending`` (shared by consecutive rungs, so
    the backlog counts every open session).  Await them before reading
    the rung's session times.  With a ``meter``, requests count toward
    the rung running when they fell due, whichever rung their session
    arrived in.  Once more than ``max_backlog`` sessions
    are open the rate is plainly unsustainable: arrivals stop early and
    the rung is marked ``aborted``, which bounds the drain that follows.
    """
    rung = Rung(rate=rate, duration=duration, first=first_index)
    if meter is not None:
        meter.current = rung

    async def one(session: UserSession, index: int) -> None:
        try:
            ok = await user(session, index)
        except RequestFailed:
            ok = False
        except Exception as exc:
            rung.errors.append(f"session {index}: {type(exc).__name__}: {exc}")
            ok = False
        if not ok:
            rung.sessions_failed += 1

    start = clock()
    mid, end = start + duration / 2, start + duration
    rung.start, rung.end = start, end
    offsets = sorted(rng.uniform(0.0, duration)
                     for _ in range(round(rate * duration)))
    half_checked = False
    index = first_index
    for offset in offsets:
        due = start + offset
        while True:
            now = clock()
            if not half_checked and now >= mid:
                rung.backlog_mid = _open(pending)
                half_checked = True
            if now >= due:
                break
            await asyncio.sleep((due if half_checked else min(due, mid)) - now)
        if max_backlog is not None and _open(pending) > max_backlog:
            rung.aborted = True
            break
        rung.lags.append(now - due)
        session = UserSession(rung, due, clock, meter)
        if on_start is not None:
            on_start(session, index)
        task = asyncio.ensure_future(one(session, index))
        pending.add(task)
        task.add_done_callback(pending.discard)
        rung.arrivals += 1
        index += 1
    if not rung.aborted and end > clock():
        await asyncio.sleep(end - clock())
    if not half_checked:
        rung.backlog_mid = _open(pending)
    rung.backlog_end = _open(pending)
    return rung


async def settle(pending: Set[asyncio.Task]) -> None:
    """Wait until every open session has finished."""
    while pending:
        await asyncio.gather(*list(pending), return_exceptions=True)
