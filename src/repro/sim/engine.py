"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the
style of SimPy.  Every other subsystem in ``repro`` — the virtual-memory
model, the NIC models, the transports and the applications — runs on
top of a single :class:`Environment`:

* :class:`Event` — one-shot condition with callbacks, success/failure.
* :class:`Timeout` — an event that fires at a scheduled time.
* :class:`Process` — drives a generator; yielding an event suspends the
  process until the event fires.  A process is itself an event, so
  processes can wait on each other.
* :class:`Environment` — the clock, the calendar queue and the one
  dispatch loop.
* :func:`any_of` / :func:`all_of` — composite conditions.

Queue: a calendar queue tuned for the near-monotone timestamps a
simulator produces (DESIGN.md "Calendar-queue scheduler" has the
geometry and the measurements behind it):

* ``_imm`` — a deque of events firing at the current time
  (``succeed``/``fail``/``defer``/process wake-ups), append/popleft.
* ``_cur`` — the bucket being drained, sorted descending by fire time so
  the next event pops off the end.
* ``_buckets`` — a ring of ``_RING`` buckets of ``_width`` seconds.
* ``_ovf`` — the far-future overflow ladder, unsorted until the ring
  drains and ``_respill`` rebuilds a fresh epoch from it.

Two code paths touch the lanes.  :meth:`Environment._schedule_at` is the
only insert of a timed event (``timeout``, ``after``, ``at`` and
``schedule_train`` all call it); current-time triggers append to
``_imm`` directly.  :meth:`Environment._loop` is the only place events
are popped and dispatched: ``run()``, ``run(until=t)``,
``run(until=event)`` and ``step()`` differ only in the stop event and
deadline they pass it.

Determinism: events scheduled for the same timestamp fire in the order
they were scheduled.  The queue keeps no tie counter: equal timestamps
always take the same lane and bucket, appends happen in schedule order,
and every sort is stable, so runs are exactly reproducible.

Performance: ``_loop`` is the innermost loop of every experiment, so it
inlines the one-hop bucket advance and the process-resume fast path, and
all event classes use ``__slots__``.  An event's fire time lives on the
event (``_t``), so lanes hold bare events.  A "processed" event is one
whose ``callbacks`` have been detached (set to ``None``).
"""

from __future__ import annotations

import math
from collections import deque
from operator import attrgetter
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "any_of",
    "all_of",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupting party may attach an arbitrary ``cause`` that the
    interrupted process can inspect.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.  "Processed" is not a state value: an event has
# been processed exactly when its callbacks have been detached
# (``callbacks is None``), so the dispatch loop never stores a state.
_PENDING = 0
_TRIGGERED = 1  # scheduled, not yet processed


# Repr sequence for events with no ``env`` reference (timeouts); see
# ``Event._stable_seq``.
_orphan_repr_seq = 0


# Calendar-queue geometry.  _RING buckets of _width seconds each; the
# horizon test works in bucket units (``d`` below), so ``_hor`` is kept
# as ``_j + _RING`` in float.  _SPILL bounds how many overflow entries a
# re-spill moves into one epoch; _SCAN_LIMIT bounds how many empty
# buckets the cold advance scans before declaring the ring sparse and
# rebuilding; _THIN_LIMIT is how many consecutive single-entry buckets
# trigger a width increase.
_RING = 256
_RING_MASK = _RING - 1
_SPILL = 4096
_SCAN_LIMIT = 48
_THIN_LIMIT = 2048
_FILL = float(_RING - 1)
# A backlog at or below this stays in the flat lane (``_cur`` alone,
# width = inf); above it, _flat_exit restores bucketed operation.
_FLAT_LIMIT = 64

_EV_T = attrgetter("_t")


def _NO_WAITERS(event):
    """Shared sentinel for ``callbacks`` = "triggered, nobody waiting yet".

    ``Environment.timeout`` and the internal wake-up hooks are created by
    the million; allocating a fresh empty list per event just so one
    waiter can append to it is the single biggest allocation cost in the
    simulator.  Instead ``callbacks`` holds one of:

    * a ``list``      — the general form (pending events, multiple waiters);
    * a :class:`Process` — exactly one waiting process, stored bare (the
      dispatch loop resumes it without even a bound-method call);
    * a callable      — exactly one non-process waiter, stored bare;
    * this sentinel   — triggered with no waiters yet (callable no-op, so
      the dispatch loop can invoke a non-list ``callbacks`` blindly);
    * ``None``        — the event has been processed.
    """


class Event:
    """A one-shot condition that processes can wait for.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it: the event is appended to the environment's
    current-time lane and its callbacks run when the dispatch loop
    reaches it (after everything already queued at this timestamp).
    """

    # ``_seq`` is assigned lazily on first repr (see ``_stable_seq``) and
    # ``_t`` (absolute fire time) only when an event enters the timed
    # lanes, so the hot construction paths never touch them.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused",
                 "_t", "_seq")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._state = _PENDING
        # set True when a failure was consumed by a waiter (prevents the
        # "unhandled failure" error at teardown).
        self._defused = False

    # -- introspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        self.env._imm.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will see the exception raised at
        its ``yield`` statement.
        """
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        self.env._imm.append(self)
        return self

    def _stable_seq(self) -> int:
        """A reproducible identity for reprs/logs.

        ``id(self)`` changes run to run (allocator addresses), so
        anything that logs an event repr would diverge between identical
        runs.  Instead each event is numbered, on first repr, from its
        environment's own counter — stable across runs because repr
        order is itself deterministic.  Timeouts carry no ``env``
        reference; they fall back to a module-level counter (equally
        deterministic per run).
        """
        try:
            return self._seq
        except AttributeError:
            env = getattr(self, "env", None)
            if env is not None:
                env._repr_seq += 1
                seq = env._repr_seq
            else:
                global _orphan_repr_seq
                _orphan_repr_seq += 1
                seq = _orphan_repr_seq
            self._seq = seq
            return seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.callbacks is None:
            state = "processed"
        else:
            state = "pending" if self._state == _PENDING else "triggered"
        return f"<{type(self).__name__} {state} #{self._stable_seq()}>"


class Timeout(Event):
    """An event born triggered, firing at a scheduled time.

    Built only by :meth:`Environment.timeout`, :meth:`~Environment.after`,
    :meth:`~Environment.at` and :meth:`~Environment.schedule_train`,
    through ``Timeout.__new__`` (no constructor frame on the hottest
    allocation in the simulator).  ``env`` and ``_defused`` are left
    unset: ``env`` is only read by ``succeed``/``fail``, which reject a
    triggered event first, and ``not _ok`` guards every ``_defused``
    read.
    """

    __slots__ = ()


# ``Timeout.__new__`` bound once: the factories call it per event;
# re-fetching it there would pay a type attribute lookup each time.
_new_timeout = Timeout.__new__


class Process(Event):
    """Drives a generator as a concurrent simulated activity.

    The generator may yield:

    * another :class:`Event` (including a :class:`Process`) — the process
      resumes when that event fires, receiving its value (or the failure
      exception raised at the yield point);
    * ``None`` — the process is rescheduled immediately (a cooperative
      yield point within the same timestamp).

    The process itself is an event that fires with the generator's return
    value, or fails with its uncaught exception.
    """

    __slots__ = ("_generator", "_send", "_throw", "_resume_cb", "name",
                 "_waiting_on")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        self._generator = generator
        # Bound methods cached once: every wake-up of every process goes
        # through these, and CPython otherwise allocates a fresh bound
        # method per access (one extra allocation per event).
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Bootstrap: step the generator at the current time (after every
        # event already scheduled for it — FIFO order is preserved).
        self._schedule_resume(True, None)

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def _schedule_resume(self, ok: bool, value: Any) -> None:
        """Schedule a wake-up of this process at the current time.

        Equivalent to allocating a fresh :class:`Event`, registering
        :meth:`_resume` and triggering it — one current-time append —
        but skips the constructor and the ``succeed``/``fail`` state
        checks.  The process itself is stored bare as the hook's
        ``callbacks`` so the dispatch loop takes its inlined resume
        path.  ``_defused`` is pre-set so a failure value is considered
        handled (it is delivered into the generator).
        """
        env = self.env
        hook = Event.__new__(Event)
        hook.env = env
        hook.callbacks = self  # single waiting process, stored bare
        hook._value = value
        hook._ok = ok
        hook._state = _TRIGGERED
        hook._defused = True
        env._imm.append(hook)
        self._waiting_on = hook

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        The process is always findable while alive: whether it waits on
        an ordinary event, on a bootstrap/immediate wake-up, or on an
        event that has already *triggered* (scheduled, callbacks not yet
        run), the stale wake-up is neutralized and exactly one resume —
        the interrupt — is delivered.  Only a process whose generator has
        never started cannot be interrupted (there is no yield point to
        throw into).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        from inspect import getgeneratorstate  # cold path; avoids a hot-path flag
        if getgeneratorstate(self._generator) == "GEN_CREATED":
            raise SimulationError(f"process {self.name!r} is not waiting; cannot interrupt")
        target = self._waiting_on
        if target is not None:
            cbs = target.callbacks
            if cbs is self or cbs is self._resume_cb:
                target.callbacks = _NO_WAITERS
            elif cbs.__class__ is list:
                try:
                    cbs.remove(self._resume_cb)
                except ValueError:
                    pass
        # If the target's callbacks were already detached (it is being
        # processed right now, or was processed), _resume's identity check
        # against _waiting_on discards the stale wake-up.
        interrupt_ev = Event(self.env)
        interrupt_ev.callbacks.append(self._resume_cb)
        interrupt_ev.fail(Interrupt(cause))
        interrupt_ev._defused = True
        self._waiting_on = interrupt_ev

    def _resume(self, event: Event) -> None:
        # The callback form, registered by list waiters.  NOTE:
        # Environment._loop inlines this body for a bare Process waiter
        # (saving the call frame on the hottest path); any change here
        # must be mirrored there.
        if self._waiting_on is not event:
            # Stale wake-up: the process was interrupted (or re-targeted)
            # after this event triggered but before it was processed.
            if not event._ok:
                event._defused = True
            return
        # _waiting_on is NOT cleared here: every live exit of this method
        # overwrites it (wait on the yielded event or a scheduled hook)
        # and the dead exits make it unreachable, so the store is wasted
        # work on the hottest path in the simulator.
        try:
            if event._ok:
                result = self._send(event._value)
            else:
                event._defused = True
                result = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An interrupt escaping the generator kills the process cleanly.
            self.succeed(exc.cause)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if result is None:
            # Cooperative yield: reschedule at the same timestamp.
            self._schedule_resume(True, None)
            return
        try:
            # Duck-typed fast path (saves an isinstance per wait): every
            # Event has a ``callbacks`` slot; anything else raises.
            result_callbacks = result.callbacks
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}; expected an Event or None"
            ) from None
        if result_callbacks is _NO_WAITERS:
            # First (sole) waiter on a bare triggered event — the single
            # hottest wait in the simulator (a fresh ``env.timeout``):
            # store the process itself, no list, no bound method.
            self._waiting_on = result
            result.callbacks = self
        elif result_callbacks is None:
            # Already processed: resume with its value after the events
            # currently queued at this timestamp (FIFO order preserved).
            if result._ok:
                self._schedule_resume(True, result._value)
            else:
                result._defused = True
                self._schedule_resume(False, result._value)
        elif result_callbacks.__class__ is list:
            self._waiting_on = result
            result_callbacks.append(self._resume_cb)
        else:
            # Second waiter on an event holding a bare waiter.
            self._waiting_on = result
            if result_callbacks.__class__ is Process:
                result_callbacks = result_callbacks._resume_cb
            result.callbacks = [result_callbacks, self._resume_cb]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class _Condition(Event):
    """Base for any_of/all_of composite events."""

    __slots__ = ("_events", "_need_all", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event], need_all: bool):
        super().__init__(env)
        self._events = list(events)
        self._need_all = need_all
        self._pending = 0
        for ev in self._events:
            if not isinstance(ev, Event):
                raise SimulationError(f"condition operand {ev!r} is not an Event")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            cbs = ev.callbacks
            if cbs is None:
                self._observe(ev)
                if self._state != _PENDING:
                    return
            else:
                self._pending += 1
                if cbs.__class__ is list:
                    cbs.append(self._observe)
                elif cbs is _NO_WAITERS:
                    ev.callbacks = self._observe
                else:
                    if cbs.__class__ is Process:
                        cbs = cbs._resume_cb
                    ev.callbacks = [cbs, self._observe]

    def _results(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events
                if ev.callbacks is None and ev._ok}

    def _observe(self, event: Event) -> None:
        if self._state != _PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._defused = True  # caller may not wait; don't explode
            return
        if self._need_all:
            self._pending -= 1
            done = all(ev.callbacks is None for ev in self._events)
        else:
            done = True
        if done:
            self.succeed(self._results())


def any_of(env: "Environment", events: Iterable[Event]) -> Event:
    """Event that fires when *any* of ``events`` fires.

    Its value is a dict mapping each already-fired event to its value.
    """
    return _Condition(env, events, need_all=False)


def all_of(env: "Environment", events: Iterable[Event]) -> Event:
    """Event that fires when *all* of ``events`` have fired."""
    return _Condition(env, events, need_all=True)


# Stop event for the unbounded ``run`` forms: never triggered, so the
# dispatch loop's ``stop.callbacks is not None`` test always holds.
_NEVER = Event.__new__(Event)
_NEVER.callbacks = ()


class Environment:
    """The simulation clock and calendar queue."""

    __slots__ = ("_now", "_imm", "_cur", "_buckets", "_j", "_jp1", "_hor",
                 "_t0", "_inv_w", "_width", "_thin", "_ovf", "_ovfd",
                 "_repr_seq")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # Current-time lane: events firing at exactly ``now``.
        self._imm: deque[Event] = deque()
        # Bucket being drained, sorted descending by ``_t`` (pop = end).
        self._cur: list[Event] = []
        # The bucket ring and its epoch coordinates.  ``_j`` is the
        # current bucket index within the epoch, ``_jp1``/``_hor`` its
        # float mirrors for the push-path compares, ``_t0``/``_width``/
        # ``_inv_w`` the epoch origin and bucket width.
        self._buckets: list[list[Event]] = [[] for _ in range(_RING)]
        self._j = 0
        self._jp1 = 1.0
        self._hor = float(_RING)
        self._t0 = self._now
        self._width = 1e-6
        self._inv_w = 1e6
        self._thin = 0
        # Far-future overflow ladder (unsorted until re-spill), and the
        # minimum bucket offset (current-epoch units) of its entries:
        # the advance paths must never adopt a bucket the ladder still
        # holds entries for, or a dense ring would let the clock slide
        # past a far-future event that has since come due.
        self._ovf: list[Event] = []
        self._ovfd = math.inf
        self._repr_seq = 0  # see Event._stable_seq

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling core ---------------------------------------------------
    def _schedule_at(self, t: float, ev: Event) -> None:
        """Enqueue ``ev`` to fire at absolute time ``t``.

        The only insert path for timed events.  Times at or before
        ``now`` join the current-time lane.  The lane test is a pure
        function of ``t`` (monotone in ``t`` within an epoch), which is
        what preserves FIFO order for equal timestamps without a tie
        counter: equal times always take the same lane and the same
        bucket, where appends happen in schedule order.  ``d < _jp1`` is
        exactly ``int(d) <= _j`` for ``d >= 0``, so the hot path needs no
        ``int()`` at all.
        """
        if t <= self._now:
            self._imm.append(ev)
            return
        ev._t = t
        inv_w = self._inv_w
        if inv_w:
            d = (t - self._t0) * inv_w
            if d >= self._jp1:
                if d < self._hor:
                    j = int(d)
                    k = j - self._j
                else:
                    k = _RING
                if k >= _RING:
                    self._ovf.append(ev)
                    if d < self._ovfd:
                        self._ovfd = d
                    return
                if k > 0:
                    self._buckets[j & _RING_MASK].append(ev)
                    return
                # k <= 0: float rounding disagreed with the _jp1
                # shortcut; the integer mapping is authoritative and
                # puts the event in the current bucket.
        # Current bucket, or the flat lane (width = inf, ``inv_w == 0``)
        # where ``_cur`` alone carries the schedule.
        cur = self._cur
        if not cur or t >= cur[0]._t:
            cur.insert(0, ev)
        else:
            self._slow_insert(t, ev)
        if not inv_w and len(cur) > _FLAT_LIMIT:
            self._flat_exit()

    def _slow_insert(self, t: float, ev: Event) -> None:
        # ``_cur`` is descending by ``_t``; find the first index whose
        # time is <= t so the new event lands in front of (= pops after)
        # every equal-time entry already there.  Index 0 was ruled out
        # by the front-insert check.
        cur = self._cur
        lo, hi = 1, len(cur)
        while lo < hi:
            mid = (lo + hi) // 2
            if cur[mid]._t > t:
                lo = mid + 1
            else:
                hi = mid
        cur.insert(lo, ev)

    def _flat_exit(self) -> None:
        """The flat lane outgrew ``_FLAT_LIMIT``: restore bucketed mode.

        No-op while the lane's span is zero — an equal-time burst
        occupies a single bucket at any finite width, so the flat lane
        already serves it at O(1) per event and re-bucketing would just
        thrash.
        """
        cur = self._cur
        if cur[0]._t <= cur[-1]._t:
            return
        cur.reverse()  # ascending again = schedule order for ties
        # Drain in place: ``_loop`` caches ``_cur`` in a local, and a
        # push can land mid-dispatch — a stale local is only safe when
        # the object it still references is empty (same contract as
        # ``_widen``).
        entries = self._ovf
        entries.extend(cur)
        cur.clear()
        self._ovf = entries
        # adopt=False: adopting a bucket into ``_cur`` here would break
        # the stale-local contract above (``_loop``'s ``cur`` must stay a
        # truthful emptiness witness for ``self._cur``); the next pop's
        # else-branch picks the first bucket up lazily instead.
        self._respill(adopt=False)

    def _advance(self) -> bool:
        """Refill ``_cur`` from the ring (cold path).

        ``_loop`` inlines the one-hop case (next bucket non-empty);
        this method scans further, and when the ring turns out to be
        sparse — or drained — gathers everything and re-spills a fresh
        epoch.  Returns False when no timed events remain anywhere.
        """
        buckets = self._buckets
        j0 = j = self._j
        limit = j + _SCAN_LIMIT
        empty = self._cur
        ovfd = self._ovfd
        while j < limit:
            j += 1
            if ovfd < j + 1.0:
                # The ladder holds an entry at (or before) this bucket:
                # merge it in via a gather + re-spill before advancing.
                break
            b = buckets[j & _RING_MASK]
            if b:
                self._j = j
                self._jp1 = j + 1.0
                self._hor = j + 256.0
                buckets[j & _RING_MASK] = empty  # recycle the drained list
                if len(b) > 1:
                    b.sort(key=_EV_T)
                    b.reverse()
                    self._thin = 0
                    self._cur = b
                else:
                    # Hop distance — the buckets scanned to get here — is
                    # the width signal on this path: a serial ms-scale
                    # pipeline over a µs-scale width pays the whole scan
                    # on every event, so count the probes, not just the
                    # adoptions, toward the widening threshold.
                    th = self._thin + (j - j0)
                    self._thin = th
                    self._cur = b
                    if th >= _THIN_LIMIT:
                        self._widen()
                return True
        # Ring is sparse (or exhausted): gather and re-spill.  Overflow
        # entries go first — see the tie-break note in ``_widen``.
        entries = self._ovf
        for b in buckets:
            if b:
                entries.extend(b)
                b.clear()
        self._ovf = entries
        # A scan miss that gathers almost nothing means the backlog has
        # degenerated to a serial pipeline (one or two pending timers
        # hopping empty buckets on every pop).  No bucket width serves
        # that shape well, so drop to the *flat lane*: width := inf maps
        # every future push onto the ``d < _jp1`` front-insert path, and
        # ``_cur`` alone — already sorted, popped from the end — carries
        # the whole schedule at a couple of compares per event.  The
        # lane reverts to bucketed mode when it outgrows ``_FLAT_LIMIT``
        # (see ``_flat_exit``).
        if len(entries) <= 2:
            if not entries:
                self._ovfd = math.inf
                return False
            if len(entries) > 1:
                entries.sort(key=_EV_T)
            entries.reverse()
            self._cur = entries
            self._ovf = []
            self._ovfd = math.inf
            self._t0 = self._now
            self._width = math.inf
            self._inv_w = 0.0
            self._thin = 0
            self._j = 0
            self._jp1 = 1.0
            self._hor = 256.0
            return True
        return self._respill()

    def _widen(self) -> None:
        """Chronic single-entry buckets: grow the bucket width.

        Gathers everything pending and re-spills with at least 8x the
        current width, so steady near-monotone traffic lands in the
        front-insert fast path instead of hopping a bucket per event.

        Tie-break invariant: within an epoch the horizon only grows, so
        equal-time events can only be split between containers as
        overflow-entry-first (scheduled while the horizon was smaller),
        never the other way around.  Gathering overflow, then ring, then
        the current lane is therefore the one concatenation order under
        which the stable re-spill sort keeps split ties in schedule
        order.
        """
        self._thin = 0
        min_width = self._width * 8.0
        entries = self._ovf
        for b in self._buckets:
            if b:
                entries.extend(b)
                b.clear()
        cur = self._cur
        if cur:
            cur.reverse()  # back to ascending = schedule order for ties
            entries.extend(cur)
            cur.clear()
        self._ovf = entries
        self._respill(min_width)

    def _respill(self, min_width: float = 0.0, adopt: bool = True) -> bool:
        """Rebuild the epoch from ``_ovf`` (ring and ``_cur`` are empty).

        Sorts the ladder (stable — ties stay in schedule order), adapts
        the bucket width to the span of the earliest ``_SPILL`` entries,
        and re-buckets everything that fits under the new horizon; the
        rest stays on the ladder for the next epoch.  The ``_SPILL``
        window only sizes the buckets — the fill itself runs to the
        horizon, so every leftover is strictly beyond it (``_ovfd``
        stays >= the horizon and the advance guard cannot re-trigger an
        immediate gather).
        """
        entries = self._ovf
        if not entries:
            self._ovfd = math.inf
            return False
        entries.sort(key=_EV_T)
        if len(entries) > _SPILL:
            window = entries[:_SPILL]
        else:
            window = entries
        t_first = window[0]._t
        span = window[-1]._t - t_first
        width = self._width
        if 0.0 < span < math.inf:
            # Target several entries per bucket rather than the textbook
            # ~1: probes are Python-priced while the per-adoption sort
            # is a C-priced Timsort, so a small backlog wants fewer,
            # fatter buckets (64 entries over 128 buckets would pay a
            # multi-bucket scan on nearly every pop).
            width = span / max(2.0, min(128.0, len(window) / 6.0))
        if width < min_width:
            width = min_width
        if 0.0 < width < math.inf:
            self._width = width
            self._inv_w = 1.0 / width
        inv_w = self._inv_w
        self._t0 = t_first
        buckets = self._buckets
        count = 0
        for ev in entries:
            d = (ev._t - t_first) * inv_w
            if d >= _FILL:
                break
            buckets[int(d) & _RING_MASK].append(ev)
            count += 1
        if count == len(entries):
            self._ovf = []
            self._ovfd = math.inf
        else:
            if count:
                del entries[:count]
            # Sorted, so the first leftover is the ladder minimum —
            # expressed in the new epoch's units.
            self._ovfd = (entries[0]._t - t_first) * inv_w
        self._j = -1
        self._jp1 = 0.0
        self._hor = 255.0  # matches _FILL: valid iff int(d) <= _j + 255
        if not adopt:
            return True
        refilled = self._advance()
        assert refilled  # at least one entry was just bucketed
        return True

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now.

        ``callbacks`` starts as the shared no-waiters sentinel instead of
        a fresh list (see :func:`_NO_WAITERS`).
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        ev = _new_timeout(Timeout)
        ev.callbacks = _NO_WAITERS
        ev._value = value
        ev._ok = True
        ev._state = _TRIGGERED
        self._schedule_at(self._now + delay, ev)
        return ev

    def after(self, delay: float, callback: Callable[["Event"], None]) -> Timeout:
        """:meth:`timeout` with the single waiter pre-bound.

        Identical queue position and Timeout fields to ``t = timeout(d);
        t.callbacks = cb`` — one construction, no re-assignment.  Used by
        the NPF callback pipeline, which schedules one of these per
        phase; callers pass non-negative delays.
        """
        ev = _new_timeout(Timeout)
        ev.callbacks = callback
        ev._value = None
        ev._ok = True
        ev._state = _TRIGGERED
        self._schedule_at(self._now + delay, ev)
        return ev

    def at(self, t: float, callback: Callable[["Event"], None],
           value: Any = None) -> Timeout:
        """:meth:`after` with an *absolute* fire time.

        The burst-mode network datapath computes a packet train's
        completion timestamps analytically as a running float sum; a
        relative ``after(t - now)`` would re-derive the fire time as
        ``now + (t - now)``, which is not bit-identical to ``t`` in
        float arithmetic and would shift delivery order against the
        per-packet datapath.  ``at`` schedules at exactly ``t`` (times
        at or before ``now`` land in the current-time lane, like every
        other trigger).  ``value`` is delivered as the event's value so
        one pre-bound callback can serve many events.
        """
        ev = _new_timeout(Timeout)
        ev.callbacks = callback
        ev._value = value
        ev._ok = True
        ev._state = _TRIGGERED
        self._schedule_at(t, ev)
        return ev

    def schedule_train(self, times: Iterable[float],
                       callback: Callable[["Event"], None]) -> None:
        """Bulk :meth:`at`: one pre-bound ``callback`` at each absolute time.

        The fast path for committing a packet train: ``times[i]`` is the
        i-th delivery timestamp and the event's value is ``i``, so a
        single bound method per train serves every packet — one Timeout
        allocation per packet and nothing else (no lambda, no generator
        resume, no Store traffic).  ``times`` must be non-decreasing
        (a train's completion sequence), which keeps every insert on the
        calendar's front-insert/append fast paths.
        """
        schedule = self._schedule_at
        new = _new_timeout
        i = 0
        for t in times:
            ev = new(Timeout)
            ev.callbacks = callback
            ev._value = i
            ev._ok = True
            ev._state = _TRIGGERED
            schedule(t, ev)
            i += 1

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def defer(self, callback: Callable[[Event], None], value: Any = None) -> Event:
        """Schedule ``callback(event)`` at the current time (one append).

        The callback runs after every event already queued at this
        timestamp — the same FIFO bootstrap a fresh :class:`Process`
        gets, without the generator machinery.  Entry hook for
        callback-driven pipelines (``NpfDriver.service_fault_async``);
        field-for-field identical to ``Process._schedule_resume``'s hook.
        """
        ev = Event.__new__(Event)
        ev.env = self
        ev.callbacks = callback  # single waiter, stored bare
        ev._value = value
        ev._ok = True
        ev._state = _TRIGGERED
        ev._defused = True
        self._imm.append(ev)
        return ev

    def any_of(self, events: Iterable[Event]) -> Event:
        return any_of(self, events)

    def all_of(self, events: Iterable[Event]) -> Event:
        return all_of(self, events)

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` simulated seconds (fire-and-forget).

        Rides the pre-bound :meth:`after` fast path: one allocation, the
        wrapper stored bare as the sole waiter.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        return self.after(delay, lambda _ev: fn())

    # -- execution ---------------------------------------------------------
    def _loop(self, stop: Event, deadline: float) -> None:
        """The dispatch loop: pop and process events in schedule order.

        Returns once ``stop`` has been processed (checked before every
        event), once the next timed event lies beyond ``deadline``, or
        once the schedule is empty.  The deadline is compared only when
        a timed event is popped: the current-time lane is at ``now``,
        which never exceeds it.

        Timed entries at exactly ``now`` predate anything in the
        current-time lane (they were scheduled before the clock reached
        this timestamp), so they fire first.  This loop inlines the
        one-hop bucket advance (``_advance`` is the cold path) and the
        body of ``Process._resume`` for a bare process waiter.
        """
        imm = self._imm
        buckets = self._buckets
        cur = self._cur
        while stop.callbacks is not None:
            if imm:
                if cur and cur[-1]._t <= self._now:
                    event = cur.pop()
                    self._now = event._t
                else:
                    event = imm.popleft()
            elif cur:
                event = cur[-1]
                when = event._t
                if when > deadline:
                    return
                del cur[-1]
                self._now = when
            else:
                j = self._j + 1
                b = buckets[j & _RING_MASK]
                if b and self._ovfd >= j + 1.0:
                    self._j = j
                    self._jp1 = j + 1.0
                    self._hor = j + 256.0
                    buckets[j & _RING_MASK] = cur
                    if len(b) > 1:
                        b.sort(key=_EV_T)
                        b.reverse()
                        self._thin = 0
                        self._cur = cur = b
                    else:
                        th = self._thin + 1
                        self._thin = th
                        self._cur = cur = b
                        if th >= _THIN_LIMIT:
                            self._widen()
                            cur = self._cur
                elif self._advance():
                    cur = self._cur
                else:
                    return
                continue
            callbacks = event.callbacks
            event.callbacks = None
            cls = callbacks.__class__
            if cls is Process:
                # Inlined Process._resume (see the note there).
                proc = callbacks
                if proc._waiting_on is event:
                    try:
                        if event._ok:
                            result = proc._send(event._value)
                        else:
                            event._defused = True
                            result = proc._throw(event._value)
                    except StopIteration as stop_exc:
                        proc.succeed(stop_exc.value)
                        continue
                    except Interrupt as exc:
                        proc.succeed(exc.cause)
                        continue
                    except BaseException as exc:
                        proc.fail(exc)
                        continue
                    try:
                        rcbs = result.callbacks
                    except AttributeError:
                        if result is None:
                            proc._schedule_resume(True, None)
                            continue
                        raise SimulationError(
                            f"process {proc.name!r} yielded {result!r}; "
                            "expected an Event or None"
                        ) from None
                    if rcbs is _NO_WAITERS:
                        proc._waiting_on = result
                        result.callbacks = proc
                    elif rcbs is None:
                        if result._ok:
                            proc._schedule_resume(True, result._value)
                        else:
                            result._defused = True
                            proc._schedule_resume(False, result._value)
                    elif rcbs.__class__ is list:
                        proc._waiting_on = result
                        rcbs.append(proc._resume_cb)
                    else:
                        proc._waiting_on = result
                        if rcbs.__class__ is Process:
                            rcbs = rcbs._resume_cb
                        result.callbacks = [rcbs, proc._resume_cb]
                elif not event._ok:
                    event._defused = True
            elif cls is list:
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            else:
                # Bare single waiter (or the no-op sentinel).  Bare-waiter
                # events are born ok or born defused, so no teardown check.
                callbacks(event)

    def step(self) -> None:
        """Process the single next event in the schedule."""
        imm = self._imm
        cur = self._cur
        if imm:
            if cur and cur[-1]._t <= self._now:
                nxt = cur[-1]
            else:
                nxt = imm[0]
        else:
            while not cur:
                if not self._advance():
                    raise SimulationError("step() on an empty schedule")
                cur = self._cur
            nxt = cur[-1]
        self._loop(nxt, math.inf)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the schedule is empty;
        * a number — run until the clock reaches that time (events at
          exactly that time fire; ``now`` ends at it);
        * an :class:`Event` — run until that event fires, returning its
          value (or raising its failure).
        """
        if until is None:
            self._loop(_NEVER, math.inf)
            return None
        if isinstance(until, Event):
            self._loop(until, math.inf)
            if until.callbacks is not None:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                )
            if until._ok:
                return until._value
            until._defused = True
            raise until._value
        deadline = float(until)
        if deadline != math.inf and deadline < self._now:
            raise SimulationError(f"run(until={until!r}) is in the past (now={self._now})")
        self._loop(_NEVER, deadline)
        if deadline != math.inf:
            self._now = deadline
        return None
