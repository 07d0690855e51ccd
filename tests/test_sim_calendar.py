"""Property tests for the calendar-queue scheduler.

The contract under test is the one every determinism gate rides on:
events fire in ascending time order, and *equal* times fire in schedule
(FIFO) order — with no tie-break counter stored anywhere.  The queue is
driven through :class:`repro.sim.Environment` itself: ``env.at(t, cb)``
schedules a callback that records ``(env.now, tag)`` and ``env.step()``
dispatches exactly one event, and the resulting trace is compared
against a ``heapq`` reference model (which gets an explicit counter)
over randomized workloads.  Further engine-level tests exercise the
queue where cancellation (interrupt) and failure defusing interact
with it, and check that every ``run``/``step`` entry point dispatches
in the same order.
"""

from __future__ import annotations

import heapq
import json
import pathlib
import random

import pytest

from repro.sim.engine import Environment, Interrupt, SimulationError

GOLDEN_TRACES = pathlib.Path(__file__).parent / "data" / "fuzz_trace_golden.json"


class HeapModel:
    """The reference discipline: a binary heap keyed ``(t, counter)``."""

    def __init__(self):
        self._heap = []
        self._counter = 0

    def push(self, t, item):
        self._counter += 1
        heapq.heappush(self._heap, (t, self._counter, item))

    def pop(self):
        t, _tie, item = heapq.heappop(self._heap)
        return t, item

    def __len__(self):
        return len(self._heap)


class EnvQueue:
    """``Environment`` driven as a priority queue of ``(t, tag)`` pairs.

    ``push`` schedules a recording callback at absolute time ``t``;
    ``pop`` dispatches exactly one event and returns what it recorded,
    ``(env.now, tag)``.
    """

    def __init__(self):
        self.env = Environment()
        self.fired = []

    def _record(self, ev):
        self.fired.append((self.env.now, ev.value))

    def push(self, t, tag):
        self.env.at(t, self._record, tag)

    def pop(self):
        n = len(self.fired)
        self.env.step()
        assert len(self.fired) == n + 1, "step() must dispatch exactly one event"
        return self.fired[-1]


#: Delay distributions stressing different lanes: sub-bucket (current
#: lane inserts), bucket-scale (ring hops), far-future (overflow
#: ladder), and exact zeros (same-timestamp ties).
DELAY_CHOICES = (0.0, 0.0, 1e-9, 1e-7, 1e-6, 3e-6, 5e-5, 2e-3, 0.25, 7.0)


def _drive_pair(seed: int, n_ops: int, push_bias: float = 0.6):
    """Interleave randomized schedules and dispatches through both queues."""
    rng = random.Random(seed)
    cal = EnvQueue()
    ref = HeapModel()
    now = 0.0
    serial = 0
    for _ in range(n_ops):
        if ref and rng.random() > push_bias:
            got = cal.pop()
            want = ref.pop()
            assert got == want, f"divergence at t={want[0]}"
            now = want[0]
        else:
            delay = rng.choice(DELAY_CHOICES)
            if rng.random() < 0.5:
                delay *= rng.random()
            t = now + delay
            serial += 1
            cal.push(t, serial)
            ref.push(t, serial)
    while ref:
        assert cal.pop() == ref.pop()
    with pytest.raises(SimulationError):
        cal.env.step()


@pytest.mark.parametrize("seed", range(10))
def test_randomized_against_heap_model(seed):
    _drive_pair(seed, 3000)


@pytest.mark.parametrize("seed", range(5))
def test_pop_heavy_against_heap_model(seed):
    # Pop-biased interleaving drains the ring between pushes, forcing
    # frequent advances and re-spills from near-empty states.
    _drive_pair(100 + seed, 2000, push_bias=0.4)


def test_same_timestamp_fifo_stability():
    cal = EnvQueue()
    ref = HeapModel()
    # Bursts of identical timestamps, pushed across several rounds and
    # interleaved with pops, must pop in exact push order.
    # Each round sits beyond the previous round's pops, so pushes stay
    # at or after the clock (the engine never schedules into the past).
    times = [0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 2.5]
    serial = 0
    for round_ in range(50):
        for t in times:
            serial += 1
            cal.push(t + round_ * 3.0, serial)
            ref.push(t + round_ * 3.0, serial)
        for _ in range(3):
            assert cal.pop() == ref.pop()
    while ref:
        assert cal.pop() == ref.pop()


def test_overflow_entry_due_under_dense_ring():
    """A far-future entry must fire on time even when the bucket ring
    never drains (the ladder minimum guard).

    Regression shape: µs-scale traffic keeps every ring advance one-hop
    (no gather), while an entry pushed far beyond the horizon (a TCP
    retransmit timer over µs packet events) comes due mid-stream.
    Without the guard the clock slides straight past it.
    """
    cal = EnvQueue()
    ref = HeapModel()
    cal.push(0.5, "rto")
    ref.push(0.5, "rto")
    t = 0.0
    serial = 0
    for i in range(700_000):
        t += 1e-6
        serial += 1
        cal.push(t, serial)
        ref.push(t, serial)
        if i % 2 == 0:
            assert cal.pop() == ref.pop()
    while ref:
        assert cal.pop() == ref.pop()


def test_overflow_ladder_spill_and_refill():
    cal = EnvQueue()
    ref = HeapModel()
    rng = random.Random(42)
    # Several widely separated clumps: each drain crosses an epoch
    # boundary (ring exhausted -> gather -> re-spill at a new width).
    serial = 0
    for clump in range(6):
        base = clump * 100.0
        for _ in range(500):
            serial += 1
            t = base + rng.random() * 1e-3
            cal.push(t, serial)
            ref.push(t, serial)
    while ref:
        assert cal.pop() == ref.pop()


def test_thin_bucket_widening_keeps_order():
    # Steady monotone single-entry traffic crosses the _THIN_LIMIT
    # widening threshold; order must be unaffected across the re-spill.
    cal = EnvQueue()
    ref = HeapModel()
    t = 0.0
    for i in range(6000):
        t += 1e-6
        cal.push(t, i)
        ref.push(t, i)
        if i % 2 == 0:
            assert cal.pop() == ref.pop()
    while ref:
        assert cal.pop() == ref.pop()


def test_huge_same_time_clump_respills():
    # More entries at one timestamp than the re-spill window: the fill
    # must still run to the horizon (no thrashing) and keep FIFO order.
    cal = EnvQueue()
    ref = HeapModel()
    for i in range(5000):
        cal.push(3.0, i)
        ref.push(3.0, i)
    cal.push(10.0, "tail")
    ref.push(10.0, "tail")
    while ref:
        assert cal.pop() == ref.pop()


# -- engine-level: cancellation and defusing through the queue ---------------

def test_interrupt_cancels_pending_timer_in_any_lane():
    """Interrupting a process parked on a near or far timer must deliver
    exactly one Interrupt, and the stale timer must not resume it."""
    env = Environment()
    log = []

    def sleeper(name, delay):
        try:
            yield env.timeout(delay)
            log.append((name, "timeout", env.now))
        except Interrupt as exc:
            log.append((name, "interrupt", exc.cause, env.now))
            yield env.timeout(1e-6)
            log.append((name, "after", env.now))

    # One victim per lane: current bucket, ring, overflow ladder.
    victims = [env.process(sleeper(n, d), name=n)
               for n, d in (("near", 5e-7), ("ring", 5e-5), ("far", 5.0))]

    def killer():
        yield env.timeout(1e-7)
        for v in victims:
            v.interrupt(cause="cancel")

    env.process(killer())
    env.run()
    assert log == [
        ("near", "interrupt", "cancel", 1e-7),
        ("ring", "interrupt", "cancel", 1e-7),
        ("far", "interrupt", "cancel", 1e-7),
        ("near", "after", 1e-7 + 1e-6),
        ("ring", "after", 1e-7 + 1e-6),
        ("far", "after", 1e-7 + 1e-6),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_engine_random_schedule_fifo_invariant(seed):
    """Randomized after() schedules fire in (time, schedule-order)."""
    env = Environment()
    rng = random.Random(seed)
    fired = []
    scheduled = []
    serial = 0

    def driver():
        nonlocal serial
        for _ in range(400):
            delay = rng.choice(DELAY_CHOICES)
            if delay == 0.0:
                delay = 1e-7  # after() wants a future fire here
            t = env.now + delay
            serial += 1
            tag = serial
            scheduled.append((t, tag))
            env.after(delay, lambda _ev, tag=tag: fired.append((env.now, tag)))
            if rng.random() < 0.3:
                yield env.timeout(rng.choice((1e-7, 3e-6, 2e-3)))
            else:
                yield None

    env.process(driver())
    env.run()
    assert len(fired) == len(scheduled)
    # The dispatch order must equal the schedule sorted stably by time.
    want = [(t, tag) for t, tag in
            sorted(scheduled, key=lambda pair: pair[0])]
    assert [(t, tag) for t, tag in fired] == want


def test_defused_failure_in_overflow_does_not_raise():
    """A failed-then-defused event parked beyond the horizon must not
    explode at dispatch (teardown-raise only fires for unhandled
    failures)."""
    env = Environment()
    seen = []

    def waiter(ev):
        try:
            yield ev
        except RuntimeError as exc:
            seen.append(str(exc))

    ev = env.event()
    env.process(waiter(ev))
    env.schedule_callback(3.0, lambda: ev.fail(RuntimeError("late-fail")))
    # Dense foreground traffic so the failure is serviced mid-stream.
    def ticker():
        for _ in range(1000):
            yield env.timeout(1e-2)
    env.process(ticker())
    env.run()
    assert seen == ["late-fail"]


# -- entry points: run(), run(until=t), run(until=ev) and step() agree -------

#: Delays for the mixed schedule, zeros included (current-time lane).
MIXED_DELAYS = (0.0, 0.0, 1e-7, 1e-6, 3e-6, 5e-5, 2e-3, 0.25)
N_MARKS = 12


def _mixed_schedule(seed):
    """One seeded schedule touching every lane and wake-up path.

    Returns ``(env, trace, marks)``: ``trace`` collects ``(env.now, tag)``
    as the schedule runs, and ``marks`` are plain events a pacer process
    triggers in order, each followed by a ``defer`` at the same time.
    """
    env = Environment()
    rng = random.Random(seed)
    trace = []
    marks = [env.event() for _ in range(N_MARKS)]

    def rec(tag):
        trace.append((env.now, tag))

    def on_timer(ev):
        rec(("timer", ev.value))
        if ev.value % 3 == 0:
            env.defer(lambda _ev: rec(("defer", ev.value)))

    def worker(w):
        for i in range(40):
            yield env.timeout(rng.choice(MIXED_DELAYS))
            rec(("worker", w, i))
            r = rng.random()
            if r < 0.2:
                yield None
                rec(("yield", w, i))
            elif r < 0.5:
                env.at(env.now + rng.choice(MIXED_DELAYS), on_timer, 100 * w + i)

    def waiter(k, ev):
        value = yield ev
        rec(("woken", k, value))

    def waker():
        for k in range(10):
            ev = env.event()
            env.process(waiter(k, ev))
            env.process(waiter(k + 100, ev))
            yield env.timeout(rng.choice(MIXED_DELAYS))
            ev.succeed(k)
            rec(("woke", k))

    def exact_now():
        # Two timed events at one time t: the first fills the current-time
        # lane, and the second is due at exactly ``now`` while that lane is
        # non-empty -- it must still fire before the lane.
        for k in range(10):
            t = env.now + rng.choice((1e-6, 5e-5, 0.25))

            def first(ev):
                rec(("first", ev.value))
                env.defer(lambda _ev: rec(("imm", ev.value)))

            env.at(t, first, k)
            yield env.at(t, lambda ev: rec(("second", ev.value)), k)
            rec(("resumed", k))

    def pacer():
        for i, mark in enumerate(marks):
            yield env.timeout(rng.choice(MIXED_DELAYS))
            rec(("mark", i))
            mark.succeed(i)
            env.defer(lambda _ev, i=i: rec(("after-mark", i)))

    for w in range(4):
        env.process(worker(w))
    env.process(waker())
    env.process(exact_now())
    env.process(pacer())
    return env, trace, marks


@pytest.mark.parametrize("seed", range(3))
def test_entry_points_dispatch_in_the_same_order(seed):
    env, ref, _marks = _mixed_schedule(seed)
    env.run()
    assert len(ref) > 300
    for k in range(10):
        # The timed event at exactly ``now`` beat the current-time lane.
        i = next(i for i, (_t, tag) in enumerate(ref) if tag == ("second", k))
        assert (ref[i][0], ("imm", k)) in ref[i + 1:]

    # run(until=t) in slices: event times themselves and points between.
    times = sorted({t for t, _ in ref})
    cuts = []
    for i in range(0, len(times) - 1, 7):
        cuts.append(times[i])
        cuts.append((times[i] + times[i + 1]) / 2)
    env, trace, _marks = _mixed_schedule(seed)
    for cut in cuts:
        env.run(until=cut)
        assert env.now == cut
        # Everything due at or before the deadline fired, nothing later.
        assert trace == [entry for entry in ref if entry[0] <= cut]
    env.run()
    assert trace == ref

    # run(until=ev) over the chain of marks.
    env, trace, marks = _mixed_schedule(seed)
    for i, mark in enumerate(marks):
        assert env.run(until=mark) == i
        # It returns as soon as the mark fires: the defer queued behind
        # it at the same time is still pending.
        assert trace == ref[:len(trace)]
        assert (env.now, ("mark", i)) in trace
        assert (env.now, ("after-mark", i)) in ref[len(trace):]
    env.run()
    assert trace == ref

    # A step() loop, one event at a time.
    env, trace, _marks = _mixed_schedule(seed)
    per_step = []
    while True:
        n = len(trace)
        try:
            env.step()
        except SimulationError:
            break
        per_step.append(trace[n:])
    assert trace == ref
    for k in range(10):
        # One event per step: the timed event due at ``now`` is dispatched
        # alone, and the current-time lane it jumped waits for later steps.
        step = next(entries for entries in per_step
                    if any(tag == ("second", k) for _t, tag in entries))
        assert not any(tag == ("imm", k) for _t, tag in step)


# -- fuzzer seed matrix: traces must match the pre-swap golden capture --------

def _golden_keys():
    return sorted(json.loads(GOLDEN_TRACES.read_text()))


@pytest.mark.parametrize("key", _golden_keys())
def test_fuzz_trace_matches_pre_swap_golden(key):
    """Every fuzz scenario must replay byte-identically to the trace the
    heap-based engine produced (captured before the calendar-queue swap).

    This is the strongest statement of the tie-break invariant: the full
    stack — NICs, transports, NPF pipeline, backup rings — dispatches in
    exactly the old order, seed for seed.
    """
    from repro.fuzz.executor import run_scenario
    from repro.fuzz.generate import generate_scenario

    golden = json.loads(GOLDEN_TRACES.read_text())
    profile, index = key.rsplit(":", 1)
    sc = generate_scenario(int(index), 0xCAFEF00D, profile=profile)
    tr = run_scenario(sc)
    assert tr.crashed is None
    assert tr.compared() == golden[key]
