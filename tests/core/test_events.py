"""Tests for the event queue."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SchedulingError
from repro.core.events import (
    Event,
    EventQueue,
    PRIORITY_ANALOG,
    PRIORITY_MONITOR,
    PRIORITY_NORMAL,
)


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        order = []
        q.push(3.0, lambda: order.append("c"))
        q.push(1.0, lambda: order.append("a"))
        q.push(2.0, lambda: order.append("b"))
        while q.peek_time() is not None:
            q.pop().callback()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        q = EventQueue()
        order = []
        for tag in "abc":
            q.push(1.0, lambda t=tag: order.append(t))
        while q.peek_time() is not None:
            q.pop().callback()
        assert order == ["a", "b", "c"]

    def test_priority_within_timestamp(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("normal"), PRIORITY_NORMAL)
        q.push(1.0, lambda: order.append("monitor"), PRIORITY_MONITOR)
        q.push(1.0, lambda: order.append("analog"), PRIORITY_ANALOG)
        while q.peek_time() is not None:
            q.pop().callback()
        assert order == ["analog", "normal", "monitor"]

    def test_priority_never_beats_time(self):
        q = EventQueue()
        order = []
        q.push(2.0, lambda: order.append("early-analog"), PRIORITY_ANALOG)
        q.push(1.0, lambda: order.append("late-normal"), PRIORITY_NORMAL)
        while q.peek_time() is not None:
            q.pop().callback()
        assert order == ["late-normal", "early-analog"]

    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=1, max_size=50))
    def test_pop_order_is_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while q.peek_time() is not None:
            popped.append(q.pop().time)
        assert popped == sorted(times)


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        event.cancel()
        assert q.peek_time() is None
        assert len(q) == 0

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(q) == 0

    def test_cancel_one_of_many(self):
        q = EventQueue()
        keep = q.push(2.0, lambda: None)
        drop = q.push(1.0, lambda: None)
        drop.cancel()
        assert q.peek_time() == 2.0
        assert q.pop() is keep


class TestQueueBasics:
    def test_pop_empty_raises(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            q.pop()

    def test_len_counts_live_events(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        e = q.push(2.0, lambda: None)
        assert len(q) == 2
        e.cancel()
        assert len(q) == 1

    def test_executed_counter(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.pop()
        assert q.executed == 1
        q.pop()
        assert q.executed == 2

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.clear()
        assert q.peek_time() is None

    def test_repr_mentions_state(self):
        q = EventQueue()
        event = q.push(1.5, lambda: None)
        assert "pending" in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)


class ModelQueue:
    """Reference queue: every pending event in one list, picked by sort."""

    def __init__(self):
        self.pending = []
        self.next_seq = 0
        self.epoch = None
        self.bands = {}
        self.executed = 0

    def mark(self):
        return self.next_seq

    def begin_epoch(self, mark):
        # Bands at one mark share one numbering until a restore.
        self.epoch = self.bands.setdefault(mark, [mark - 0.5, 0])

    def end_epoch(self):
        self.epoch = None

    def push(self, time, callback, priority=PRIORITY_NORMAL):
        if self.epoch is not None:
            seq = self.epoch[0] + self.epoch[1] * 2.0 ** -20
            self.epoch[1] += 1
        else:
            seq = self.next_seq
            self.next_seq += 1
        event = Event(time, priority, seq, callback)
        self.pending.append(event)
        return event

    def live_events(self):
        return iter(sorted(
            (e for e in self.pending if not e.cancelled),
            key=lambda e: (e.time, e.priority, e.seq),
        ))

    def peek_time(self):
        head = next(self.live_events(), None)
        return None if head is None else head.time

    def pop(self):
        event = next(self.live_events())
        self.pending.remove(event)
        self.executed += 1
        return event

    def dispatch(self, sim, until, inclusive=True):
        while True:
            head = next(self.live_events(), None)
            if head is None or head.time > until:
                break
            if not inclusive and head.time >= until:
                break
            self.pop()
            sim.now = max(sim.now, head.time)
            head.callback()

    def capture(self):
        events = list(self.pending)
        bands = {mark: list(band) for mark, band in self.bands.items()}
        return events, [e.cancelled for e in events], self.next_seq, bands

    def restore(self, state):
        events, flags, self.next_seq, bands = state
        for event, flag in zip(events, flags):
            event.cancelled = flag
        self.pending = list(events)
        self.epoch = None
        self.bands = {mark: list(band) for mark, band in bands.items()}


class Boom(Exception):
    pass


class Harness:
    """Drives one queue through a generated program, logging what ran.

    Each pushed event runs a script from a shared table when it fires:
    pushing further events (at ``now`` or later, any priority),
    cancelling an earlier event, or raising mid-run.
    """

    MAX_PUSHES = 150

    def __init__(self, queue, scripts):
        self.queue = queue
        self.scripts = scripts
        self.sim = SimpleNamespace(now=0.0, budget=None)
        self.handles = []
        self.saved = []
        self.log = []
        self.mark = None

    def push(self, delay, priority, script):
        if len(self.handles) >= self.MAX_PUSHES:
            return
        label = len(self.handles)
        self.handles.append(self.queue.push(
            self.sim.now + delay, lambda: self.fire(label, script), priority,
        ))

    def fire(self, label, script):
        self.log.append(("ran", label, self.sim.now))
        for action in self.scripts[script % len(self.scripts)]:
            self.act(action)

    def act(self, action):
        kind = action[0]
        if kind == "push":
            self.push(*action[1:])
        elif kind == "cancel" and self.handles:
            self.handles[action[1] % len(self.handles)].cancel()
        elif kind == "raise":
            raise Boom()

    def step(self, op):
        kind = op[0]
        queue = self.queue
        if kind in ("push", "cancel"):
            self.act(op)
        elif kind == "epoch":
            # Fault injection after a restore: a band below the mark.
            queue.begin_epoch(self.mark)
            for push in op[1]:
                self.act(push)
            queue.end_epoch()
        elif kind == "capture":
            self.saved.append((queue.capture(), self.sim.now))
        elif kind == "restore" and self.saved:
            state, self.sim.now = self.saved[op[1] % len(self.saved)]
            queue.restore(state)
        elif kind == "pop" and queue.peek_time() is not None:
            self.log.append(("popped", queue.pop().seq))
        elif kind == "run":
            until = self.sim.now + op[1]
            try:
                queue.dispatch(self.sim, until, op[2])
                self.sim.now = until
            except Boom:
                self.log.append(("boom", self.sim.now))

    def state(self):
        return (
            list(self.log),
            self.queue.executed,
            self.queue.peek_time(),
            [(e.time, e.priority, e.seq) for e in self.queue.live_events()],
        )


DELAYS = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5])
PRIORITIES = st.sampled_from(
    [PRIORITY_ANALOG, PRIORITY_NORMAL, PRIORITY_NORMAL, PRIORITY_MONITOR]
)
PUSH = st.tuples(st.just("push"), DELAYS, PRIORITIES, st.integers(0, 7))
ACTION = st.one_of(
    PUSH,
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.just(("raise",)),
)
OP = st.one_of(
    PUSH,
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(st.just("epoch"), st.lists(PUSH, min_size=1, max_size=3)),
    st.just(("capture",)),
    st.tuples(st.just("restore"), st.integers(0, 5)),
    st.just(("pop",)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 1.0, 2.5, 4.0]),
              st.booleans()),
)


class TestDeltaFifoModel:
    """The heap + delta-FIFO queue against a sorted-list reference."""

    @settings(max_examples=200, deadline=None)
    @given(
        scripts=st.lists(st.lists(ACTION, max_size=3), min_size=1,
                         max_size=8),
        elaboration=st.lists(PUSH, min_size=1, max_size=4),
        program=st.lists(OP, max_size=25),
    )
    def test_matches_sorted_reference(self, scripts, elaboration, program):
        real = Harness(EventQueue(), scripts)
        model = Harness(ModelQueue(), scripts)
        for harness in (real, model):
            for push in elaboration:
                harness.step(push)
            harness.mark = harness.queue.mark()
        # Two epoch bands at one mark, as two faults applied after the
        # same restore would draw.
        program = [("capture",)] + program + [("run", 4.0, True)]
        for op in program:
            real.step(op)
            model.step(op)
            assert real.state() == model.state()
            assert not real.queue._fifo
