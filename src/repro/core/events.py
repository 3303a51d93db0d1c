"""Discrete-event queue for the mixed-mode kernel.

The queue orders callbacks by (time, priority, insertion order).  Two
events at the same time execute in insertion order, which gives the
delta-cycle semantics the digital layer relies on: a zero-delay signal
update scheduled while processing time *t* runs later within the same
timestamp, never "in the past".

Insertion order is materialised as a monotonically increasing sequence
number.  Checkpoint/warm-start support (see
:mod:`repro.core.snapshot`) adds two refinements:

* the counter is a plain integer (`next_seq`) so a snapshot can record
  and restore it, keeping replayed runs sequence-identical with an
  uninterrupted run; and
* an *epoch band*: between :meth:`begin_epoch` and :meth:`end_epoch`,
  pushed events receive fractional sequence numbers just below a
  recorded mark.  A fault applied after restoring a mid-run snapshot
  then sorts exactly where it would have in a cold run — after all
  elaboration-time events but before every event scheduled while the
  simulation was running.

Timed events, analog steps and epoch-band events live in a heap.
Normal-priority events pushed *at* the timestamp
:meth:`EventQueue.dispatch` is running — zero-delay signal updates and
process wake-ups, most digital activity — go to a FIFO instead: they
carry the newest sequence numbers, so arrival order is their execution
order.  The FIFO is empty outside :meth:`~EventQueue.dispatch`.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import chain
from time import perf_counter

from .errors import BudgetExceededError, SchedulingError, SimulationError

#: Priority classes.  Analog solver steps run *before* ordinary digital
#: activity at the same timestamp so that digital processes sampling
#: analog nodes observe values consistent with the current time.
PRIORITY_ANALOG = 0
PRIORITY_NORMAL = 1
PRIORITY_MONITOR = 2

#: Spacing of fractional sequence numbers inside an epoch band.  The
#: band spans half a unit below the mark, so up to ``0.5 / _EPOCH_STEP``
#: events fit before the band would leak into normal sequence space.
_EPOCH_STEP = 2.0 ** -20

#: Events between wall-clock budget checks in a budgeted dispatch; a
#: power of two so the modulo is a mask.
WALL_CHECK_STRIDE = 256

_NO_LIMIT = float("inf")


class Event:
    """A scheduled callback.  Cancellable via :meth:`cancel`."""

    __slots__ = ("time", "priority", "seq", "callback", "cancelled")

    def __init__(self, time, priority, seq, callback):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        """Prevent the callback from running; safe to call repeatedly."""
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq)

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6g} prio={self.priority} {state}>"


class EventQueue:
    """Events keyed by (time, priority, seq): a heap plus a delta FIFO."""

    def __init__(self):
        self._heap = []
        self._fifo = deque()
        #: The timestamp :meth:`dispatch` is executing; None outside it.
        self._now = None
        self._next_seq = 0
        #: Whether an epoch band is open; ``(base, used)`` of the last.
        self._in_band = False
        self._band = (None, 0)
        self.executed = 0

    def __len__(self):
        return sum(1 for _ in self.live_events())

    # -- sequence numbering ------------------------------------------------

    def mark(self):
        """The sequence number the next normal push would receive."""
        return self._next_seq

    def begin_epoch(self, mark):
        """Hand out fractional seqs in ``(mark - 0.5, mark)`` until
        :meth:`end_epoch`.

        Events pushed inside the epoch order after everything pushed
        before ``mark`` and before everything pushed after it — the
        slot a fault-injection event occupies when it is applied
        between elaboration and the run.  A second band at the same
        mark continues where the last one stopped, so its events order
        after the first band's, like a fault applied second.
        """
        base = float(mark) - 0.5
        if self._band[0] != base:
            self._band = (base, 0)
        self._in_band = True

    def end_epoch(self):
        """Return to normal integer sequence numbering."""
        self._in_band = False

    def _epoch_seq(self):
        base, n = self._band
        if (n + 1) * _EPOCH_STEP >= 0.5:
            raise SchedulingError("epoch sequence band exhausted")
        self._band = (base, n + 1)
        return base + n * _EPOCH_STEP

    # -- scheduling --------------------------------------------------------

    def push(self, time, callback, priority=PRIORITY_NORMAL):
        """Schedule ``callback`` at absolute ``time``; returns the Event."""
        if self._in_band:
            event = Event(time, priority, self._epoch_seq(), callback)
            heapq.heappush(self._heap, event)
            return event
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, callback)
        if time == self._now and priority == PRIORITY_NORMAL:
            self._fifo.append(event)
        else:
            heapq.heappush(self._heap, event)
        return event

    def _next_source(self):
        """The container holding the next live event, or None."""
        heap, fifo = self._heap, self._fifo
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        while fifo and fifo[0].cancelled:
            fifo.popleft()
        if fifo and not (heap and heap[0] < fifo[0]):
            return fifo
        return heap or None

    def peek_time(self):
        """Time of the next live event, or None when empty."""
        source = self._next_source()
        return None if source is None else source[0].time

    def pop(self):
        """Remove and return the next live event.

        :raises SchedulingError: when the queue is empty.
        """
        source = self._next_source()
        if source is None:
            raise SchedulingError("event queue is empty")
        self.executed += 1
        if source is self._fifo:
            return source.popleft()
        return heapq.heappop(source)

    def live_events(self):
        """Pending, non-cancelled events in execution order."""
        yield from sorted(
            event for event in chain(self._heap, self._fifo)
            if not event.cancelled
        )

    def clear(self):
        """Drop every pending event."""
        self._heap.clear()
        self._fifo.clear()

    # -- the event loop ----------------------------------------------------

    def dispatch(self, sim, until, inclusive=True):
        """Execute events in order until the next one lies past ``until``.

        Advances ``sim.now`` to each event's time before its callback
        runs; with ``inclusive`` False, events at ``until`` stay
        pending.  A ``sim.budget`` meters the run: event and step
        ceilings before every event, the wall clock every
        :data:`WALL_CHECK_STRIDE` events.

        The FIFO head runs unless the heap head precedes it — only an
        analog step, or an event pushed before ``now`` was reached, can.
        If a callback raises, the FIFO's events move back to the heap.

        :raises BudgetExceededError: a metered run exceeded its budget;
            the event it would have run next stays pending.
        """
        heap = self._heap
        fifo = self._fifo
        heappop = heapq.heappop
        next_in_fifo = fifo.popleft
        budget = sim.budget
        metered = budget is not None and not budget.empty
        if metered:
            # Limits are positive when set, so ``or`` only fills None.
            max_events = budget.max_events or _NO_LIMIT
            max_steps = budget.max_steps or _NO_LIMIT
            max_wall = budget.max_wall_s or _NO_LIMIT
            analog = sim.analog
            start_steps = analog.steps
            wall_start = perf_counter()
            wall_mask = WALL_CHECK_STRIDE - 1
        dispatched = 0
        now = self._now = sim.now
        try:
            while True:
                if fifo:
                    if heap and heap[0].time <= now and heap[0] < fifo[0]:
                        event = heappop(heap)
                    else:
                        event = next_in_fifo()
                    if event.cancelled:
                        continue
                else:
                    while heap and heap[0].cancelled:
                        heappop(heap)
                    if not heap:
                        break
                    t = heap[0].time
                    if t > until or (t >= until and not inclusive):
                        break
                    event = heappop(heap)
                if metered and (
                    dispatched >= max_events
                    or analog.steps - start_steps >= max_steps
                    or (dispatched & wall_mask == 0
                        and perf_counter() - wall_start > max_wall)
                ):
                    heapq.heappush(heap, event)
                    raise _budget_error(
                        budget, dispatched, analog.steps - start_steps,
                        perf_counter() - wall_start, sim.now,
                    )
                t = event.time
                if t != now:
                    if t > now:
                        now = self._now = sim.now = t
                    elif t < now - 1e-18:
                        raise SimulationError(
                            f"event at {t} behind current time {now}"
                        )
                dispatched += 1
                event.callback()
        finally:
            self.executed += dispatched
            self._now = None
            while fifo:
                heapq.heappush(heap, next_in_fifo())

    # -- checkpoint support ------------------------------------------------

    def capture(self):
        """Snapshot of the pending events and sequence counters:
        ``(events, cancelled flags, seq, epoch band)``.

        ``events`` is heap-ordered.  The event objects themselves are
        shared with the live queue; only the list and the mutable
        ``cancelled`` flags are copied.
        """
        events = list(self._heap)
        if self._fifo:
            events.extend(self._fifo)
            heapq.heapify(events)
        flags = [event.cancelled for event in events]
        return events, flags, self._next_seq, self._band

    def restore(self, state):
        """Reinstall pending events captured with :meth:`capture`.

        Events created after the capture are dropped; cancelled flags
        revert to their captured values.  The ``executed`` counter is
        *not* rewound — it counts real work done, across restores.
        """
        events, flags, self._next_seq, self._band = state
        for event, flag in zip(events, flags):
            event.cancelled = flag
        # The captured list was heap-ordered when taken, so it can be
        # reinstalled verbatim (in place: a running dispatch holds it).
        self._heap[:] = events
        self._fifo.clear()
        self._in_band = False


def _budget_error(budget, events, steps, elapsed, at_time):
    """The :class:`BudgetExceededError` for the first exhausted limit."""
    if budget.max_events is not None and events >= budget.max_events:
        resource, limit, used = "events", budget.max_events, events
        what = "event budget ({} events)"
    elif budget.max_steps is not None and steps >= budget.max_steps:
        resource, limit, used = "steps", budget.max_steps, steps
        what = "analog step budget ({} steps)"
    else:
        resource, limit, used = "wall", budget.max_wall_s, elapsed
        what = "wall-clock budget ({:g} s)"
    return BudgetExceededError(
        f"run exceeded its {what.format(limit)} at t={at_time:.6g}",
        resource=resource, limit=limit, used=used, at_time=at_time,
    )
