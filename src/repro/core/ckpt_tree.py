"""Golden node cache: the golden-run restore points a campaign shares.

Batched digital execution restores the golden state at every mutant's
flip time and compares mutants against golden states at later
*convergence horizon* points.  :class:`GoldenNodeCache` keeps these as
one time-keyed set of snapshots for the campaign's lifetime: it starts
as the warm-start checkpoints (the *trunk*) and captures a missing node
(a *branch*) by walking golden forward from the nearest cached node
before it.  Golden is deterministic and a restore rewinds the event
sequence counter, so a node is the same whichever node the walk began
from, and one captured for one batch serves every later batch.  A
:class:`~repro.core.snapshot.Snapshot` stores trace *lengths*, not
sample data, so a node costs kilobytes of design state.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import SimulationError


class GoldenNodeCache:
    """Golden snapshots keyed by simulated time.

    :param sim: the simulator the snapshots belong to.
    :param checkpoints: ``(time, snapshot)`` pairs in ascending time
        order, each captured on the golden run before the delta cycles
        of its time (``sim.run(time, inclusive=False)``).
    :param restore: callable applying a cached snapshot to ``sim``.
        A restore only truncates traces, and a walk may restore a node
        later than the traces reach, so it must first lengthen any
        trace that falls short.
    :ivar captured: nodes captured by :meth:`nodes` (cache misses).
    :ivar hits: requests :meth:`nodes` served from the cache.
    """

    def __init__(self, sim, checkpoints, restore):
        self.sim = sim
        self._restore = restore
        self._times = [time for time, _ in checkpoints]
        self._snapshots = [snapshot for _, snapshot in checkpoints]
        if not self._times:
            raise SimulationError("golden node cache needs a first checkpoint")
        self.captured = 0
        self.hits = 0

    def __len__(self):
        return len(self._times)

    def nodes(self, times):
        """Golden snapshots at each of ``times`` (ascending).

        A missing node is captured the way warm-start checkpoints are:
        restore the nearest cached node before it (unless the simulator
        sits there, having just captured it) and run up to, not
        including, that time's delta cycles.  The caller hands over a
        simulator free to run golden: no fault applied, no budget
        armed.

        :raises SimulationError: for a time before the first node.
        """
        cached = self._times
        snapshots = []
        at = None  # time of the node the simulator sits at after a capture
        for time in times:
            index = bisect_left(cached, time)
            if index < len(cached) and cached[index] == time:
                self.hits += 1
                snapshots.append(self._snapshots[index])
                continue
            if index == 0:
                raise SimulationError(
                    f"no golden node at or before t={time:.6g}"
                )
            if at != cached[index - 1]:
                self._restore(self._snapshots[index - 1])
            self.sim.run(time, inclusive=False)
            snapshot = self.sim.snapshot()
            cached.insert(index, time)
            self._snapshots.insert(index, snapshot)
            self.captured += 1
            at = time
            snapshots.append(snapshot)
        return snapshots

    def __repr__(self):
        return (
            f"<GoldenNodeCache nodes={len(self._times)} "
            f"captured={self.captured} hits={self.hits}>"
        )
