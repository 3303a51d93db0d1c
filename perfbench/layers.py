"""Per-layer spans recorded around the library's public entry points.

The library is not edited: :class:`LayerTracer` replaces a fixed set
of public functions and methods of ``repro.core``, ``repro.campaign``,
``repro.store`` and ``repro.dist`` with timing wrappers for the length
of one traced campaign, then puts the originals back.

A layer's *self time* is its span time minus the time of the spans it
encloses, so the self times of every layer plus the campaign's own
remainder (``unattributed_s``) add up to the campaign's wall time.  A
span re-entering a layer already open on the stack is folded into the
outer span.  Two cases leave a single thread:

* the distributed coordinator runs its selector loop in a second
  thread while the calling thread blocks in ``Coordinator.wait``; a
  top-level span closing on that thread is counted as a child of
  whatever the calling thread has open (the interpreter lock runs one
  thread at a time, so the wait is where that work happened);
* forked workers inherit the wrappers; their entry point is wrapped
  to start each worker from empty totals, and after every shard
  (``execute_shard``) a worker rewrites its running totals to a spool
  file, which the parent folds into the same layer names
  (:meth:`LayerTracer.collect_workers`).  Writing per shard keeps the
  totals of a worker that is later killed on its way out.  Worker time
  is busy time summed over workers, so it is reported beside, not
  inside, the parent's attribution.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from repro.campaign import StratifiedSampler
from repro.campaign import runner as campaign_runner
from repro.campaign.runner import CampaignRunner
from repro.core.ensemble import Ensemble
from repro.core.kernel import Simulator
from repro.core.snapshot import Snapshot
from repro.dist import coordinator as dist_coordinator
from repro.dist import local as dist_local
from repro.dist import protocol as dist_protocol
from repro.dist import worker as dist_worker
from repro.dist.coordinator import Coordinator
from repro.dist.protocol import FrameBuffer
from repro.store import CampaignStore
from repro.store.sharded import ShardedCampaignStore

#: Layers whose individual span durations are kept.
KEEP_DURATIONS = ("campaign.scalar", "dist.shard")


class LayerTracer:
    """Timing wrappers plus the per-layer totals they accumulate.

    :param spool: directory where forked workers leave their totals.
    """

    def __init__(self, spool):
        self.spool = Path(spool)
        self._patches = []
        self.reset()

    def reset(self, role="parent"):
        """Drop all totals (a forked worker starts from nothing)."""
        self.role = role
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = None
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.durations = {layer: [] for layer in KEEP_DURATIONS}
        self.campaign_s = 0.0
        self.unattributed_s = 0.0

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack, frame, elapsed):
        with self._lock:
            stack.pop()
            layer = frame[0]
            self.calls[layer] += 1
            self.self_s[layer] += elapsed - frame[1]
            if layer in self.durations:
                self.durations[layer].append(elapsed)
            if stack:
                stack[-1][1] += elapsed
            elif self._main:
                # Another thread's top-level span: see the module doc.
                self._main[-1][1] += elapsed

    def wrap(self, layer, fn, before=None, after=None):
        """``fn`` timed as one span of ``layer``.

        ``before(args)`` runs ahead of the call; ``after(counts, args,
        result, state)`` afterwards, with ``state`` what ``before``
        returned — the hooks read the library's public counters and
        return values into :attr:`counts`.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            for frame in stack:
                if frame[0] == layer:
                    return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = [layer, 0.0]
            with tracer._lock:
                stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(stack, frame, perf_counter() - start)
            if after is not None:
                after(tracer.counts, args, result, state)
            return result

        return wrapper

    def campaign(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span; sets :attr:`campaign_s`."""
        stack = self._stack()
        frame = ["campaign", 0.0]
        with self._lock:
            stack.append(frame)
            self._main = stack
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            with self._lock:
                stack.pop()
                self._main = None
            self.campaign_s = elapsed
            self.unattributed_s = elapsed - frame[1]

    # -- installation --------------------------------------------------------

    def _patch(self, owner, name, layer, **hooks):
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.wrap(layer, original.__func__, **hooks)
            )
        else:
            replacement = self.wrap(layer, original, **hooks)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def install(self):
        """Wrap every traced entry point (see the table in NOTES.md)."""
        patch = self._patch
        patch(Simulator, "run", "core.run",
              before=_sim_counters, after=_count_sim_work)
        patch(Ensemble, "solver_step", "core.ensemble.step")
        patch(Snapshot, "capture", "core.snapshot.capture")
        patch(Snapshot, "apply", "core.snapshot.apply")
        patch(Snapshot, "matches_live", "core.snapshot.matches",
              after=_count_hit)
        patch(CampaignRunner, "prepare_warm", "campaign.prepare")
        patch(CampaignRunner, "run_fault_warm", "campaign.scalar")
        patch(CampaignRunner, "run_batch_warm", "campaign.analog_batch",
              after=_count_analog_batch)
        patch(CampaignRunner, "run_batch_digital", "campaign.digital_batch",
              after=_count_digital_batch)
        patch(campaign_runner, "compare_probe_sets", "campaign.compare")
        patch(campaign_runner, "classify", "campaign.classify")
        patch(StratifiedSampler, "next_chunk", "campaign.sampling",
              after=_count_chunk)
        patch(StratifiedSampler, "finish_chunk", "campaign.sampling")
        patch(StratifiedSampler, "record", "campaign.sampling",
              after=_count_sampled)
        for name, rows in (("record_run", _one_row),
                           ("record_runs", _row_list),
                           ("record_row", _one_row),
                           ("record_skipped", _row_list)):
            patch(CampaignStore, name, "store.record", after=rows)
        patch(ShardedCampaignStore, "merge_into", "store.merge")
        # The coordinator and the worker connection each look the
        # encoder up in their own module.
        patch(dist_coordinator, "encode_frame", "dist.codec",
              after=self._count_frame_out)
        patch(dist_protocol, "encode_frame", "dist.codec",
              after=self._count_frame_out)
        patch(FrameBuffer, "feed", "dist.codec", after=self._count_frames_in)
        patch(Coordinator, "wait", "dist.wait")
        patch(dist_worker, "execute_shard", "dist.shard",
              after=self._flush_worker)
        original = dist_local.__dict__["_worker_main"]
        self._patches.append((dist_local, "_worker_main", original))
        dist_local._worker_main = self._worker_entry(original)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- distributed bookkeeping ---------------------------------------------

    def _count_frame_out(self, counts, args, result, _state):
        # Frame counts are the coordinator's view; a worker's frames
        # are the same frames seen from the other end.
        if self.role != "parent":
            return
        kind = args[0].get("frame")
        if kind == "heartbeat":
            return
        counts["dist.frames.out"] += 1
        if kind == "lease":
            counts["dist.leases"] += 1

    def _count_frames_in(self, counts, args, result, _state):
        if self.role != "parent":
            return
        counts["dist.bytes.in"] += len(args[1])
        kinds = [frame.get("frame") for frame in result]
        counts["dist.frames.in"] += sum(kind != "heartbeat" for kind in kinds)
        counts["dist.row_frames.in"] += kinds.count("rows")

    def _worker_entry(self, entry):
        tracer = self

        @functools.wraps(entry)
        def worker_main(*args, **kwargs):
            tracer.reset(role="worker")
            return entry(*args, **kwargs)

        return worker_main

    def _flush_worker(self, *_hook_args):
        record = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "durations": self.durations,
        }
        path = self.spool / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        os.replace(tmp, path)

    def collect_workers(self):
        """Fold the spooled worker totals into this tracer's layers."""
        for path in sorted(self.spool.glob("worker-*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            self.calls.update(record["calls"])
            for layer, value in record["self_s"].items():
                self.self_s[layer] += value
            self.counts.update(record["counts"])
            for layer, values in record["durations"].items():
                self.durations.setdefault(layer, []).extend(values)


# -- counter hooks ------------------------------------------------------------


def _sim_counters(args):
    sim = args[0]
    return sim.events_executed, sim.analog_steps


def _count_sim_work(counts, args, _result, state):
    sim = args[0]
    counts["core.events"] += sim.events_executed - state[0]
    counts["core.steps"] += sim.analog_steps - state[1]


def _count_hit(counts, _args, result, _state):
    counts["core.snapshot.matches.hits"] += bool(result)


def _count_analog_batch(counts, args, result, _state):
    completed, _leftovers, info = result
    counts["campaign.analog_batch.variants"] += len(args[1])
    counts["campaign.batched_runs"] += len(completed)
    counts["campaign.peeled"] += info["peeled"]
    counts["core.ensemble.peeled"] += info["peeled"]
    counts["campaign.fallbacks"] += bool(info["fallback"])


def _count_digital_batch(counts, _args, result, _state):
    completed, _leftovers, info = result
    counts["campaign.batched_runs"] += len(completed)
    counts["campaign.digital_batch.runs"] += len(completed)
    counts["campaign.peeled"] += info["peeled"]
    counts["campaign.converged"] += info["converged"]
    counts["campaign.branch_snapshots"] += info["branch_snapshots"]
    counts["campaign.fallbacks"] += bool(info["fallback"])


def _count_chunk(counts, _args, result, _state):
    counts["campaign.sampling.chunks"] += result is not None


def _count_sampled(counts, _args, _result, _state):
    counts["campaign.sampling.simulated"] += 1


def _one_row(counts, _args, _result, _state):
    counts["store.record.rows"] += 1


def _row_list(counts, args, _result, _state):
    counts["store.record.rows"] += len(args[2])
