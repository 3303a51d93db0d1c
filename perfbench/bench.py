"""Measurement core: repeat one workload's campaign and summarise it.

A run is a closed loop with one client: it submits one campaign
through the public API, waits for the result, and submits the next.
One untimed warm-up campaign comes first (imports, factory warm-up,
lazy initialisation).  The untraced campaigns then repeat until their
share of ``--seconds`` is spent (and at least :data:`MIN_CAMPAIGNS`
have run).  With tracing on, the remaining half
of the time runs the same campaign under :class:`~layers.LayerTracer`
for the per-layer metrics.  Every campaign's classifications are
checked against the reference afterwards (see :mod:`reference`).

Timings are reported as the median over a run's campaigns; the run
record keeps every campaign's times.
"""

from __future__ import annotations

import gc
import itertools
import os
import platform
import resource
import shutil
import statistics
import subprocess
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from layers import LayerTracer
from repro.core import kernels
from repro.dist.protocol import FrameBuffer
from workloads import build

ROOT = Path(__file__).resolve().parent.parent

#: Fewest campaigns a median is taken over, whatever ``--seconds`` says:
#: one ``seu_fanout`` campaign in ten to twenty stalls for 10 s
#: (NOTES.md, open question 3), and one stall must not be half of the
#: sample.
MIN_CAMPAIGNS = 5

#: End-to-end metric name -> unit (the order results are printed in).
END_TO_END = {
    "campaign_s": "s",
    "ms_per_fault": "ms",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sampled_frac": "ratio",
}

#: Per-layer metric name -> unit (``--trace 1``).
PER_LAYER = {
    "core.run.calls": "count",
    "core.run.self_s": "s",
    "core.events": "count",
    "core.ns_per_event": "ns",
    "core.steps": "count",
    "core.us_per_step": "us",
    "core.ensemble.step.calls": "count",
    "core.ensemble.step.self_s": "s",
    "core.ensemble.peel_ratio": "ratio",
    "core.snapshot.capture.calls": "count",
    "core.snapshot.capture.self_s": "s",
    "core.snapshot.apply.calls": "count",
    "core.snapshot.apply.self_s": "s",
    "core.snapshot.matches.calls": "count",
    "core.snapshot.matches.self_s": "s",
    "core.snapshot.matches.hit_ratio": "ratio",
    "core.snapshot.us_per_op": "us",
    "campaign.prepare.calls": "count",
    "campaign.prepare.self_s": "s",
    "campaign.scalar.calls": "count",
    "campaign.scalar.self_s": "s",
    "campaign.scalar.p50_ms": "ms",
    "campaign.scalar.p99_ms": "ms",
    "campaign.analog_batch.calls": "count",
    "campaign.analog_batch.self_s": "s",
    "campaign.digital_batch.calls": "count",
    "campaign.digital_batch.self_s": "s",
    "campaign.batched_runs": "count",
    "campaign.batched_frac": "ratio",
    "campaign.peeled": "count",
    "campaign.converged": "count",
    "campaign.converged_frac": "ratio",
    "campaign.branch_snapshots": "count",
    "campaign.branch_snapshots_per_fault": "count/fault",
    "campaign.compare.calls": "count",
    "campaign.compare.self_s": "s",
    "campaign.classify.calls": "count",
    "campaign.classify.self_s": "s",
    "campaign.sampling.calls": "count",
    "campaign.sampling.self_s": "s",
    "campaign.sampling.chunks": "count",
    "campaign.sampling.simulated": "count",
    "store.record.calls": "count",
    "store.record.rows": "count",
    "store.record.self_s": "s",
    "store.us_per_row": "us",
    "store.merge.calls": "count",
    "store.merge.self_s": "s",
    "dist.frames.in": "count",
    "dist.row_frames.in": "count",
    "dist.frames.out": "count",
    "dist.bytes.in": "bytes",
    "dist.codec.calls": "count",
    "dist.codec.self_s": "s",
    "dist.leases": "count",
    "dist.reassigned": "count",
    "dist.wait.self_s": "s",
    "dist.shard.calls": "count",
    "dist.shard.self_s": "s",
    "dist.worker.busy_s": "s",
    "campaign.traced_s": "s",
    "unattributed_s": "s",
    "unattributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}

#: Per-layer counts that must repeat exactly for a fixed seed.
DETERMINISTIC = (
    "core.run.calls", "core.events", "core.steps",
    "core.ensemble.step.calls", "core.snapshot.capture.calls",
    "core.snapshot.apply.calls", "core.snapshot.matches.calls",
    "campaign.scalar.calls", "campaign.analog_batch.calls",
    "campaign.digital_batch.calls", "campaign.batched_runs",
    "campaign.peeled", "campaign.converged", "campaign.branch_snapshots",
    "campaign.compare.calls", "campaign.classify.calls",
    "campaign.sampling.chunks", "campaign.sampling.simulated",
    "store.record.rows", "store.merge.calls", "dist.row_frames.in",
    "dist.leases", "dist.shard.calls",
)


@dataclass
class Rep:
    """One campaign: its measurements and what it classified."""

    campaign_s: float
    cpu_s: float
    setup_s: float
    simulated: int
    population: int
    labels: dict
    csv_sha256: str
    errors: int
    execution: dict
    sampling: dict = None
    layers: dict = None


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def peak_rss_mib():
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@contextmanager
def _first_rows_clock(mark):
    """Record when the coordinator decodes its first ``rows`` frame.

    ``run_distributed`` takes no progress callback; the first fault
    outcome reaching the coordinator is the nearest boundary visible
    from outside (it also covers one worker's shard golden run and its
    first digital batch).
    """
    original = FrameBuffer.__dict__["feed"]

    def feed(self, chunk):
        frames = original(self, chunk)
        if not mark and any(f.get("frame") == "rows" for f in frames):
            mark.append(perf_counter())
        return frames

    FrameBuffer.feed = feed
    try:
        yield
    finally:
        FrameBuffer.feed = original


def run_once(workload, workdir, tracer=None):
    """One campaign through the public API, measured; returns a Rep."""
    workdir.mkdir()
    # Every campaign starts from a collected heap, as in a fresh process.
    gc.collect()
    first = []

    def progress(*_args):
        if not first:
            first.append(perf_counter())

    try:
        clock = (_first_rows_clock(first) if workload.distributed
                 else nullcontext())
        with clock:
            cpu0 = _cpu_seconds()
            start = perf_counter()
            if tracer is None:
                result = workload.run(workdir, progress)
            else:
                result = tracer.campaign(workload.run, workdir, progress)
            campaign_s = perf_counter() - start
            cpu_s = _cpu_seconds() - cpu0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not first:
        raise RuntimeError(f"{workload.name}: no setup boundary was seen")
    sampling = result.execution.get("sampling")
    population = len(workload.spec.faults)
    simulated = sampling["simulated"] if sampling else population
    return Rep(
        campaign_s=campaign_s,
        cpu_s=cpu_s,
        setup_s=first[0] - start,
        simulated=simulated,
        population=population,
        labels=reference.labels_by_index(result, workload.spec),
        csv_sha256=reference.csv_digest(result),
        errors=len(result.errors),
        execution=result.execution,
        sampling=sampling,
    )


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer, rep):
    """The per-layer metrics of one traced campaign."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for layer in ("core.run", "core.ensemble.step", "core.snapshot.capture",
                  "core.snapshot.apply", "core.snapshot.matches",
                  "campaign.prepare", "campaign.scalar",
                  "campaign.analog_batch", "campaign.digital_batch",
                  "campaign.compare", "campaign.classify",
                  "campaign.sampling", "store.record", "store.merge",
                  "dist.codec", "dist.shard"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for name in ("core.events", "core.steps", "campaign.batched_runs",
                 "campaign.peeled", "campaign.converged",
                 "campaign.branch_snapshots", "campaign.sampling.chunks",
                 "campaign.sampling.simulated", "store.record.rows",
                 "dist.frames.in", "dist.row_frames.in", "dist.frames.out",
                 "dist.bytes.in", "dist.leases"):
        out[name] = counts[name]
    snapshot_layers = ("core.snapshot.capture", "core.snapshot.apply",
                       "core.snapshot.matches")
    scalar = tracer.durations["campaign.scalar"]
    out.update({
        "core.ns_per_event": _ratio(self_s["core.run"] * 1e9,
                                    counts["core.events"]),
        "core.us_per_step": _ratio(
            (self_s["core.run"] + self_s["core.ensemble.step"]) * 1e6,
            counts["core.steps"]),
        "core.ensemble.peel_ratio": _ratio(
            counts["core.ensemble.peeled"],
            counts["campaign.analog_batch.variants"]),
        "core.snapshot.matches.hit_ratio": _ratio(
            counts["core.snapshot.matches.hits"],
            calls["core.snapshot.matches"]),
        "core.snapshot.us_per_op": _ratio(
            sum(self_s[layer] for layer in snapshot_layers) * 1e6,
            sum(calls[layer] for layer in snapshot_layers)),
        "campaign.scalar.p50_ms": _percentile(scalar, 50) * 1e3,
        "campaign.scalar.p99_ms": _percentile(scalar, 99) * 1e3,
        "campaign.batched_frac": _ratio(counts["campaign.batched_runs"],
                                        rep.simulated),
        "campaign.converged_frac": _ratio(
            counts["campaign.converged"],
            counts["campaign.digital_batch.runs"]),
        "campaign.branch_snapshots_per_fault": _ratio(
            counts["campaign.branch_snapshots"], rep.simulated),
        "store.us_per_row": _ratio(self_s["store.record"] * 1e6,
                                   counts["store.record.rows"]),
        "dist.reassigned": max(
            0, counts["dist.leases"] - rep.execution.get("shards", 0)),
        "dist.wait.self_s": self_s["dist.wait"],
        "dist.worker.busy_s": sum(tracer.durations["dist.shard"]),
    })
    return out


def traced_once(workload, workdir, spool):
    """One traced campaign; returns its Rep with ``layers`` filled in."""
    tracer = LayerTracer(spool)
    tracer.install()
    try:
        rep = run_once(workload, workdir, tracer)
    finally:
        tracer.uninstall()
    # The attribution identity covers this process's spans only;
    # worker totals are folded in afterwards.
    attributed = sum(tracer.self_s.values())
    error = attributed + tracer.unattributed_s - tracer.campaign_s
    if abs(error) > 1e-6 * max(tracer.campaign_s, 1.0):
        raise RuntimeError(
            f"layer self times do not add up: off by {error:.3g} s"
        )
    tracer.collect_workers()
    layers = layer_metrics(tracer, rep)
    layers["campaign.traced_s"] = tracer.campaign_s
    layers["unattributed_s"] = tracer.unattributed_s
    layers["unattributed_frac"] = _ratio(tracer.unattributed_s,
                                         tracer.campaign_s)
    rep.layers = layers
    return rep


# -- correctness --------------------------------------------------------------


def check(workload, rep, ref, expected_sampling):
    """Faults of ``rep`` that failed: errored runs, or any label that
    differs from the reference.  An exhaustive run whose ``to_csv``
    digest differs (it also covers divergence times and diverged
    outputs) fails as a whole; so does a sampled run whose simulated
    count or interval differs from the sampler replayed on the
    reference outcomes."""
    codes = ref["labels"]
    failed = rep.errors + sum(
        1 for index, label in rep.labels.items()
        if reference.CODES[label] != codes[index]
    )
    if workload.sampled:
        if any(rep.sampling[key] != expected_sampling[key]
               for key in reference.SAMPLING_KEYS):
            return rep.simulated
    elif rep.csv_sha256 != ref["csv_sha256"]:
        return rep.population
    return min(failed, rep.simulated)


# -- the run ------------------------------------------------------------------


def fingerprint():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "use_numba": kernels.USE_NUMBA,
        "numba_status": kernels.NUMBA_STATUS,
        "git_sha": sha,
        "platform": platform.platform(),
    }


def public_counters(rep):
    """Deterministic work counts the library itself reports."""
    execution = rep.execution
    counters = {
        "faults_simulated": rep.simulated,
        "kernel_events": execution.get("kernel_events"),
        "golden_events": execution.get("golden_events"),
        "checkpoints": execution.get("checkpoints"),
    }
    for key in ("batched_runs", "peeled", "converged", "branch_snapshots",
                "scalar_runs", "fallbacks"):
        if "batch" in execution:
            counters[key] = execution["batch"][key]
    if "shards" in execution:
        counters["shards"] = execution["shards"]
        counters["shards_merged"] = execution["shards_merged"]
    return counters


def end_to_end_values(reps, peak):
    """Per-campaign values of every end-to-end metric."""
    return {
        "campaign_s": [r.campaign_s for r in reps],
        "ms_per_fault": [r.campaign_s * 1e3 / r.simulated for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "setup_s": [r.setup_s for r in reps],
        "peak_rss_mib": [peak],
        "sampled_frac": [r.simulated / r.population for r in reps],
    }


def repeat(campaign, seconds):
    """Campaigns until ``seconds`` have passed and at least
    :data:`MIN_CAMPAIGNS` have run."""
    reps = []
    start = perf_counter()
    while len(reps) < MIN_CAMPAIGNS or perf_counter() - start < seconds:
        reps.append(campaign())
    return reps


def run(name, seed, seconds, trace, scratch):
    """Run one workload; returns ``(result_line, record)`` dicts."""
    workload = build(name, seed)
    spool = scratch / "spool"
    spool.mkdir()
    counter = itertools.count()

    def workdir():
        return scratch / f"rep{next(counter)}"

    reps = [run_once(workload, workdir())]  # warm-up, checked, untimed
    budget = seconds / 2 if trace else seconds
    untraced = repeat(lambda: run_once(workload, workdir()), budget)
    peak = peak_rss_mib()
    traced = []
    if trace:
        traced = repeat(
            lambda: traced_once(workload, workdir(), spool),
            seconds - budget,
        )
    reps += untraced + traced

    ref = reference.committed(workload.grid, seed)
    ref_source = "committed"
    if ref is None:
        ref = reference.compute(workload)
        ref_source = "computed"
    expected_sampling = (
        reference.replay_sampler(workload, ref) if workload.sampled else None
    )
    failed = sum(check(workload, rep, ref, expected_sampling) for rep in reps)
    attempted = sum(rep.simulated for rep in reps)

    if trace:
        # The traced campaign of median duration: one campaign, so its
        # layer times add up to its own campaign time.
        typical = sorted(traced, key=lambda r: r.campaign_s)[
            (len(traced) - 1) // 2]
        typical.layers["trace_overhead_frac"] = _ratio(
            typical.campaign_s,
            statistics.median(r.campaign_s for r in untraced)) - 1.0
        metrics = {
            metric: {"value": typical.layers[metric], "unit": unit}
            for metric, unit in PER_LAYER.items()
        }
        counters = {key: typical.layers[key] for key in DETERMINISTIC}
    else:
        values = end_to_end_values(untraced, peak)
        metrics = {
            metric: {"value": statistics.median(values[metric]),
                     "unit": unit}
            for metric, unit in END_TO_END.items()
        }
        counters = public_counters(untraced[-1])

    record = {
        "perfbench": 1,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": fingerprint(),
        "reference": ref_source,
        "reference_histogram": ref["histogram"],
        "failed_frac": _ratio(failed, attempted),
        "reps": [
            {"campaign_s": r.campaign_s, "cpu_s": r.cpu_s,
             "setup_s": r.setup_s, "simulated": r.simulated,
             "traced": r.layers is not None}
            for r in reps
        ],
        "counters": counters,
    }
    if workload.sampled:
        truth = reference.error_rate(ref)
        record["sampling_expected"] = {
            key: expected_sampling[key] for key in reference.SAMPLING_KEYS
        }
        record["truth"] = truth
        # Informational: a 95% interval misses its truth on about one
        # seed in twenty by design, so coverage is not a pass criterion.
        record["interval_covers_truth"] = (
            expected_sampling["low"] <= truth <= expected_sampling["high"]
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, record

