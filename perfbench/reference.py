"""Correctness references: what every benchmark run is checked against.

A reference is the scalar warm-start classification of every fault of
a grid (``"pll"`` or ``"seu"``) for one seed — the reference semantics
every faster execution mode must reproduce bit for bit.  It is kept as

* ``labels`` — one letter per fault, in fault-list order
  (:data:`CODES`), so a mismatch can be counted per fault;
* ``histogram`` — runs per class;
* ``csv_sha256`` — digest of :func:`repro.campaign.to_csv`.

References for the default seed, the held-out seed and the first
twenty seeds are committed in ``references.json``; for any other seed
the benchmark computes one with the same scalar path after its timed
runs.  Regenerate the
committed file with::

    python3 perfbench/reference.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from repro.campaign import (  # noqa: E402
    SILENT,
    StratifiedSampler,
    run_campaign,
    to_csv,
)

REFERENCE_FILE = HERE / "references.json"
DEFAULT_SEED = 0
#: Never used while the benchmark was tuned.
HELD_OUT_SEED = 7331
#: Seeds with a committed reference; any other seed computes its own.
COMMITTED_SEEDS = tuple(range(20)) + (HELD_OUT_SEED,)
CODES = {"silent": "s", "latent": "l", "transient-error": "t", "failure": "f"}
#: Sampling-summary fields a sampled run must reproduce exactly.
SAMPLING_KEYS = ("simulated", "trials", "errors", "estimate", "low", "high")


def csv_digest(result):
    return hashlib.sha256(to_csv(result).encode("utf-8")).hexdigest()


def labels_by_index(result, spec):
    """``index -> label`` for every run in ``result``.

    Results built in-process carry the spec's own fault objects; a
    result loaded back from a store (distributed) holds every fault in
    fault-list order.
    """
    index_of = {id(fault): index for index, fault in enumerate(spec.faults)}
    if all(id(run.fault) in index_of for run in result.runs):
        return {index_of[id(run.fault)]: run.label for run in result.runs}
    if len(result.runs) != len(spec.faults):
        raise ValueError("loaded result does not cover the fault list")
    return {index: run.label for index, run in enumerate(result.runs)}


def compute(workload):
    """The scalar warm-start reference for ``workload``'s grid."""
    result = run_campaign(workload.factory, workload.spec, warm_start=True)
    if result.errors:
        raise RuntimeError(
            f"reference run of {workload.grid} seed {workload.seed} "
            f"had {len(result.errors)} errored faults"
        )
    labels = labels_by_index(result, workload.spec)
    codes = "".join(CODES[labels[i]] for i in range(len(workload.spec.faults)))
    return {
        "faults": len(codes),
        "labels": codes,
        "histogram": dict(sorted(Counter(labels.values()).items())),
        "csv_sha256": csv_digest(result),
    }


def committed(grid, seed):
    """The committed reference for ``(grid, seed)``, or None."""
    if not REFERENCE_FILE.exists():
        return None
    table = json.loads(REFERENCE_FILE.read_text())
    return table.get(grid, {}).get(str(seed))


def error_rate(reference):
    """Exhaustive truth: share of faults not classified silent."""
    codes = reference["labels"]
    return sum(1 for code in codes if code != CODES[SILENT]) / len(codes)


def replay_sampler(workload, reference):
    """The sampled campaign's summary, replayed without simulating.

    The sampler's draws are a pure function of the fault list, strata,
    seed and the outcomes it is fed; feeding it the reference outcomes
    gives the exact simulated count (and interval) a correct sampled
    run must report.
    """
    options = workload.options
    sampler = StratifiedSampler(
        workload.spec.faults, margin=options["margin"],
        confidence=options["confidence"], seed=options["sample_seed"],
        strata=options["strata"], chunk=options["chunk"],
    )
    codes = reference["labels"]
    while True:
        chunk = sampler.next_chunk()
        if chunk is None:
            break
        for index in chunk.pending:
            sampler.record(index, codes[index] != CODES[SILENT])
        if sampler.finish_chunk(chunk):
            break
    return sampler.summary()


def _write():
    """Recompute and store the committed references."""
    from workloads import build

    table = {}
    for grid, name in (("pll", "pll_analog"), ("seu", "seu_exhaustive")):
        for seed in COMMITTED_SEEDS:
            table.setdefault(grid, {})[str(seed)] = compute(build(name, seed))
            print(grid, seed, table[grid][str(seed)]["histogram"], flush=True)
    text = json.dumps(table, indent=1, sort_keys=True)
    REFERENCE_FILE.write_text(text + "\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="recompute and overwrite references.json")
    parser.parse_args()
    _write()
