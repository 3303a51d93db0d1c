"""Self-checks of the campaign benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q

They are not part of the library's test suite (``testpaths`` names
``tests`` only): each runs real campaigns, a few minutes in total.
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from repro.campaign import stratify  # noqa: E402


def traced(name, tmp_path, tag):
    spool = tmp_path / f"spool-{tag}"
    spool.mkdir()
    workload = workloads.build(name, reference.DEFAULT_SEED)
    return bench.traced_once(workload, tmp_path / f"rep-{tag}", spool)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_work_counters_repeat_exactly(name, tmp_path):
    # traced_once also raises if the layer self times plus the
    # unattributed remainder do not add up to the campaign time.
    first = traced(name, tmp_path, "a").layers
    second = traced(name, tmp_path, "b").layers
    counts = {key: first[key] for key in bench.DETERMINISTIC}
    assert counts == {key: second[key] for key in bench.DETERMINISTIC}
    # run_distributed's end-of-job worker join sometimes waits out a
    # reconnecting worker (NOTES.md, open question 3); that time is
    # rightly unattributed, so only single-process campaigns are bound.
    if name != "seu_fanout":
        assert first["unattributed_frac"] < 0.2


def test_workloads_exercise_their_layers(tmp_path):
    pll = traced("pll_analog", tmp_path, "pll").layers
    # Ensembles both survive and peel.
    assert pll["campaign.batched_runs"] > 0 and pll["campaign.peeled"] > 0
    assert pll["core.steps"] > 0 and pll["core.ensemble.step.calls"] > 0
    exhaustive = traced("seu_exhaustive", tmp_path, "seu").layers
    assert exhaustive["core.steps"] == 0
    assert exhaustive["campaign.converged"] > 0
    assert exhaustive["campaign.batched_frac"] == 1.0
    sampled = traced("seu_sampled", tmp_path, "sampled").layers
    population = len(workloads.build("seu_sampled", 0).spec.faults)
    assert 0 < sampled["campaign.sampling.simulated"] < population
    assert (sampled["campaign.branch_snapshots_per_fault"]
            > exhaustive["campaign.branch_snapshots_per_fault"])
    fanout = traced("seu_fanout", tmp_path, "fanout").layers
    assert fanout["store.merge.calls"] == workloads.FANOUT_SHARDS
    assert fanout["dist.leases"] >= workloads.FANOUT_SHARDS


@pytest.mark.parametrize("grid,name", [("pll", "pll_analog"),
                                       ("seu", "seu_exhaustive")])
def test_committed_reference_reproduces(grid, name):
    workload = workloads.build(name, reference.DEFAULT_SEED)
    assert reference.compute(workload) == reference.committed(
        grid, reference.DEFAULT_SEED)


@pytest.mark.parametrize("seed", [reference.DEFAULT_SEED,
                                  reference.HELD_OUT_SEED])
def test_sampled_population_is_not_degenerate(seed):
    workload = workloads.build("seu_sampled", seed)
    ref = reference.committed("seu", seed)
    tally = defaultdict(lambda: [0, 0])
    strata = stratify(workload.spec.faults, workload.options["strata"])
    for label, code in zip(strata, ref["labels"]):
        tally[label][0] += code != reference.CODES["silent"]
        tally[label][1] += 1
    mixed = [label for label, (errs, n) in tally.items() if 0 < errs < n]
    assert len(mixed) >= 2
    expected = reference.replay_sampler(workload, ref)
    assert expected["simulated"] < len(workload.spec.faults)
    assert expected["low"] <= reference.error_rate(ref) <= expected["high"]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_result_line_follows_benchmark_json(trace, kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = run_bench(ROOT, "--workload", "seu_sampled", "--seed", "3",
                    "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in declared[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected


def test_refuses_to_run_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench(tmp_path, "--workload", "seu_exhaustive", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
