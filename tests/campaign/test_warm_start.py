"""Warm-started campaigns must be indistinguishable from cold ones.

The contract: ``run_campaign(..., warm_start=True)`` produces the same
golden traces, the same per-fault classifications and the same CSV
export as the cold-start flow, while executing fewer kernel events.
"""

import multiprocessing
import sys

import pytest

from repro.campaign import (
    CampaignSpec,
    Design,
    analog_injections,
    exhaustive_bitflips,
    run_campaign,
    to_csv,
)
from repro.campaign.runner import CampaignRunner
from repro.core import Component, L0, Simulator
from repro.digital import Bus, ClockGen, Counter, ParityGen
from repro.faults import ParametricFault, TrapezoidPulse


def counter_factory():
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=10e-9, parent=top)
    q = Bus(sim, "cnt", 4)
    Counter(sim, "counter", clk, q, parent=top)
    par = sim.signal("parity")
    ParityGen(sim, "pargen", q, par, parent=top)
    probes = {
        "parity": sim.probe(par),
        "cnt[0]": sim.probe(q.bits[0]),
        "cnt[3]": sim.probe(q.bits[3]),
    }
    return Design(sim=sim, root=top, probes=probes)


def counter_spec(faults=None):
    if faults is None:
        faults = exhaustive_bitflips(
            ["top/counter.q[0]", "top/counter.q[3]"], [33e-9, 55e-9, 120e-9]
        )
    return CampaignSpec(
        name="warm-test", faults=faults, t_end=200e-9, outputs=["parity"]
    )


def pll_factory():
    from tests.conftest import make_fast_pll

    sim = Simulator(dt=1e-9)
    pll = make_fast_pll(sim, preset_locked=True)
    probes = {
        "vctrl": sim.probe(pll.vctrl),
        "fout": sim.probe(pll.vco_out, min_interval=0.0),
    }
    return Design(sim=sim, root=pll, probes=probes)


def pll_spec():
    pulse = TrapezoidPulse(rt=100e-12, ft=300e-12, pw=500e-12, pa=5e-3)
    faults = analog_injections(["pll.icp"], [4.0e-6, 5.0e-6, 6.0e-6], [pulse])
    return CampaignSpec(
        name="pll-warm",
        faults=faults,
        t_end=8e-6,
        outputs=["vctrl"],
        analog_tolerance=0.02,
    )


def assert_same_outcome(cold, warm):
    assert to_csv(cold) == to_csv(warm)
    assert set(cold.golden_probes) == set(warm.golden_probes)
    for name, golden in cold.golden_probes.items():
        other = warm.golden_probes[name]
        assert golden._times == other._times
        assert golden._values == other._values
    for run_cold, run_warm in zip(cold.runs, warm.runs):
        assert run_cold.label == run_warm.label
        for name in run_cold.comparisons:
            assert (
                run_cold.comparisons[name].match
                == run_warm.comparisons[name].match
            )


class TestDigitalWarmStart:
    def test_matches_cold(self):
        spec = counter_spec()
        cold = run_campaign(counter_factory, spec)
        warm = run_campaign(counter_factory, spec, warm_start=True)
        assert_same_outcome(cold, warm)

    def test_executes_fewer_events(self):
        spec = counter_spec()
        cold = run_campaign(counter_factory, spec)
        warm = run_campaign(counter_factory, spec, warm_start=True)
        assert warm.execution["mode"] == "warm"
        assert warm.execution["checkpoints"] >= 1
        assert (
            warm.execution["kernel_events"] < cold.execution["kernel_events"]
        )

    def test_checkpoint_granularity(self):
        spec = counter_spec()
        cold = run_campaign(counter_factory, spec)
        warm = run_campaign(
            counter_factory, spec, warm_start=True, checkpoint_every=50e-9
        )
        assert_same_outcome(cold, warm)
        # 33/55/120 ns quantised to 50 ns -> {0, 50, 100} (0 merges
        # with the base checkpoint).
        assert warm.execution["checkpoints"] == 3

    def test_max_checkpoints_thinning(self):
        spec = counter_spec()
        cold = run_campaign(counter_factory, spec)
        warm = run_campaign(
            counter_factory, spec, warm_start=True, max_checkpoints=2
        )
        assert_same_outcome(cold, warm)
        assert warm.execution["checkpoints"] == 2

    def test_single_checkpoint_degrades_to_full_replay(self):
        spec = counter_spec()
        cold = run_campaign(counter_factory, spec)
        warm = run_campaign(
            counter_factory, spec, warm_start=True, max_checkpoints=1
        )
        assert_same_outcome(cold, warm)
        assert warm.execution["checkpoints"] == 1

    def test_invalid_max_checkpoints_rejected(self):
        from repro.core.errors import CampaignError

        with pytest.raises(CampaignError):
            run_campaign(
                counter_factory,
                counter_spec(),
                warm_start=True,
                max_checkpoints=0,
            )

    def test_warm_parallel_matches_cold(self):
        if sys.platform == "win32" or (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            pytest.skip("fork start method unavailable")
        spec = counter_spec()
        cold = run_campaign(counter_factory, spec)
        warm = run_campaign(
            counter_factory, spec, warm_start=True, workers=2
        )
        assert_same_outcome(cold, warm)
        assert warm.execution["workers"] == 2

    def test_checkpoint_times_schedule(self):
        runner = CampaignRunner(counter_factory, counter_spec())
        times = runner.checkpoint_times()
        assert times[0] == 0.0
        assert times == sorted(set(times))
        # one candidate per distinct injection time inside the window
        assert set(times) == {0.0, 33e-9, 55e-9, 120e-9}

    def test_parametric_fault_restores_strictly_before(self):
        fault = ParametricFault(
            "top/ck", "period", factor=1.5, t_start=50e-9
        )
        spec = counter_spec(faults=[fault])
        cold = run_campaign(counter_factory, spec)
        warm = run_campaign(counter_factory, spec, warm_start=True)
        assert_same_outcome(cold, warm)

    @pytest.mark.parametrize("batch", [False, "digital"])
    def test_each_campaign_runs_its_own_golden(self, batch):
        """Golden state is never carried between single-process
        campaigns: each one builds its design and runs golden again."""
        spec = counter_spec()
        first = run_campaign(counter_factory, spec, warm_start=True,
                             batch=batch)
        second = run_campaign(counter_factory, spec, warm_start=True,
                              batch=batch)
        assert first.execution["golden_events"] > 0
        assert second.execution["golden_events"] \
            == first.execution["golden_events"]


class TestMixedPLLWarmStart:
    @pytest.fixture(scope="class")
    def outcome(self):
        spec = pll_spec()
        cold = run_campaign(pll_factory, spec)
        warm = run_campaign(pll_factory, spec, warm_start=True)
        return cold, warm

    def test_matches_cold(self, outcome):
        cold, warm = outcome
        assert_same_outcome(cold, warm)

    def test_faults_are_observable(self, outcome):
        cold, _ = outcome
        # Guard against vacuous equality: the pulses must actually
        # disturb the loop, otherwise "identical classifications"
        # would hold for any broken execution path too.
        assert any(run.label != "silent" for run in cold.runs)

    def test_fault_events_reduced(self, outcome):
        cold, warm = outcome
        # Injections sit in the second half of the window, so each
        # warm run replays less than half of its cold counterpart.
        assert warm.execution["fault_events"] * 2 < (
            cold.execution["fault_events"]
        )


class TestQuietedProbeRestore:
    """Warm restores after a run that *quieted* a probe.

    A fault can leave a probe trace with fewer samples than the golden
    run had recorded by the *next* fault's checkpoint (an upset that
    halts activity stops the probe toggling).  A checkpoint restore
    truncates traces to the golden length, so without reloading the
    golden record first, the next run compares against a corrupted
    prefix and mislabels — divergence apparently *before* its own
    injection time.  Regression test for exactly that leak, on the
    accumulator CPU whose PC upsets halt the program early.
    """

    @staticmethod
    def _cpu_factory():
        from repro.digital import Accumulator8, assemble

        program = assemble([
            ("LDI", 5),
            ("OUT",),
            ("SUB", 1),
            ("JNZ", 1),
            ("OUT",),
            ("HALT",),
        ])
        sim = Simulator(dt=1e-9)
        top = Component(sim, "top")
        clk = sim.signal("clk", init=L0)
        ClockGen(sim, "ck", clk, period=10e-9, parent=top)
        cpu = Accumulator8(sim, "cpu", clk, program, parent=top)
        probes = {
            "out[0]": sim.probe(cpu.out.bits[0]),
            "out_valid": sim.probe(cpu.out_valid),
            "halted": sim.probe(cpu.halted),
        }
        return Design(sim=sim, root=top, probes=probes)

    def _spec(self):
        # Consecutive upsets on the same PC bit: the first halts the
        # CPU early (quiet probes), the second restores a *later*
        # checkpoint than the first left samples for.
        faults = exhaustive_bitflips(
            ["top/cpu.pc[2]"], [35e-9, 45e-9, 55e-9, 65e-9]
        )
        return CampaignSpec(
            name="warm-quiet", faults=faults, t_end=800e-9,
            outputs=["out[0]", "out_valid", "halted"],
        )

    def test_warm_matches_cold_after_quieting_fault(self):
        cold = run_campaign(self._cpu_factory, self._spec())
        warm = run_campaign(self._cpu_factory, self._spec(),
                            warm_start=True)
        assert to_csv(warm) == to_csv(cold)

    def test_no_divergence_before_injection(self):
        warm = run_campaign(self._cpu_factory, self._spec(),
                            warm_start=True)
        for run in warm:
            for cmp_result in run.comparisons.values():
                if cmp_result.diverged:
                    assert cmp_result.first_divergence \
                        >= run.fault.time - 1e-12
