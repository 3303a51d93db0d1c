"""The acceptance test: interrupt a campaign, resume it, get identical
results — in serial and fork-parallel modes, cold and warm."""

import multiprocessing
import sys

import pytest

from repro.campaign import (
    CampaignSpec,
    Design,
    exhaustive_bitflips,
    run_campaign,
    to_csv,
)
from repro.core import Component, L0, Simulator
from repro.digital import Bus, ClockGen, Counter, ParityGen
from repro.store import CampaignStore

needs_fork = pytest.mark.skipif(
    sys.platform == "win32"
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel campaigns need the fork start method",
)


def factory():
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=10e-9, parent=top)
    q = Bus(sim, "cnt", 4)
    Counter(sim, "counter", clk, q, parent=top)
    par = sim.signal("parity")
    ParityGen(sim, "par", q, par, parent=top)
    probes = {
        "parity": sim.probe(par),
        "cnt[0]": sim.probe(q.bits[0]),
    }
    return Design(sim=sim, root=top, probes=probes)


def make_spec():
    faults = exhaustive_bitflips(
        [f"top/counter.q[{i}]" for i in range(4)], [33e-9, 55e-9, 77e-9]
    )
    return CampaignSpec(name="par", faults=faults, t_end=300e-9,
                        outputs=["parity"])


class Interrupted(CampaignStore):
    """A store that kills the campaign after N successful run commits."""

    def __init__(self, path, after):
        super().__init__(path)
        self.after = after
        self.commits = 0

    def record_runs(self, campaign_id, rows):
        """Commit, then simulate a mid-campaign crash after ``after``."""
        super().record_runs(campaign_id, rows)
        self.commits += 1
        if self.commits >= self.after:
            raise KeyboardInterrupt


def interrupt_then_resume(tmp_path, after=3, **run_kwargs):
    """Kill a store-backed campaign after ``after`` commits; resume it."""
    path = tmp_path / "campaign.db"
    flaky = Interrupted(path, after=after)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(factory, make_spec(), store=flaky, **run_kwargs)
    flaky.close()
    with CampaignStore(path) as store:
        assert len(store.completed_indices(store.campaign_id())) == after
        resumed = run_campaign(
            factory, make_spec(), store=store, resume=True, **run_kwargs
        )
    return resumed, path


class TestSerialResume:
    def test_resumed_equals_uninterrupted(self, tmp_path):
        reference = run_campaign(factory, make_spec())
        resumed, _path = interrupt_then_resume(tmp_path)
        assert to_csv(resumed) == to_csv(reference)

    def test_execution_records_the_split(self, tmp_path):
        resumed, _path = interrupt_then_resume(tmp_path, after=3)
        assert resumed.execution["skipped"] == 3
        assert resumed.execution["completed"] == 12 - 3
        assert resumed.execution["errors"] == 0

    def test_loaded_result_equals_uninterrupted(self, tmp_path):
        reference = run_campaign(factory, make_spec())
        _resumed, path = interrupt_then_resume(tmp_path)
        with CampaignStore(path) as store:
            loaded = store.load_result()
        assert to_csv(loaded) == to_csv(reference)
        summary_rows = CampaignStore(path).status()
        assert summary_rows[0]["completed"] == 12
        assert summary_rows[0]["status"] == "complete"

    def test_warm_resume_equals_uninterrupted(self, tmp_path):
        reference = run_campaign(factory, make_spec())
        resumed, _path = interrupt_then_resume(tmp_path, warm_start=True)
        assert to_csv(resumed) == to_csv(reference)
        assert "warm_hits" in resumed.execution

    def test_resume_of_complete_campaign_runs_nothing(self, tmp_path):
        path = tmp_path / "campaign.db"
        with CampaignStore(path) as store:
            reference = run_campaign(factory, make_spec(), store=store)
        with CampaignStore(path) as store:
            again = run_campaign(factory, make_spec(), store=store,
                                 resume=True)
        assert again.execution["completed"] == 0
        assert again.execution["skipped"] == 12
        assert to_csv(again) == to_csv(reference)


@needs_fork
class TestParallelResume:
    def test_parallel_resumed_equals_uninterrupted(self, tmp_path):
        reference = run_campaign(factory, make_spec())
        resumed, _path = interrupt_then_resume(tmp_path, workers=3)
        assert to_csv(resumed) == to_csv(reference)

    def test_serial_interrupt_parallel_resume(self, tmp_path):
        """The store doesn't care which mode wrote which half."""
        reference = run_campaign(factory, make_spec())
        path = tmp_path / "campaign.db"
        flaky = Interrupted(path, after=5)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(factory, make_spec(), store=flaky)
        flaky.close()
        with CampaignStore(path) as store:
            resumed = run_campaign(factory, make_spec(), store=store,
                                   resume=True, workers=4)
        assert to_csv(resumed) == to_csv(reference)
