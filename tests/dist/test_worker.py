"""Worker-side execution: the streaming store and shard runner."""

import pytest

from repro.dist import ProtocolError, RowStreamStore, execute_shard, plan_shards

from ..store.test_resume import factory, make_spec


@pytest.fixture(scope="module")
def spec():
    return make_spec()  # 12 bit-flip faults


def collect_frames():
    """A fake ``send`` that records every frame it is handed."""
    frames = []

    def send(frame_type, **fields):
        frames.append({"frame": frame_type, **fields})

    return frames, send


class TestRowStreamStore:
    def test_rows_carry_global_indices(self, spec):
        shard = plan_shards(spec, shard_size=4)[1]  # faults 4..7
        frames, send = collect_frames()
        execute_shard(shard, factory=factory, send=send)
        rows = [row for f in frames if f["frame"] == "rows"
                for row in f["rows"]]
        assert sorted(row["idx"] for row in rows) == shard.indices

    def test_rows_carry_parent_fault_keys(self, spec):
        shard = plan_shards(spec, shard_size=4)[2]
        frames, send = collect_frames()
        execute_shard(shard, factory=factory, send=send)
        rows = [row for f in frames if f["frame"] == "rows"
                for row in f["rows"]]
        by_idx = {row["idx"]: row["key"] for row in rows}
        for idx, key in zip(shard.indices, shard.fault_keys):
            assert by_idx[idx] == key

    def test_sink_captures_golden_and_execution(self, spec):
        shard = plan_shards(spec, shard_size=4)[0]
        sink = execute_shard(shard, factory=factory)
        assert sink.golden  # probe digests for cross-worker checks
        assert sink.execution["status"] == "complete"
        assert sink.rows_sent == shard.size
        assert sink.done == shard.size

    def test_identical_shards_yield_identical_golden(self, spec):
        shard = plan_shards(spec, shard_size=6)[0]
        a = execute_shard(shard, factory=factory)
        b = execute_shard(shard, factory=factory)
        assert a.golden == b.golden

    def test_pending_indices_always_full(self, spec):
        shard = plan_shards(spec, shard_size=4)[0]
        sink = RowStreamStore(shard, lambda *_a, **_k: None)
        assert sink.pending_indices(0, shard.size) \
            == list(range(shard.size))


class TestExecuteShard:
    def test_no_design_source_rejected(self, spec):
        shard = plan_shards(spec, shard_size=4)[0]  # no netlist attached
        with pytest.raises(ProtocolError, match="no netlist"):
            execute_shard(shard)

    def test_shard_config_reaches_runner(self, spec):
        shard = plan_shards(spec, shard_size=4,
                            config={"warm_start": True})[0]
        sink = execute_shard(shard, factory=factory)
        # Warm-started runs report their checkpoint hit rate.
        assert "warm_hits" in sink.execution

    def test_shard_rows_match_serial_rows(self, spec):
        """The distribution invariant, one shard at a time: every row a
        shard streams equals the row a serial run records for the same
        global fault index."""
        from repro.campaign import run_campaign
        from repro.store.serialize import result_to_row

        serial = run_campaign(factory, spec)
        serial_rows = {}
        for idx, run in enumerate(serial.runs):
            row = result_to_row(idx, "", run)
            serial_rows[idx] = (row["status"], row["label"],
                                row["classification"],
                                row["comparisons"])
        for shard in plan_shards(spec, shard_size=5):
            frames, send = collect_frames()
            execute_shard(shard, factory=factory, send=send)
            for f in frames:
                if f["frame"] != "rows":
                    continue
                for row in f["rows"]:
                    assert (row["status"], row["label"],
                            row["classification"],
                            row["comparisons"]) \
                        == serial_rows[row["idx"]]


def sense_factory():
    """Two current nodes, each integrated by an RC transimpedance stage."""
    from repro.analog import TransimpedanceFilter, rc_transimpedance
    from repro.campaign import Design
    from repro.core import Component, Simulator

    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    probes = {}
    for site in ("a", "b"):
        current = sim.current_node(f"top.i{site}")
        voltage = sim.node(f"top.v{site}")
        TransimpedanceFilter(
            sim, f"tia_{site}", current, voltage,
            rc_transimpedance(1e3, 1e-12), v_min=0.0, v_max=5.0,
            parent=top,
        )
        probes[f"v{site}"] = sim.probe(voltage)
    return Design(sim=sim, root=top, probes=probes)


def sense_spec(sites, times):
    from repro.campaign import CampaignSpec, analog_injections
    from repro.faults import TrapezoidPulse

    pulse = TrapezoidPulse(rt=100e-12, ft=300e-12, pw=500e-12, pa=1e-3)
    return CampaignSpec(
        name="sense",
        faults=analog_injections(sites, times, [pulse]),
        t_end=200e-9, outputs=["va", "vb"], analog_tolerance=0.02,
    )


def run_shards(shards, factory, warm):
    """Execute ``shards`` in order on one worker's warm slot."""
    sinks = []
    for shard in shards:
        frames, send = collect_frames()
        sink = execute_shard(shard, factory=factory, send=send, warm=warm)
        sinks.append((sink, [row for f in frames if f["frame"] == "rows"
                             for row in f["rows"]]))
    return sinks


class TestWarmSlot:
    """One worker pays for a job's golden run once, not once per shard."""

    def test_worker_captures_each_golden_node_once(self, spec,
                                                   monkeypatch):
        from repro.campaign import run_campaign
        from repro.core.snapshot import Snapshot
        from repro.dist.worker import WarmSlot

        serial = run_campaign(factory, spec, batch="digital")
        serial_branches = serial.execution["batch"]["branch_snapshots"]
        assert serial_branches > 0

        captured = []
        original = Snapshot.capture.__func__

        def counting_capture(cls, sim):
            captured.append((id(sim), sim.now))
            return original(cls, sim)

        monkeypatch.setattr(Snapshot, "capture",
                            classmethod(counting_capture))
        shards = plan_shards(spec, shard_size=4,
                             config={"batch": "digital"})
        sinks = run_shards(shards, factory, WarmSlot())

        assert len(captured) == len(set(captured))
        assert sum(sink.execution["batch"]["branch_snapshots"]
                   for sink, _rows in sinks) <= serial_branches
        assert [sink.execution["warm_state"] for sink, _rows in sinks] \
            == ["built", "adopted", "adopted"]
        built = sinks[0][0].execution["golden_events"]
        assert all(sink.execution["golden_events"] < built
                   for sink, _rows in sinks[1:])

    def test_adopted_rows_match_serial(self, spec, tmp_path):
        from repro.campaign import run_campaign
        from repro.dist.worker import WarmSlot
        from repro.store import CampaignStore

        from ..integration.test_distributed_campaign import identity

        with CampaignStore(tmp_path / "serial.db") as store:
            run_campaign(factory, spec, batch="digital", store=store)
            serial = {row["idx"]: identity(row)
                      for row in store.run_rows(store.campaign_id())}
        shards = plan_shards(spec, shard_size=4,
                             config={"batch": "digital"})
        fresh = [execute_shard(shard, factory=factory).golden
                 for shard in shards]
        sinks = run_shards(shards, factory, WarmSlot())
        rows = {row["idx"]: identity(row)
                for _sink, shard_rows in sinks for row in shard_rows}
        assert rows == serial
        assert [sink.golden for sink, _rows in sinks] == fresh

    @pytest.mark.parametrize("differs", ["windows", "saboteur sites"])
    def test_changed_warm_inputs_rebuild(self, differs):
        from repro.dist.worker import WarmSlot

        if differs == "windows":
            spec = sense_spec(["top.ia"], [50e-9, 120e-9])
        else:
            spec = sense_spec(["top.ia", "top.ib"], [50e-9])
        shards = plan_shards(spec, shard_size=1, config={"batch": "auto"})
        sinks = run_shards(shards, sense_factory, WarmSlot())
        assert [sink.execution["warm_state"] for sink, _rows in sinks] \
            == ["built", "built"]
        for shard, (sink, _rows) in zip(shards, sinks):
            assert sink.execution["golden_events"] > 0
            assert sink.golden \
                == execute_shard(shard, factory=sense_factory).golden

    def test_changed_factory_rebuilds(self, spec):
        from repro.dist.worker import WarmSlot

        shards = plan_shards(spec, shard_size=6, config={"batch": "digital"})
        warm = WarmSlot()
        first = execute_shard(shards[0], factory=factory, warm=warm)
        second = execute_shard(shards[1], factory=lambda: factory(),
                               warm=warm)
        assert first.execution["warm_state"] == "built"
        assert second.execution["warm_state"] == "built"
        assert second.golden \
            == execute_shard(shards[1], factory=factory).golden

    def test_equal_netlists_share_one_factory(self):
        from repro.dist.worker import WarmSlot

        warm = WarmSlot()
        first = warm.factory_for({"name": "n"})
        assert warm.factory_for({"name": "n"}) is first
        assert warm.factory_for({"name": "m"}) is not first
