"""Shard planning: determinism, round trips, global-index integrity."""

import json

import pytest

from repro.campaign.sampling import ExhaustivePlan
from repro.dist import Shard, ShardError, plan_shards
from repro.dist.shards import plan_chunk_shard, shard_name
from repro.store.serialize import fault_key, spec_from_dict, spec_to_dict

from ..store.test_resume import make_spec


@pytest.fixture(scope="module")
def spec():
    return make_spec()  # 12 bit-flip faults


class TestPlan:
    def test_contiguous_cover(self, spec):
        shards = plan_shards(spec, shard_size=5)
        assert [s.shard_id for s in shards] == [0, 1, 2]
        flat = [i for s in shards for i in s.indices]
        assert flat == list(range(len(spec.faults)))

    def test_last_shard_takes_remainder(self, spec):
        shards = plan_shards(spec, shard_size=5)
        assert [s.size for s in shards] == [5, 5, 2]

    def test_plan_is_deterministic(self, spec):
        a = plan_shards(spec, shard_size=4)
        b = plan_shards(spec, shard_size=4)
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]

    def test_fault_keys_align_with_parent(self, spec):
        keys = [fault_key(f) for f in spec.faults]
        for shard in plan_shards(spec, shard_size=3):
            assert shard.fault_keys == [keys[i] for i in shard.indices]

    def test_sub_spec_names_and_slices(self, spec):
        for shard in plan_shards(spec, shard_size=5):
            assert shard.spec["name"] == shard_name(spec.name, shard.shard_id)
            sub = spec_from_dict(shard.spec)
            assert [f.describe() for f in sub.faults] == [
                spec.faults[i].describe() for i in shard.indices
            ]

    def test_sub_spec_inherits_campaign_settings(self, spec):
        shard = plan_shards(spec, shard_size=5)[0]
        sub = spec_from_dict(shard.spec)
        assert sub.t_end == spec.t_end
        assert sub.outputs == spec.outputs

    def test_config_and_netlist_attach_to_every_shard(self, spec):
        netlist = {"name": "fake", "components": []}
        config = {"warm_start": True, "batch": "auto"}
        for shard in plan_shards(spec, 4, netlist=netlist, config=config):
            assert shard.netlist == netlist
            assert shard.config == config

    def test_bad_shard_size_rejected(self, spec):
        with pytest.raises(ShardError, match="shard_size"):
            plan_shards(spec, shard_size=0)


class TestShardRoundTrip:
    def test_to_dict_survives_json(self, spec):
        shard = plan_shards(spec, shard_size=5)[1]
        wire = json.loads(json.dumps(shard.to_dict()))
        rebuilt = Shard.from_dict(wire)
        assert rebuilt.to_dict() == shard.to_dict()
        assert rebuilt.indices == shard.indices
        assert rebuilt.fault_keys == shard.fault_keys

    def test_rebuilt_shard_is_executable(self, spec):
        shard = plan_shards(spec, shard_size=5)[2]
        rebuilt = Shard.from_dict(json.loads(json.dumps(shard.to_dict())))
        sub = rebuilt.campaign_spec()
        assert len(sub.faults) == shard.size

    def test_malformed_payload_rejected(self):
        with pytest.raises(ShardError, match="malformed shard"):
            Shard.from_dict({"shard_id": 0})

    def test_mismatched_lengths_rejected(self, spec):
        shard = plan_shards(spec, shard_size=5)[0]
        data = shard.to_dict()
        data["fault_keys"] = data["fault_keys"][:-1]
        with pytest.raises(ShardError, match="fault keys"):
            Shard.from_dict(data)


class TestExhaustiveChunkIdentity:
    """An exhaustive job's chunk ``k`` is the contiguous shard ``k``.

    This is what keeps a coordinator's leases and shard databases
    unchanged now that exhaustive jobs run through a chunk plan: same
    shard ids, sub-spec names, indices and fault keys, byte for byte.
    """

    @pytest.mark.parametrize("total, shard_size", [
        (12, 1), (12, 4), (12, 5), (12, 12), (12, 30), (7, 3), (1, 25),
    ])
    def test_chunk_k_is_contiguous_shard_k(self, total, shard_size):
        spec = make_spec()
        spec.faults = spec.faults[:total]
        netlist = {"name": "fake", "components": []}
        config = {"batch": "digital"}
        base = spec_to_dict(spec)
        keys = [fault_key(fault) for fault in spec.faults]
        plan = ExhaustivePlan(range(total), chunk=shard_size)
        chunks = list(iter(plan.next_chunk, None))
        shards = plan_shards(spec, shard_size, netlist=netlist,
                             config=config)
        assert [c.ident for c in chunks] == [s.shard_id for s in shards]
        for chunk, shard in zip(chunks, shards):
            start = chunk.ident * shard_size
            stop = min(start + shard_size, total)
            assert list(chunk.indices) == shard.indices \
                == list(range(start, stop))
            expected = {
                "shard_id": chunk.ident,
                "campaign": spec.name,
                "total": total,
                "indices": list(range(start, stop)),
                "fault_keys": keys[start:stop],
                "spec": dict(base, name=shard_name(spec.name, chunk.ident),
                             faults=base["faults"][start:stop]),
                "netlist": netlist,
                "config": config,
            }
            planned = plan_chunk_shard(base, keys, chunk.ident,
                                       chunk.indices, netlist=netlist,
                                       config=config)
            for candidate in (planned, shard):
                assert json.dumps(candidate.to_dict()) \
                    == json.dumps(expected)
