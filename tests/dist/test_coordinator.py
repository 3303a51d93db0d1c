"""Coordinator job planning, without workers.

Every job is driven by a chunk plan; an exhaustive job's plan hands
out all of its contiguous chunks at submit, so the job frame, the
status payload and the store's shard table show every shard queued
before the first lease.
"""

import pytest

from repro.dist import Coordinator, ShardError, plan_shards
from repro.store import CampaignStore

from ..store.test_resume import make_spec


@pytest.fixture
def coordinator(tmp_path):
    coordinator = Coordinator(tmp_path / "dist.db", shard_size=5)
    yield coordinator
    coordinator.stop()


class TestSubmit:
    def test_exhaustive_job_queues_every_shard(self, coordinator,
                                               tmp_path):
        spec = make_spec()  # 12 faults -> shards of 5, 5, 2
        job_id = coordinator.submit(spec)
        status = coordinator.job_status(job_id)
        assert status["shards"] == status["queued"] == 3
        assert status["merged"] == 0 and status["state"] == "running"
        with CampaignStore(tmp_path / "dist.db") as store:
            rows = store.shard_rows(spec.name)
        assert [(r["shard_id"], r["state"], r["n_faults"]) for r in rows] \
            == [(0, "queued", 5), (1, "queued", 5), (2, "queued", 2)]

    def test_queued_shards_are_the_contiguous_plan(self, coordinator):
        spec = make_spec()
        job_id = coordinator.submit(spec)
        job = coordinator._jobs[job_id]
        assert [job.shards[k].to_dict() for k in job.queue] \
            == [shard.to_dict() for shard in plan_shards(spec, 5)]

    def test_empty_campaign_rejected(self, coordinator):
        spec = make_spec()
        spec.faults = []
        with pytest.raises(ShardError, match="no faults"):
            coordinator.submit(spec)


class TestRowsFrame:
    """A ``rows`` frame lands in its shard database whole or not at all."""

    @pytest.fixture
    def leased(self, coordinator):
        """A job's first shard leased to a fake worker, plus its rows."""
        import socket

        from repro.dist import execute_shard
        from repro.dist.coordinator import _Peer

        from ..store.test_resume import factory

        job_id = coordinator.submit(make_spec())
        ours, theirs = socket.socketpair()
        peer = _Peer(ours, ("test", 0))
        peer.role, peer.name = "worker", "fake-worker"
        coordinator._on_lease_request(peer)
        (token, lease), = coordinator._leases.items()
        frames = []
        execute_shard(lease.shard, factory=factory,
                      send=lambda kind, **f: frames.append(f))
        rows = [row for f in frames for row in f.get("rows", ())]
        yield coordinator, peer, token, lease.shard, rows, job_id
        ours.close()
        theirs.close()

    @pytest.mark.parametrize("corrupt", ["foreign index", "wrong key"])
    def test_bad_row_rejects_the_whole_frame(self, leased, corrupt):
        from repro.dist import ProtocolError

        coordinator, peer, token, shard, rows, _job = leased
        bad = dict(rows[2])
        if corrupt == "foreign index":
            bad["idx"] = max(shard.indices) + 1
        else:
            bad["key"] = "0" * len(bad["key"])
        frame = {"frame": "rows", "token": token,
                 "rows": rows[:2] + [bad] + rows[3:]}
        with pytest.raises(ProtocolError):
            coordinator._on_rows(peer, frame)
        assert coordinator._sharded.shard_run_rows(shard) == []

    def test_restreamed_rows_keep_the_first_writer(self, leased):
        coordinator, peer, token, shard, rows, job_id = leased
        coordinator._on_rows(peer, {"frame": "rows", "token": token,
                                    "rows": rows[:3]})
        restream = [dict(row, label="restreamed") for row in rows]
        coordinator._on_rows(peer, {"frame": "rows", "token": token,
                                    "rows": restream})
        stored = {row["idx"]: row["label"]
                  for row in coordinator._sharded.shard_run_rows(shard)}
        assert sorted(stored) == shard.indices
        for row in rows:
            expected = row["label"] if row in rows[:3] else "restreamed"
            assert stored[row["idx"]] == expected
        assert coordinator.job_status(job_id)["rows"] == shard.size
