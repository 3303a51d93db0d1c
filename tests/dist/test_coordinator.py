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
