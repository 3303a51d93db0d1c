"""Loopback fleet teardown: no worker outlives a finished job."""

import time

from repro.dist import local
from repro.dist.coordinator import Coordinator

from ..store.test_resume import factory, make_spec, needs_fork


@needs_fork
def test_teardown_when_workers_miss_drain(tmp_path, monkeypatch):
    """The coordinator stops before any worker sees ``drain``.

    Workers are left parked on a lease request when the job completes
    and the coordinator closes under them.  Without a SIGTERM they
    back off against a closed port; with it they exit at once, cleanly.
    """
    monkeypatch.setattr(
        Coordinator, "drain_when_idle", lambda self, enable=True: None
    )
    spawned = []
    spawn = local.spawn_local_workers

    def recording_spawn(*args, **kwargs):
        spawned.extend(spawn(*args, **kwargs))
        return spawned

    monkeypatch.setattr(local, "spawn_local_workers", recording_spawn)
    finished = {}
    wait = Coordinator.wait

    def timed_wait(self, *args, **kwargs):
        status = wait(self, *args, **kwargs)
        finished["at"] = time.monotonic()
        return status

    monkeypatch.setattr(Coordinator, "wait", timed_wait)
    spec = make_spec()
    result = local.run_distributed(
        factory, spec, workers=2, store_path=str(tmp_path / "fleet.db"),
    )
    assert time.monotonic() - finished["at"] < 2.0
    assert [process.exitcode for process in spawned] == [0, 0]
    assert len(result) == len(spec.faults)


@needs_fork
def test_execution_counts_adopted_shards(tmp_path):
    """Each worker builds golden for its first shard of the job and
    adopts that state for every later one."""
    result = local.run_distributed(
        factory, make_spec(), workers=2, shard_size=3,
        store_path=str(tmp_path / "fleet.db"), config={"batch": "digital"},
    )
    execution = result.execution
    assert execution["shards"] == execution["shards_merged"] == 4
    assert execution["shards_adopted"] \
        == execution["shards"] - execution["workers"]
