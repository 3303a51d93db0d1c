"""Golden node cache: lookup, lazy capture by walking golden, counters.

"Trunk" nodes are the warm-start checkpoints a cache starts from;
"branch" nodes are the ones it captures on demand.
"""

import pytest

from repro.core import GoldenNodeCache, L0, Simulator
from repro.core.errors import SimulationError
from repro.digital import Bus, ClockGen, Counter

T_END = 400e-9


def counter_sim():
    sim = Simulator(dt=1e-9)
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=10e-9)
    q = Bus(sim, "q", 4)
    Counter(sim, "cnt", clk, q)
    sim.probe(q.bits[0])
    return sim


def golden_cache(times=(0.0, 100e-9, 200e-9)):
    """A counter's golden run checkpointed at ``times``; restores logged."""
    sim = counter_sim()
    checkpoints = []
    for t in times:
        sim.run(t, inclusive=False)
        checkpoints.append((t, sim.snapshot()))
    sim.run(T_END)
    restored = []

    def restore(snap):
        restored.append(snap.time)
        sim.restore(snap)

    return sim, GoldenNodeCache(sim, checkpoints, restore=restore), restored


class TestTrunk:
    def test_first_checkpoint_is_root(self):
        _sim, cache, restored = golden_cache()
        assert len(cache) == 3
        (root,) = cache.nodes([0.0])
        assert root.time == 0.0
        assert (cache.hits, cache.captured, restored) == (1, 0, [])

    def test_trunk_is_a_chain(self):
        # Checkpoints are served as they are: no walk, no new snapshot.
        _sim, cache, restored = golden_cache()
        first = cache.nodes([0.0, 100e-9, 200e-9])
        assert cache.nodes([0.0, 100e-9, 200e-9]) == first
        assert [snap.time for snap in first] == [0.0, 100e-9, 200e-9]
        assert (cache.hits, cache.captured, restored) == (6, 0, [])

    def test_trunk_at_picks_deepest_at_or_before(self):
        _sim, cache, restored = golden_cache()
        cache.nodes([150e-9])
        assert restored == [100e-9]
        cache.nodes([350e-9])
        assert restored == [100e-9, 200e-9]
        # A captured node is a start point like any checkpoint.
        cache.nodes([170e-9])
        assert restored == [100e-9, 200e-9, 150e-9]

    def test_empty_tree_rejected(self):
        sim = counter_sim()
        with pytest.raises(SimulationError):
            GoldenNodeCache(sim, [], sim.restore)


class TestBranches:
    def test_branch_chain_counts(self):
        _sim, cache, restored = golden_cache()
        walk = cache.nodes([130e-9, 150e-9, 170e-9])
        # One restore, then a single forward walk through every miss.
        assert restored == [100e-9]
        assert [snap.time for snap in walk] == [130e-9, 150e-9, 170e-9]
        assert (cache.captured, cache.hits) == (3, 0)
        assert cache.nodes([130e-9, 150e-9, 170e-9]) == walk
        assert (cache.captured, cache.hits) == (3, 3)
        assert restored == [100e-9]
        # A later request mixing hits and misses walks from the
        # nearest cached node before each miss.
        cache.nodes([150e-9, 160e-9, 200e-9, 210e-9])
        assert restored == [100e-9, 150e-9, 200e-9]
        assert (cache.captured, cache.hits) == (5, 5)
        assert len(cache) == 8

    def test_branch_before_parent_rejected(self):
        _sim, cache, _restored = golden_cache(times=(50e-9, 100e-9))
        with pytest.raises(SimulationError):
            cache.nodes([10e-9])

    def test_captured_node_is_golden_whatever_the_start(self):
        sim, cache, _restored = golden_cache()
        (from_checkpoint,) = cache.nodes([250e-9])
        # The same time reached from t=0 in one uninterrupted walk.
        sim.restore(cache.nodes([0.0])[0])
        sim.run(250e-9, inclusive=False)
        assert from_checkpoint.matches_live(sim)

    def test_node_repr_smoke(self):
        _sim, cache, _restored = golden_cache()
        cache.nodes([0.0, 50e-9])
        assert "nodes=4" in repr(cache)
        assert "captured=1" in repr(cache)
        assert "hits=1" in repr(cache)
