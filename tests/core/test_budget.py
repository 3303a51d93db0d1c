"""Tests for run budgets and numerical guards.

The supervised campaign layer relies on two kernel-level properties:
a budgeted run *always* stops with a typed error instead of hanging,
and a numerically diverging analog solve is caught close to the first
bad value.  These tests pin both down at the kernel level, including
the interaction with snapshot/restore (the guard's step-to-step
history must not leak across a restore).
"""

import math

import pytest

from repro.core import (
    AnalogBlock,
    BudgetExceededError,
    L0,
    NumericalDivergenceError,
    NumericalGuard,
    RunBudget,
    Simulator,
)
from repro.core.errors import ReproError
from repro.digital import Bus, ClockGen, Counter


class Poison(AnalogBlock):
    """Writes a configurable value to its node from ``t_bad`` on."""

    def __init__(self, sim, name, node, t_bad, bad_value):
        super().__init__(sim, name)
        self.out = self.writes_node(node)
        self.t_bad = t_bad
        self.bad_value = bad_value

    def step(self, t, dt):
        self.out.set(self.bad_value if t >= self.t_bad else 1.0)


def clocked_sim(period=10e-9):
    sim = Simulator(dt=1e-9)
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=period)
    return sim


def counter_sim():
    sim = Simulator(dt=1e-9)
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=10e-9)
    q = Bus(sim, "q", 4)
    Counter(sim, "cnt", clk, q)
    sim.probe(q.bits[0])
    return sim


def analog_sim(t_bad, bad_value):
    sim = Simulator(dt=1e-9)
    node = sim.node("x")
    Poison(sim, "poison", node, t_bad, bad_value)
    return sim


class TestRunBudget:
    def test_validation(self):
        with pytest.raises(ReproError):
            RunBudget(max_events=0)
        with pytest.raises(ReproError):
            RunBudget(max_wall_s=-1.0)
        with pytest.raises(ReproError):
            RunBudget(max_steps=-5)

    def test_engineering_notation_wall(self):
        assert RunBudget(max_wall_s="30s").max_wall_s == 30.0
        assert RunBudget(max_wall_s="500ms").max_wall_s == 0.5

    def test_empty_and_describe(self):
        assert RunBudget().empty
        assert RunBudget().describe() == "unlimited"
        budget = RunBudget(max_wall_s=2.0, max_events=10, max_steps=5)
        assert not budget.empty
        assert "events<=10" in budget.describe()
        assert "steps<=5" in budget.describe()

    def test_event_budget_trips(self):
        sim = clocked_sim()
        sim.budget = RunBudget(max_events=25)
        with pytest.raises(BudgetExceededError) as info:
            sim.run(100e-6)
        assert info.value.resource == "events"
        assert sim.events_executed >= 25

    @pytest.mark.parametrize("warm,limit,at_time,executed", [
        (0.0, 25, 1.5000000000000002e-08, 25),
        (0.0, 101, 9.000000000000003e-08, 101),
        (95e-9, 40, 1.3000000000000005e-07, 143),
        (95e-9, 333, 4.250000000000003e-07, 436),
    ])
    def test_event_budget_trip_point_is_pinned(self, warm, limit, at_time,
                                               executed):
        # Values from the heap-only event loop: serving same-time
        # events from the delta FIFO must not move a trip.
        sim = counter_sim()
        if warm:
            sim.run(warm)
        sim.budget = RunBudget(max_events=limit)
        with pytest.raises(BudgetExceededError) as info:
            sim.run(10e-6)
        assert info.value.resource == "events"
        assert info.value.limit == limit
        assert info.value.used == limit
        assert info.value.at_time == at_time
        assert sim.now == at_time
        assert sim.events_executed == executed

    def test_step_budget_trips(self):
        sim = analog_sim(t_bad=1.0, bad_value=1.0)  # never poisons
        sim.budget = RunBudget(max_steps=10)
        with pytest.raises(BudgetExceededError) as info:
            sim.run(1e-6)
        assert info.value.resource == "steps"

    def test_wall_budget_trips(self):
        sim = clocked_sim(period=2e-9)
        sim.budget = RunBudget(max_wall_s=1e-9)  # trips immediately
        with pytest.raises(BudgetExceededError) as info:
            sim.run(1e-3)
        assert info.value.resource == "wall"

    def test_budget_is_per_run_call(self):
        sim = clocked_sim()
        sim.budget = RunBudget(max_events=50)
        sim.run(100e-9)  # well under budget
        sim.run(200e-9)  # counts restart per call: still under
        assert sim.now == pytest.approx(200e-9)

    def test_unbudgeted_run_unchanged(self):
        budgeted = clocked_sim()
        budgeted.budget = RunBudget(max_events=10**9)
        free = clocked_sim()
        budgeted.run(1e-6)
        free.run(1e-6)
        assert budgeted.events_executed == free.events_executed


class TestNumericalGuard:
    def test_validation(self):
        with pytest.raises(ReproError):
            NumericalGuard(check_every=0)
        with pytest.raises(ReproError):
            NumericalGuard(max_abs=0)
        with pytest.raises(ReproError):
            NumericalGuard(max_step_delta=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_nonfinite_detected(self, bad):
        sim = analog_sim(t_bad=50e-9, bad_value=bad)
        sim.analog.guard = NumericalGuard(check_every=1)
        with pytest.raises(NumericalDivergenceError) as info:
            sim.run(1e-6)
        assert info.value.node == "x"
        assert "non-finite" in str(info.value)
        # Caught near the poison time, not at the end of the run.
        assert info.value.at_time < 60e-9

    def test_magnitude_runaway_detected(self):
        sim = analog_sim(t_bad=50e-9, bad_value=1e15)
        sim.analog.guard = NumericalGuard(max_abs=1e6, check_every=1)
        with pytest.raises(NumericalDivergenceError) as info:
            sim.run(1e-6)
        assert info.value.value == pytest.approx(1e15)

    def test_step_delta_detected(self):
        sim = analog_sim(t_bad=50e-9, bad_value=100.0)
        sim.analog.guard = NumericalGuard(
            max_abs=None, max_step_delta=10.0, check_every=1
        )
        with pytest.raises(NumericalDivergenceError) as info:
            sim.run(1e-6)
        assert "step delta" in str(info.value)

    def test_stride_delays_but_catches(self):
        sim = analog_sim(t_bad=50e-9, bad_value=float("nan"))
        sim.analog.guard = NumericalGuard(check_every=64)
        with pytest.raises(NumericalDivergenceError):
            sim.run(1e-6)

    def test_healthy_run_untouched(self):
        guarded = analog_sim(t_bad=1.0, bad_value=1.0)
        guarded.analog.guard = NumericalGuard(check_every=1)
        free = analog_sim(t_bad=1.0, bad_value=1.0)
        guarded.run(1e-6)
        free.run(1e-6)
        assert guarded.events_executed == free.events_executed
        assert guarded.nodes["x"].v == free.nodes["x"].v

    def test_fresh_copies_config_not_history(self):
        guard = NumericalGuard(max_abs=5.0, max_step_delta=2.0,
                               check_every=3)
        guard._previous["x"] = 1.0
        clone = guard.fresh()
        assert clone.max_abs == 5.0
        assert clone.max_step_delta == 2.0
        assert clone.check_every == 3
        assert clone._previous == {}

    def test_restore_resets_slew_history(self):
        """A snapshot restore must not register as a huge step delta."""
        sim = Simulator(dt=1e-9)
        node = sim.node("x")

        class Grower(AnalogBlock):
            def __init__(self, sim, name, node):
                super().__init__(sim, name)
                self.out = self.writes_node(node)

            def step(self, t, dt):
                # Grows smoothly; jumping back to an early checkpoint
                # rewinds the value by much more than max_step_delta.
                self.out.set(t * 1e9)

        Grower(sim, "grow", node)
        guard = NumericalGuard(max_abs=None, max_step_delta=5.0,
                               check_every=1)
        sim.analog.guard = guard
        sim.run(20e-9)
        snap = sim.snapshot()
        sim.run(400e-9)
        sim.restore(snap)  # value rewinds from ~400 to ~20
        assert guard._previous == {}
        sim.run(430e-9)  # no spurious divergence


class TestNonfiniteFormatting:
    def test_guard_messages_use_units_helpers(self):
        from repro.core import format_nonfinite, nonfinite_diagnostic

        assert format_nonfinite(float("nan"), "V") == "nan V"
        assert format_nonfinite(float("-inf"), "s") == "-inf s"
        assert format_nonfinite(1.0, "V") is None
        message = nonfinite_diagnostic("pll.vctrl", float("inf"), 4e-8)
        assert "pll.vctrl" in message
        assert "inf V" in message
        assert "40" in message  # at t=40ns

    def test_exceptions_pickle_with_type(self):
        import pickle

        from repro.core import WorkerCrashError

        for exc in (
            BudgetExceededError("b", resource="events", limit=5, used=6),
            NumericalDivergenceError("n", node="x", value=math.inf),
            WorkerCrashError("w", exitcode=-9),
        ):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)
