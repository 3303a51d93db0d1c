"""Every execution mode stores the same rows, on generated designs.

Small clocked designs are built from a netlist through the component
registry (a Counter, ShiftRegister or LFSR feeding a ParityGen) and
hit with generated bit-flip fault lists.  For each draw, cold, warm,
analog-or-digital batched and digital batched campaigns, plus a
sampled campaign whose margin is too tight to ever converge (so it
simulates the whole population), must produce the same CSV; a
campaign interrupted after a drawn row and resumed must too; and no
batch may silently fall back to scalar execution.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, exhaustive_bitflips, run_campaign, to_csv
from repro.netlist import Netlist, design_factory
from repro.store import CampaignStore

PERIOD = 10e-9
T_END = 160e-9

#: Ports of each generated block type (instance ``blk`` drives ``q``).
BLOCKS = {
    "Counter": {"clk": "clk", "q": "q"},
    "ShiftRegister": {"clk": "clk", "serial_in": "sin", "q": "q"},
    "LFSR": {"clk": "clk", "q": "q"},
}


def make_factory(block, width):
    """A registry-built design: ``block`` -> ``q`` bus -> parity."""
    instances = [
        {"type": "ClockGen", "name": "ck", "ports": {"out": "clk"},
         "params": {"period": PERIOD}},
        # Serial stimulus for the shift register: a slower clock.
        {"type": "ClockGen", "name": "sck", "ports": {"out": "sin"},
         "params": {"period": 3 * PERIOD}},
        {"type": block, "name": "blk", "ports": BLOCKS[block]},
        {"type": "ParityGen", "name": "par",
         "ports": {"a": "q", "parity": "parity"}},
        # The observed output samples parity on the slow clock, so an
        # upset that heals between sampling edges stays silent.
        {"type": "DFF", "name": "obs",
         "ports": {"d": "parity", "clk": "sin", "q": "tap"}},
    ]
    netlist = Netlist.from_dict({
        "name": "dut",
        "dt": "1ns",
        "signals": [
            {"name": "clk", "init": "0"},
            {"name": "sin", "init": "0"},
            {"name": "parity", "init": "U"},
            {"name": "tap", "init": "0"},
        ],
        "buses": [{"name": "q", "width": width, "init": 1}],
        "instances": instances,
        "probes": ["q", "parity", "tap"],
        "outputs": ["tap"],
    })
    return design_factory(netlist)


@st.composite
def campaigns(draw):
    """``(factory, spec)``: a generated design and bit-flip list."""
    block = draw(st.sampled_from(sorted(BLOCKS)))
    width = draw(st.integers(3, 4))
    bits = draw(st.lists(st.integers(0, width - 1), min_size=2,
                         max_size=3, unique=True))
    cycles = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4,
                           unique=True))
    phase = draw(st.sampled_from([0.3, 0.5]))
    times = [(cycle + phase) * PERIOD for cycle in sorted(cycles)]
    faults = exhaustive_bitflips(
        [f"dut/blk.q[{bit}]" for bit in sorted(bits)], times
    )
    spec = CampaignSpec(name="equiv", faults=faults, t_end=T_END,
                        outputs=["tap"])
    return make_factory(block, width), spec


#: Execution modes that must all store the cold campaign's rows.
MODES = {
    "warm": {"warm_start": True},
    "batch-auto": {"batch": "auto"},
    "batch-digital": {"batch": "digital"},
    "sampled": {"batch": "digital", "sample": True, "margin": 1e-6,
                "chunk": 3, "strata": "site"},
}


class Interrupted(CampaignStore):
    """A store that stops the campaign once ``after`` rows committed."""

    def __init__(self, path, after):
        super().__init__(path)
        self.after = after
        self.rows = 0

    def _count(self, rows):
        self.rows += rows
        if self.rows >= self.after:
            raise KeyboardInterrupt

    def record_runs(self, campaign_id, rows):
        rows = list(rows)
        super().record_runs(campaign_id, rows)
        self._count(len(rows))

    def record_error(self, *args, **kwargs):
        super().record_error(*args, **kwargs)
        self._count(1)


SETTINGS = settings(
    max_examples=12, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


class TestModeEquivalence:
    @SETTINGS
    @given(campaigns())
    def test_every_mode_stores_the_cold_rows(self, campaign):
        factory, spec = campaign
        reference = to_csv(run_campaign(factory, spec))
        for name, options in MODES.items():
            result = run_campaign(factory, spec, **options)
            assert to_csv(result) == reference, name
            batch = result.execution.get("batch")
            if batch is not None:
                assert batch["fallbacks"] == 0, name
            sampling = result.execution.get("sampling")
            if sampling is not None:
                assert sampling["skipped"] == 0

    @SETTINGS
    @given(campaigns(), st.sampled_from(sorted(MODES)), st.data())
    def test_interrupted_then_resumed_stores_the_same_rows(
        self, tmp_path_factory, campaign, mode, data
    ):
        factory, spec = campaign
        options = MODES[mode]
        reference = to_csv(run_campaign(factory, spec, **options))
        after = data.draw(st.integers(1, len(spec.faults)), label="after")
        path = tmp_path_factory.mktemp("interrupt") / "campaign.db"
        flaky = Interrupted(path, after)
        try:
            run_campaign(factory, spec, store=flaky, **options)
        except KeyboardInterrupt:
            pass
        finally:
            flaky.close()
        with CampaignStore(path) as store:
            resumed = run_campaign(factory, spec, store=store, resume=True,
                                   **options)
        assert to_csv(resumed) == reference
