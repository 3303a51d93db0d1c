"""The four campaign workloads of the benchmark.

Each workload is generated from the benchmark seed; the library only
ever sees the resulting design factory and fault list.  The seed moves
injection instants, pulse shapes and clock alignments, never the size
of the fault space, so host cost per run stays comparable across seeds
while the classifications differ.

* ``pll_analog`` — the test-scaled PLL of the paper's Section 5 case
  study (5 MHz reference, /10, the Fig. 5 topology) plus a sense
  integrator on a second current node; trapezoid current pulses from
  sub-threshold to 10 mA, widths bracketing 500 ps, at three post-lock
  instants; ``batch="auto"`` with a store.
* ``seu_exhaustive`` — every state bit of the Accumulator8 countdown
  CPU, two self-healing shift registers and their sampled taps, times
  a cycle grid; ``batch="digital"`` with a store.
* ``seu_sampled`` — the same fault space with confidence-bounded
  stratified sampling (the sampler seed is the benchmark seed).
* ``seu_fanout`` — the same grid and configuration through
  ``run_distributed`` with two forked workers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro import PLL, Simulator
from repro.analog import Digitizer
from repro.analog.filters import TransimpedanceFilter, rc_transimpedance
from repro.campaign import (
    CampaignSpec,
    Design,
    analog_injections,
    cycle_times,
    exhaustive_bitflips,
    run_campaign,
)
from repro.core import Component, L0
from repro.core.hierarchy import collect_state_signals
from repro.digital import (
    DFF,
    Accumulator8,
    Bus,
    ClockGen,
    ShiftRegister,
    assemble,
)
from repro.dist import run_distributed
from repro.faults import TrapezoidPulse
from repro.store import CampaignStore

# -- pll_analog ---------------------------------------------------------------

PLL_T_END = 4.9e-6
#: Post-lock injection instants before seeded jitter (the PLL starts
#: preset-locked, so every instant is after lock).
PLL_TIMES = (4.0e-6, 4.2e-6, 4.4e-6)
#: 10 uA is sub-threshold on both sites; 10 mA is the paper's largest
#: pulse and upsets both.
PLL_AMPLITUDES = (10e-6, 1e-3, 10e-3)
#: Bracketing the paper's 500 ps pulse width.
PLL_WIDTHS = (100e-12, 500e-12, 2e-9)
PLL_SITES = ("pll.icp", "pll.isense")


def pll_factory():
    """Test-scaled PLL plus a sense integrator on a second current node.

    The PLL has one current node (the charge-pump output / loop-filter
    input).  The sense path — an RC transimpedance stage and a
    threshold digitizer on its own current node — gives the campaign a
    second injection site whose variants batch in the same ensembles
    and peel only when a pulse is large enough to trip the flag.
    """
    sim = Simulator(dt=1e-9)
    pll = PLL(
        sim, "pll", f_ref="5MHz", n_div=10, kvco="10MHz", i_pump="100uA",
        r="15.7kOhm", c1="162pF", c2="16pF", preset_locked=True,
    )
    isense = sim.current_node("pll.isense")
    vsense = sim.node("pll.vsense")
    TransimpedanceFilter(
        sim, "sense", isense, vsense, rc_transimpedance(1e3, 1e-12),
        v_min=0.0, v_max=5.0, parent=pll,
    )
    flag = sim.signal("pll.flag", init=L0)
    Digitizer(sim, "senseflag", vsense, flag, threshold=2.5, parent=pll)
    probes = {
        "vctrl": sim.probe(pll.vctrl),
        "fb": sim.probe(pll.fb),
        "flag": sim.probe(flag),
    }
    return Design(sim=sim, root=pll, probes=probes)


def pll_spec(seed):
    rng = random.Random(f"pll_analog:{seed}")
    # Small jitter only: how many variants peel (and re-run scalar)
    # depends on where amplitudes and instants fall against the loop's
    # thresholds, and that count sets most of the campaign's cost.
    times = [t + rng.randrange(0, 50) * 1e-9 for t in PLL_TIMES]
    amplitudes = [a * rng.randrange(95, 101) / 100 for a in PLL_AMPLITUDES]
    # The 100 ps width equals the rise time (no plateau); jittering it
    # would leave a plateau of a few ps, and the solver refines to an
    # eighth of the shortest edge or plateau.
    widths = [PLL_WIDTHS[0], PLL_WIDTHS[1] * rng.randrange(95, 106) / 100,
              PLL_WIDTHS[2] * rng.randrange(90, 111) / 100]
    pulses = [
        TrapezoidPulse(rt=100e-12, ft=300e-12, pw=pw, pa=pa)
        for pa in amplitudes for pw in widths
    ]
    return CampaignSpec(
        name="pll_analog",
        faults=analog_injections(PLL_SITES, times, pulses),
        t_end=PLL_T_END,
        outputs=["vctrl", "fb", "flag"],
        analog_tolerance=0.02,
        time_tolerances={"fb": 2e-9},
    )


# -- seu_* --------------------------------------------------------------------

SEU_PERIOD = 10e-9
SEU_T_END = 400e-9
SEU_CYCLES = 12
SEU_SHIFTREGS = 2
#: The countdown program: 8 loop iterations, then OUT and HALT.
SEU_PROGRAM = assemble([
    ("LDI", 8),
    ("OUT",),
    ("SUB", 1),
    ("JNZ", 1),
    ("OUT",),
    ("HALT",),
])
SEU_OUTPUTS = ["out[0]", "out[7]", "out_valid", "halted"] + [
    f"tap{k}" for k in range(SEU_SHIFTREGS)
]
#: Sampled-campaign stopping rule.  Strata are injection-time phases:
#: site x phase strata of this grid hold four faults each, too few for
#: a per-stratum interval to mean anything.
SAMPLE_MARGIN = 0.08
SAMPLE_CONFIDENCE = 0.95
SAMPLE_CHUNK = 20
SAMPLE_STRATA = "phase"
FANOUT_WORKERS = 2
#: Six shards for two workers: each worker leases about three.
FANOUT_SHARDS = 6


def seu_factory(tap_delay):
    """Countdown CPU + shift registers fed by its accumulator.

    Each shift register's last stage is sampled into a tap flip-flop
    by a clock four times slower than the CPU's, so an upset bit that
    shifts out is observed only when it passes the tap at a sampling
    edge: shift-register strata get error rates strictly between 0
    and 1, and every such mutant heals and re-converges with golden.
    """
    def factory():
        sim = Simulator(dt=1e-9)
        top = Component(sim, "top")
        clk = sim.signal("clk", init=L0)
        ClockGen(sim, "ck", clk, period=SEU_PERIOD, parent=top)
        sclk = sim.signal("sclk", init=L0)
        ClockGen(sim, "sck", sclk, period=4 * SEU_PERIOD,
                 start_delay=tap_delay, parent=top)
        cpu = Accumulator8(sim, "cpu", clk, SEU_PROGRAM, parent=top)
        probes = {
            "out[0]": sim.probe(cpu.out.bits[0]),
            "out[7]": sim.probe(cpu.out.bits[7]),
            "out_valid": sim.probe(cpu.out_valid),
            "halted": sim.probe(cpu.halted),
        }
        for k in range(SEU_SHIFTREGS):
            q = Bus(sim, f"sr{k}", 8)
            ShiftRegister(sim, f"sr{k}", clk, cpu.acc.bits[k], q, parent=top)
            tap = sim.signal(f"tap{k}")
            DFF(sim, f"obs{k}", q.bits[7], sclk, tap, init=L0, parent=top)
            probes[f"tap{k}"] = sim.probe(tap)
        return Design(sim=sim, root=top, probes=probes)

    return factory


def seu_inputs(seed):
    """``(factory, spec)`` of the SEU fault space for ``seed``."""
    rng = random.Random(f"seu:{seed}")
    # Tap sampling edges land mid-cycle, away from CPU clock edges.
    factory = seu_factory(tap_delay=(5 + 10 * rng.randrange(4)) * 1e-9)
    targets = [name for name, _sig in collect_state_signals(factory().root)]
    times = cycle_times(
        15e-9, SEU_PERIOD, SEU_CYCLES, phase=rng.randrange(30, 71) / 100,
    )
    spec = CampaignSpec(
        name="seu",
        faults=exhaustive_bitflips(targets, times),
        t_end=SEU_T_END,
        outputs=list(SEU_OUTPUTS),
    )
    return factory, spec


# -- workload table -----------------------------------------------------------


@dataclass
class Workload:
    """One benchmark workload: its inputs and how one campaign runs.

    :ivar grid: which reference (``"pll"`` or ``"seu"``) the
        classifications are checked against.
    """

    name: str
    grid: str
    seed: int
    factory: object
    spec: CampaignSpec
    distributed: bool = False
    options: dict = field(default_factory=dict)

    @property
    def sampled(self):
        return bool(self.options.get("sample"))

    def run(self, workdir, progress):
        """One campaign through the public API; returns the result.

        The store is opened inside the call, so its cost belongs to
        the measured campaign.
        """
        if self.distributed:
            shard_size = math.ceil(len(self.spec.faults) / FANOUT_SHARDS)
            return run_distributed(
                self.factory, self.spec, workers=FANOUT_WORKERS,
                shard_size=shard_size, store_path=workdir / "fanout.db",
                config=dict(self.options), timeout=170,
            )
        with CampaignStore(workdir / "campaign.db") as store:
            return run_campaign(
                self.factory, self.spec, progress=progress, store=store,
                **self.options,
            )


NAMES = ("pll_analog", "seu_exhaustive", "seu_sampled", "seu_fanout")


def build(name, seed):
    """The :class:`Workload` ``name`` generated from ``seed``."""
    if name == "pll_analog":
        return Workload(
            name=name, grid="pll", seed=seed, factory=pll_factory,
            spec=pll_spec(seed),
            options={"batch": "auto"},
        )
    factory, spec = seu_inputs(seed)
    if name == "seu_exhaustive":
        return Workload(
            name=name, grid="seu", seed=seed, factory=factory, spec=spec,
            options={"batch": "digital"},
        )
    if name == "seu_sampled":
        return Workload(
            name=name, grid="seu", seed=seed, factory=factory, spec=spec,
            options={
                "batch": "digital", "sample": True, "margin": SAMPLE_MARGIN,
                "confidence": SAMPLE_CONFIDENCE, "chunk": SAMPLE_CHUNK,
                "strata": SAMPLE_STRATA, "sample_seed": seed,
            },
        )
    if name == "seu_fanout":
        return Workload(
            name=name, grid="seu", seed=seed, factory=factory, spec=spec,
            distributed=True, options={"batch": "digital"},
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
