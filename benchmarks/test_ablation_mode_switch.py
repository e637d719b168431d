"""Ablation: Stretch mode-switch overhead (paper §IV-C).

The paper argues mode changes are negligible because they happen at load
time scales — the drain + limit reload + 12-cycle dual flush is tiny
against the millions of cycles between swings.  This ablation switches
modes *pathologically often* (every few thousand instructions) and shows
the throughput cost stays small even then.
"""

from repro.core.partitioning import BASELINE, DEFAULT_B_MODE
from repro.core.stretch import StretchCore, StretchMode
from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile

PHASES = 12
INSTRUCTIONS_PER_PHASE = 2000


def run_ablation(sampling):
    def new_core():
        ws = generate_trace(get_profile("web_search"),
                            PHASES * INSTRUCTIONS_PER_PHASE * 8, seed=3)
        zm = generate_trace(get_profile("zeusmp"),
                            PHASES * INSTRUCTIONS_PER_PHASE * 8, seed=3)
        return FastCore(CoreConfig(), (ws, zm))

    # Static B-mode run (one switch at the start).
    static = StretchCore(new_core())
    static.set_mode(StretchMode.B_MODE)
    static_committed = static_cycles = 0
    for __ in range(PHASES):
        result = static.core.run(INSTRUCTIONS_PER_PHASE, require_all_threads=True)
        static_committed += sum(t.instructions for t in result.threads)
        static_cycles += result.cycles

    # Pathological switching: flip the mode between every phase.
    flappy = StretchCore(new_core())
    flappy.set_mode(StretchMode.B_MODE)
    flappy_committed = flappy_cycles = 0
    for phase in range(PHASES):
        result = flappy.core.run(INSTRUCTIONS_PER_PHASE, require_all_threads=True)
        flappy_committed += sum(t.instructions for t in result.threads)
        flappy_cycles += result.cycles
        flappy.set_mode(
            StretchMode.BASELINE if phase % 2 == 0 else StretchMode.B_MODE
        )

    static_tput = static_committed / static_cycles
    flappy_tput = flappy_committed / flappy_cycles
    return static_tput, flappy_tput, flappy.mode_switches


def test_ablation_mode_switch_overhead(benchmark, fidelity, save_result):
    static_tput, flappy_tput, switches = benchmark.pedantic(
        run_ablation, args=(fidelity.sampling,), rounds=1, iterations=1
    )
    overhead = 1.0 - flappy_tput / static_tput
    text = "\n".join([
        "Ablation: Stretch mode-switch overhead",
        f"static B-mode throughput:        {static_tput:.3f} UIPC (combined)",
        f"switching every {INSTRUCTIONS_PER_PHASE} instructions: "
        f"{flappy_tput:.3f} UIPC ({switches} switches)",
        f"throughput cost of pathological switching: {overhead:+.1%}",
        "(real mode swings happen at diurnal time scales — hours apart)",
    ])
    save_result("ablation_mode_switch", text)

    # Even switching ~1000x more often than a real deployment would, the
    # drain+flush overhead stays small — the paper's negligibility claim.
    assert abs(overhead) < 0.25
    assert switches >= PHASES - 1
