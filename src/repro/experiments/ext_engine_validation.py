"""Extension: cross-validate the analytic and queued timing engines.

The analytic engine (closed-form epoch timing) is what every figure
harness uses, because it is fast.  The queued engine models the
out-of-order window, banked DRAM and real prefetch arrival times.  If the reproduction's
conclusions are robust, the two engines must agree on *orderings* --
who wins on each benchmark -- even where absolute speedups differ
(the queued engine discounts late prefetches, pulling Triage's numbers
toward the paper's).

Triangel rides the same grid: the head-to-head experiment
(``ext_triangel``) ranks it on the analytic engine only, so this table
is where its advantage over Triage is shown to survive a bounded miss
window and real prefetch timing.
"""

from __future__ import annotations

from typing import List

from repro.experiments import common
from repro.sim.queued import simulate_queued

BENCHES = ["mcf", "omnetpp", "xalancbmk"]
CONFIGS = ["bo", "triage_1mb", "triangel"]
LABELS = {"bo": "BO", "triage_1mb": "Triage", "triangel": "Triangel"}


def run(quick: bool = False) -> common.ExperimentTable:
    # Half the standard budget: every cell runs on both engines, and the
    # queued engine is the expensive one.  Quick mode uses the shared
    # knob so the golden-figure harness can pin the trace length.
    n = common.N_SINGLE_QUICK if quick else common.N_SINGLE // 2
    warmup = n // 3
    benches = BENCHES[:2] if quick else BENCHES
    headers = ["benchmark"]
    for config in CONFIGS:
        headers += [f"{LABELS[config]} analytic", f"{LABELS[config]} queued"]
    headers.append("late prefetch hits")
    table = common.ExperimentTable(
        title="Extension: analytic vs queued engine (speedup over no L2PF)",
        headers=headers,
    )
    for bench in benches:
        trace = common.get_trace(bench, n)
        # Baselines are per-benchmark, not per-config: run them once.
        analytic_base = common.run_single(bench, "none", n=n)
        queued_base = simulate_queued(
            trace, None, machine=common.MACHINE, warmup_accesses=warmup
        )
        row: List[object] = [bench]
        late = 0
        for config in CONFIGS:
            analytic = common.run_single(bench, config, n=n)
            queued = simulate_queued(
                trace,
                common.make_spec(config),
                machine=common.MACHINE,
                warmup_accesses=warmup,
            )
            row += [
                analytic.speedup_over(analytic_base),
                queued.speedup_over(queued_base),
            ]
            late = max(late, queued.late_prefetch_hits)
        row.append(late)
        table.add(*row)
    table.notes.append(
        "expected: same per-benchmark ordering (Triangel >= Triage > BO); "
        "queued speedups smaller because late prefetches recover only "
        "part of the miss latency"
    )
    return table


def main() -> None:
    print(run())


if __name__ == "__main__":
    main()
