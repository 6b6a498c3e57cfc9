"""One workload in a fresh interpreter: warmup, timed repeats, traced repeat.

Started by ``run.py`` with every ``REPRO_*`` variable removed, so the
program runs with its defaults.  Writes one JSON document to ``--out``
and one span per traced cell to ``spans.jsonl`` next to it.

Usage: python bench/worker.py --workload NAME --seed N --tmp DIR --out PATH
       (--repeats N | --seconds S) [--setup] [--traced]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import digest
import layers
import suite


class Run:
    """One repeat of a workload: its cells, checks and (traced) spans.

    ``cell`` counts one attempted operation and records its result for
    the digest check; an exception fails the cell and the repeat goes
    on.  ``check`` is an operation that fails when ``ok`` is false.
    """

    def __init__(self, tmp: Path, profiler: Optional[layers.LayerProfiler] = None):
        self.tmp = tmp
        self.profiler = profiler
        self.traced = profiler is not None
        self.attempted = 0
        self.errors: List[str] = []
        self.results: List[Tuple[str, object]] = []
        self.accesses = 0
        self.spans: List[Dict] = []
        #: Seconds worker processes spent in cells (traced repeat only).
        self.cell_seconds = 0.0
        self._origin = time.perf_counter()

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.tmp)

    def cell(self, identity: Optional[str], accesses: int, fn, *args, **kwargs):
        self.attempted += 1
        before = self.profiler.snapshot() if self.traced else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed cell is counted, not fatal
            self.errors.append(f"{identity or fn.__name__}: {exc!r}")
            return None
        finally:
            if self.traced:
                self.spans.append({
                    "cell": identity or fn.__name__,
                    "start_s": start - self._origin,
                    "end_s": time.perf_counter() - self._origin,
                    **layers.delta(self.profiler.snapshot(), before),
                })
        self.accesses += accesses
        if identity is not None:
            self.results.append((identity, result))
        return result

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(f"check failed: {what}")

    def summary(self) -> Dict[str, float]:
        """The modelled KPIs of this repeat's cells: speedup over the
        ``none`` cell of the same benchmark, coverage and accuracy."""
        from repro.sim.stats import geomean

        by_id = dict(self.results)
        speedups, coverage, accuracy = [], [], []
        for identity, result in by_id.items():
            bench, config, n, seed = identity.split("|")
            if config == "none":
                continue
            base = by_id.get(f"{bench}|none|{n}|{seed}")
            if base is not None:
                speedups.append(result.speedup_over(base))
            kpis = result.kpis()
            coverage.append(kpis["coverage"])
            accuracy.append(kpis["accuracy"])
        return {
            "sim.speedup_geomean": geomean(speedups),
            "sim.coverage_mean": statistics.fmean(coverage) if coverage else 0.0,
            "sim.accuracy_mean": statistics.fmean(accuracy) if accuracy else 0.0,
        }


def timed(workload: suite.Workload, seed: int, run: Run) -> Tuple[float, Dict]:
    """Run one repeat; the wall time covers the cells and the summary."""
    from repro.experiments import common

    common.clear_caches()
    gc.collect()
    start = time.perf_counter()
    workload.run(run, seed)
    summary = run.summary()
    return time.perf_counter() - start, summary


class Checker:
    """Digest checks against the pins, else against the first repeat."""

    def __init__(self, pinned: Dict[str, str]):
        self.pinned = pinned
        self.seen: Dict[str, str] = {}
        self.verified = True
        self.failed = 0
        self.errors: List[str] = []

    def check(self, run: Run) -> None:
        self.failed += len(run.errors)
        self.errors.extend(run.errors)
        for identity, result in run.results:
            got = digest.digest(result)
            want = self.pinned.get(identity)
            if want is None:
                self.verified = False
                want = self.seen.get(identity, got)
            self.seen.setdefault(identity, got)
            if got != want:
                self.failed += 1
                self.errors.append(f"{identity}: digest {got[:12]} != {want[:12]}")


#: Fewest set-up probes a run takes, whatever its number of repeats.
SETUP_PROBES = 5


def setup_probe(workload: suite.Workload) -> float:
    """Spawn-to-exit seconds of a fresh interpreter importing the
    workload's modules: the start-up cost every ``python -m repro`` pays."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(workload.imports)], check=True)
    return time.perf_counter() - start


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--setup", action="store_true", help="take set-up probes")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workload = suite.WORKLOADS[args.workload]
    checker = Checker(digest.load_expected())
    attempted = 0

    def one(profiler=None):
        nonlocal attempted
        run = Run(args.tmp, profiler)
        wall, summary = timed(workload, args.seed, run)
        attempted += run.attempted
        checker.check(run)
        return run, wall, summary

    one()  # warmup: imports, first-touch allocations
    walls: List[float] = []
    rates: List[float] = []
    setup: List[float] = []
    summary: Dict[str, float] = {}
    while (
        len(walls) < args.repeats if args.repeats is not None
        else sum(walls) < args.seconds
    ):
        # One probe per repeat, so set-up time samples the same host
        # conditions as the repeats rather than one burst of them.
        if args.setup:
            setup.append(setup_probe(workload))
        run, wall, summary = one()
        walls.append(wall)
        rates.append(run.accesses / wall)
    while args.setup and len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload))
    # Children are pool workers and set-up probes; a probe imports a
    # subset of what this process holds, so it never sets the peak.
    rss = max(rss_mb(resource.RUSAGE_SELF), rss_mb(resource.RUSAGE_CHILDREN))

    traced = None
    if args.traced:
        profiler = layers.LayerProfiler()
        installed = layers.install(profiler)
        try:
            run, wall, summary = one(profiler)
        finally:
            layers.uninstall(installed)
        with (args.out.parent / "spans.jsonl").open("w") as fh:
            for span in run.spans:
                fh.write(json.dumps({"workload": args.workload, **span}) + "\n")
        traced = {"wall_s": wall, "cell_seconds": run.cell_seconds}

    args.out.write_text(json.dumps({
        "setup_s": setup,
        "wall_s": walls,
        "accesses_per_s": rates,
        "peak_rss_mb": rss,
        "summary": summary,
        "traced": traced,
        "attempted": attempted,
        "failed": checker.failed,
        "errors": checker.errors[:20],
        "verified": checker.verified,
        "digests": checker.seen,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
