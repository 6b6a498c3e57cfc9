"""Paired A/B timing of two checkouts on one benchmark workload.

Usage:
  python tools/ab.py BASE NEW --workload W [--pairs N] [--seed N]
                     [--repeats R | --seconds S] [--out DIR]

BASE and NEW are checkouts of this repository, for example the parent
commit in a ``git worktree`` next to the working tree.  Each run is that
checkout's own ``bench/run.py --workload W --seed N --trace 0 --json
...``, so each side measures its own code with its own harness.  Both
sides run under the same bytecode-cache state: each gets its own empty
``PYTHONPYCACHEPREFIX`` directory, with bytecode writing on, so neither
reads a ``__pycache__`` the other lacks (with ``PYTHONDONTWRITEBYTECODE``
set, a checkout holding old caches starts faster on every run).  Pairs run in
ABBA order (BASE first in even pairs, NEW first in odd ones), so a
drift in host speed weighs on both sides alike.  A run whose record is
not ``correct`` (a failed cell or a digest mismatch) stops the
comparison: a fast wrong answer is not a speed-up.

For each end-to-end metric of ``BENCHMARK.json`` the report lists the
per-pair ratios NEW/BASE, their median and a distribution-free interval
for the median ratio from the sign test: the k-th smallest and k-th
largest ratio, with k the largest count whose binomial tail stays
within the error budget.  The verdict is ``faster`` (``smaller`` for
memory) when the whole interval lies on the better side of 1,
``slower`` (``larger``) when it lies on the worse side, and
``unresolved`` otherwise -- always so for fewer than 6 pairs, where no
95% interval exists.  The last line of standard output is the report
as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Verdict words per metric, (better, worse); others read faster/slower.
WORDS = {"peak_rss_mb": ("smaller", "larger")}


def binom_cdf(k: int, n: int) -> float:
    """P(X <= k) for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n


class Interval(NamedTuple):
    low: float
    high: float
    #: The interval's actual coverage (the sign test's is discrete).
    confidence: float


def sign_test_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Optional[Interval]:
    """A distribution-free interval for the median of ``values``, or
    None when there are too few values for the requested confidence."""
    n = len(values)
    tail = (1 - confidence) / 2
    k = 0
    while k < n // 2 and binom_cdf(k, n) <= tail:
        k += 1
    if k == 0:
        return None
    ordered = sorted(values)
    return Interval(ordered[k - 1], ordered[n - k], 1 - 2 * binom_cdf(k - 1, n))


def verdict(interval: Optional[Interval], better: str, metric: str = "") -> str:
    """``faster``/``slower`` (see :data:`WORDS`) or ``unresolved``."""
    good, bad = WORDS.get(metric, ("faster", "slower"))
    if interval is None:
        return "unresolved"
    if interval.high < 1:
        return good if better == "lower" else bad
    if interval.low > 1:
        return good if better == "higher" else bad
    return "unresolved"


def end_to_end_metrics(root: Path = ROOT) -> List[Tuple[str, str]]:
    """``(name, better)`` of each end-to-end metric the benchmark declares."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in declared["end_to_end"]]


def order(pairs: int) -> List[Tuple[int, str]]:
    """ABBA run order: ``(pair, side)`` with side ``"base"`` or ``"new"``."""
    runs = []
    for pair in range(pairs):
        sides = ("base", "new") if pair % 2 == 0 else ("new", "base")
        runs.extend((pair, side) for side in sides)
    return runs


def parse_record(stdout: str, where: str) -> Dict[str, float]:
    """Metric values from ``bench/run.py``'s last output line; raises
    ``ValueError`` unless the record is ``correct``."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError(f"{where}: no output")
    record = json.loads(lines[-1])
    if not record.get("correct"):
        raise ValueError(
            f"{where}: record is not correct "
            f"({record.get('failed')} of {record.get('attempted')} operations failed)"
        )
    return {name: entry["value"] for name, entry in record["metrics"].items()}


def summarize(
    base: List[Dict[str, float]],
    new: List[Dict[str, float]],
    metrics: Sequence[Tuple[str, str]],
) -> Dict[str, Dict]:
    """Per metric: the pairs, their NEW/BASE ratios, median, interval, verdict."""
    report = {}
    for name, better in metrics:
        pairs = [(b[name], n[name]) for b, n in zip(base, new) if name in b and name in n]
        ratios = [n / b for b, n in pairs if b]
        interval = sign_test_interval(ratios)
        report[name] = {
            "better": better,
            "pairs": pairs,
            "ratios": ratios,
            "median_ratio": statistics.median(ratios) if ratios else None,
            "interval": list(interval) if interval is not None else None,
            "verdict": verdict(interval, better, name),
        }
    return report


def render(report: Dict[str, Dict]) -> str:
    out = []
    for name, entry in report.items():
        out.append(f"{name} ({entry['better']} is better)")
        out.append(f"  {'pair':>4}  {'base':>12}  {'new':>12}  {'new/base':>8}")
        for i, ((b, n), r) in enumerate(zip(entry["pairs"], entry["ratios"])):
            out.append(f"  {i + 1:>4}  {b:>12.6g}  {n:>12.6g}  {r:>8.3f}")
        interval = entry["interval"]
        span = (
            f"[{interval[0]:.3f}, {interval[1]:.3f}] ({interval[2]:.1%} sign test)"
            if interval is not None else "none (too few pairs)"
        )
        median = entry["median_ratio"]
        out.append(
            f"  median ratio {median:.3f}, interval {span}: {entry['verdict']}"
            if median is not None else f"  no samples: {entry['verdict']}"
        )
    return "\n".join(out)


def arm_env(pycache: Path) -> Dict[str, str]:
    """One side's environment: bytecode cached under ``pycache`` only."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_bench(
    checkout: Path, workload: str, seed: int, timing: List[str], out: Path,
    env: Dict[str, str],
) -> str:
    """One ``bench/run.py`` run of ``checkout``; returns its standard output."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--json", str(out), *timing],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1, help="passed to bench/run.py")
    when = parser.add_mutually_exclusive_group()
    when.add_argument("--repeats", type=int, default=5)
    when.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path, help="keep every run's --json record here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    timing = (
        ["--seconds", str(args.seconds)] if args.seconds is not None
        else ["--repeats", str(args.repeats)]
    )
    checkouts = {"base": args.base.resolve(), "new": args.new.resolve()}
    for side, path in checkouts.items():
        if not (path / "bench" / "run.py").is_file():
            parser.error(f"{side}: no bench/run.py under {path}")
    out_dir = args.out or Path(tempfile.mkdtemp(prefix="ab-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    caches = Path(tempfile.mkdtemp(prefix="pycache-", dir=out_dir))
    envs = {side: arm_env(caches / side) for side in checkouts}
    samples: Dict[str, List[Optional[Dict[str, float]]]] = {
        side: [None] * args.pairs for side in checkouts
    }
    try:
        for pair, side in order(args.pairs):
            where = f"pair {pair + 1} {side}"
            print(f"[ab] {where} ...", file=sys.stderr, flush=True)
            stdout = run_bench(
                checkouts[side], args.workload, args.seed, timing,
                out_dir / f"{pair + 1:02d}-{side}.json", envs[side],
            )
            try:
                samples[side][pair] = parse_record(stdout, where)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(caches, ignore_errors=True)
    report = summarize(
        samples["base"], samples["new"], end_to_end_metrics(checkouts["new"])
    )
    print(render(report))
    print(json.dumps({
        "workload": args.workload, "pairs": args.pairs, "seed": args.seed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
