"""Compare two ``run.py --json`` records, one row per workload x metric.

Usage: python bench/compare.py BASE.json NEW.json

Each end-to-end metric may worsen by its bound (a share of BASE's
reported value); ``error_rate`` may not rise at all.  A metric whose
run-to-run spread (interquartile range over median, the wider of the
two records) exceeds its bound is ``unresolved`` unless every NEW
sample beats every BASE sample.  Exits 1 if any row is a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import END_TO_END, ERROR_RATE, iqr_share, reduce


def verdict(metric, base, new):
    """``(status, change, spread)`` for one metric's two sample lists."""
    a, b = reduce(metric, base), reduce(metric, new)
    sign = 1 if metric.better == "lower" else -1
    change = sign * (b - a) / a if a else sign * (b - a)
    if metric is ERROR_RATE:
        return ("regression" if b > a else "ok"), change, 0.0
    spread = max(iqr_share(base), iqr_share(new))
    if spread > metric.bound:
        beats = all(sign * (x - y) < 0 for x in new for y in base)
        return ("better" if beats else "unresolved"), change, spread
    if change > metric.bound:
        return "regression", change, spread
    return ("better" if change < -metric.bound else "ok"), change, spread


def compare(base_record, new_record):
    rows = []
    for workload, base in base_record["workloads"].items():
        new = new_record["workloads"].get(workload)
        if new is None:
            continue
        for metric in END_TO_END + (ERROR_RATE,):
            if metric.name not in base["metrics"] or metric.name not in new["metrics"]:
                continue
            samples = [r["metrics"][metric.name]["samples"] for r in (base, new)]
            status, change, spread = verdict(metric, *samples)
            rows.append((workload, metric, reduce(metric, samples[0]),
                         reduce(metric, samples[1]), change, spread, status))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(base, new)
    print(f"{'workload':<20} {'metric':<16} {'base':>12} {'new':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  status")
    for workload, metric, a, b, change, spread, status in rows:
        print(f"{workload:<20} {metric.name:<16} {a:>12.6g} {b:>12.6g} "
              f"{change:>+9.1%} {spread:>7.1%} {metric.bound:>6.0%}  {status}")
    return 1 if any(row[-1] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
