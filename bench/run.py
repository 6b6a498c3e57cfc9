"""Outside-in simulator benchmark: end-to-end host metrics per workload,
per-layer self time and call counts from a separate traced repeat.

Usage:
  python bench/run.py [--workload NAME]... [--seed N]
                      [--repeats N | --seconds S] [--trace 0|1]
                      [--json PATH] [--pin]

Each workload runs in a fresh interpreter (``worker.py``) with every
``REPRO_*`` variable removed: one untimed warmup repeat, then the timed
repeats (``--repeats``, default 5, or as many as fit in ``--seconds``),
then one traced repeat.  ``--trace 0`` skips the traced repeat and
reports the end-to-end metrics only; ``--trace 1`` skips the set-up
probes and reports the per-layer metrics only.  Every simulated result
is checked against ``expected.json``; the last line of standard output
is one JSON object, and the exit code is 1 if any cell failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple

import digest
import layers
import suite

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Scratch space for worker output and disk caches, removed after a run.
TMP = ROOT / ".bench_tmp"
#: Per-workload limit when ``--seconds`` bounds the run.
WORKER_TIMEOUT_S = 170


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the baseline's value a metric may worsen by.
    bound: float = 0.0
    #: How samples reduce to the reported value: ``median``, or
    #: ``quartile`` -- the better quartile.  Host noise on a shared
    #: machine only ever slows a repeat, so the faster quartile of the
    #: repeats tracks the program's own cost more steadily than the
    #: median does.
    stat: str = "median"


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25, "quartile"),
    Metric("accesses_per_s", "accesses/s", "higher", 0.25, "quartile"),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)
#: Failed cells over attempted cells; any increase is a regression.  It
#: is 0 on a correct run, so it is reported beside the end-to-end
#: metrics rather than among them.
ERROR_RATE = Metric("error_rate", "fraction", "lower")

PER_LAYER = tuple(
    Metric(name, unit, better)
    for layer in layers.LAYERS
    for name, unit, better in (
        (layers.TIME_METRIC[layer], "s", "lower"),
        (layers.TIME_METRIC[layer][:-2] + "_share", "fraction", "lower"),
    )
) + tuple(
    Metric(name, unit, better)
    for name, unit, better in (
        ("workloads.calls", "count", "lower"),
        ("memory.access_calls", "count", "lower"),
        ("memory.prefetch_calls", "count", "lower"),
        ("memory.prefetch_redundant_frac", "fraction", "lower"),
        ("prefetchers.observe_calls", "count", "lower"),
        ("prefetchers.candidates_per_observe", "count/call", "lower"),
        ("core.triage.observe_calls", "count", "lower"),
        ("core.metadata_store.calls", "count", "lower"),
        ("core.metadata_store.lookup_hit_rate", "fraction", "higher"),
        ("core.training_unit.calls", "count", "lower"),
        ("core.partition.calls", "count", "lower"),
        ("core.partition.decisions", "count", "lower"),
        ("replacement.optgen_calls", "count", "lower"),
        ("replacement.hawkeye_calls", "count", "lower"),
        ("sim.runs", "count", "lower"),
        ("sim.timing.epochs", "count", "lower"),
        ("sim.speedup_geomean", "ratio", "higher"),
        ("sim.coverage_mean", "fraction", "higher"),
        ("sim.accuracy_mean", "fraction", "higher"),
        ("cache.gets", "count", "lower"),
        ("cache.puts", "count", "lower"),
        ("cache.hit_rate", "fraction", "higher"),
        ("sim.parallel.cells", "count", "lower"),
        ("sim.parallel.worker_utilization", "fraction", "higher"),
        ("bench.trace_overhead_pct", "%", "lower"),
        ("bench.unattributed_frac", "fraction", "lower"),
    )
)


def contract_per_layer():
    """The per-layer metrics ``--trace 1`` prints.  Per-layer seconds
    are left out: a layer a workload never calls reads exactly 0 s on
    every run; its share of the traced wall time carries the signal."""
    return tuple(m for m in PER_LAYER if m.unit != "s")


def child_env(environ=None) -> Dict[str, str]:
    """The worker environment: no ``REPRO_*`` knobs, fixed hash seed."""
    env = {
        key: value
        for key, value in (os.environ if environ is None else environ).items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def reduce(metric: Metric, values: List[float]) -> float:
    if metric.stat == "median" or len(values) < 2:
        return statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1 if metric.better == "lower" else q3


def iqr_share(values: List[float]) -> float:
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_worker(name: str, args, tmp: Path) -> Dict:
    out = tmp / "worker.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", name,
        "--seed", str(args.seed), "--tmp", str(tmp), "--out", str(out),
    ]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    else:
        cmd += ["--repeats", str(args.repeats)]
    if args.trace != 1:
        cmd.append("--setup")
    if args.trace != 0:
        cmd.append("--traced")
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(
            timeout=WORKER_TIMEOUT_S if args.seconds is not None else None
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return {"error": f"{name} exceeded {WORKER_TIMEOUT_S} s"}
    finally:
        # Pool workers share the session; none may outlive the worker.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stderr.write(stdout.decode(errors="replace"))
    if proc.returncode != 0 or not out.is_file():
        return {"error": f"{name} worker exited with code {proc.returncode}"}
    report = json.loads(out.read_text())
    spans_path = tmp / "spans.jsonl"
    report["spans"] = (
        [json.loads(line) for line in spans_path.read_text().splitlines()]
        if spans_path.is_file() else []
    )
    return report


def per_layer_metrics(report: Dict) -> Dict[str, float]:
    totals: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {}, "probes": {}}
    for span in report["spans"]:
        for section, values in totals.items():
            for key, value in span.get(section, {}).items():
                values[key] = values.get(key, 0) + value
    traced_wall = report["traced"]["wall_s"]
    metrics = layers.layer_metrics(totals)
    for name in layers.TIME_METRIC.values():
        metrics[name[:-2] + "_share"] = metrics[name] / traced_wall
    metrics.update(report["summary"])
    parallel_wall = metrics["sim.parallel.wall_s"]
    metrics["sim.parallel.worker_utilization"] = (
        report["traced"]["cell_seconds"] / (suite.PARALLEL_JOBS * parallel_wall)
        if parallel_wall else 0.0
    )
    metrics["bench.trace_overhead_pct"] = (
        traced_wall / statistics.median(report["wall_s"]) - 1
    ) * 100
    metrics["bench.unattributed_frac"] = (
        traced_wall - sum(totals["self_s"].values())
    ) / traced_wall
    return metrics


def measure(name: str, args) -> Dict:
    """One workload's record: metrics with units and samples, cell counts."""
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    try:
        report = run_worker(name, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if "error" in report:
        return {"attempted": 1, "failed": 1, "errors": [report["error"]],
                "verified": False, "metrics": {}, "digests": {}}
    samples = {
        "setup_s": report["setup_s"],
        "wall_s": report["wall_s"],
        "accesses_per_s": report["accesses_per_s"],
        "peak_rss_mb": [report["peak_rss_mb"]],
        "error_rate": [report["failed"] / report["attempted"]],
    }
    metrics = {}
    if args.trace != 1:
        for metric in END_TO_END + (ERROR_RATE,):
            values = samples[metric.name]
            metrics[metric.name] = {
                "value": reduce(metric, values), "unit": metric.unit,
                "n": len(values), "samples": values,
            }
    if args.trace != 0:
        layer_values = per_layer_metrics(report)
        for metric in PER_LAYER:
            metrics[metric.name] = {"value": layer_values[metric.name], "unit": metric.unit}
    return {
        "attempted": report["attempted"],
        "failed": report["failed"],
        "errors": report["errors"],
        "verified": report["verified"],
        "metrics": metrics,
        "digests": report["digests"],
        "spans": report["spans"],
    }


def printed_metrics(args) -> List[Metric]:
    """The metrics the final JSON line carries."""
    if args.trace == 0:
        return list(END_TO_END)
    if args.trace == 1:
        return list(contract_per_layer())
    return list(END_TO_END) + [ERROR_RATE] + list(PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(suite.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    when = parser.add_mutually_exclusive_group()
    when.add_argument("--repeats", type=int, default=5)
    when.add_argument("--seconds", type=float,
                      help="time the repeats for this long instead")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: per-layer only")
    parser.add_argument("--json", type=Path, help="write the full record here")
    parser.add_argument("--pin", action="store_true",
                        help="add this run's cell digests to expected.json")
    args = parser.parse_args(argv)
    if args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats and --seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = args.workload or list(suite.WORKLOADS)
    shown = printed_metrics(args)
    records = {}
    try:
        for name in names:
            print(f"[bench] {name} ...", file=sys.stderr, flush=True)
            records[name] = measure(name, args)
    finally:
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()

    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    final: Dict[str, Dict] = {}
    for name, record in records.items():
        status = "verified" if record["verified"] else "unverified"
        print(f"{name}: {record['attempted']} operations, {record['failed']} failed, "
              f"digests {status}")
        for error in record["errors"]:
            print(f"  {error}")
        for metric in shown:
            entry = record["metrics"].get(metric.name)
            if entry is None:
                continue
            print(f"  {metric.name:<40} {entry['value']:>16.6g} {metric.unit}")
            key = metric.name if len(names) == 1 else f"{name}.{metric.name}"
            final[key] = {"value": entry["value"], "unit": metric.unit}

    if args.json is not None:
        args.json.write_text(json.dumps({
            "schema": 1,
            "created_unix": time.time(),
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "cpu_count": os.cpu_count()},
            "seed": args.seed,
            "repeats": None if args.seconds is not None else args.repeats,
            "seconds": args.seconds,
            "workloads": records,
        }, indent=1) + "\n")
    if args.pin:
        if failed:
            print("error: not pinning a run with failed cells", file=sys.stderr)
        else:
            digest.pin({k: v for r in records.values() for k, v in r["digests"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
