"""Paired A/B timing of two checkouts on one benchmark workload, or an
exact count of the work each one does.

Usage:
  python tools/ab.py BASE NEW --workload W [--pairs N] [--seed N]
                     [--repeats R | --seconds S] [--out DIR]
  python tools/ab.py BASE NEW --workload W --counts [--seed N] [--out DIR]

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

With ``--counts`` each checkout instead runs the workload once more in
a fresh interpreter (``PYTHONHASHSEED=0``), after a warmup repeat and
``clear_caches()``, counting what that repeat executes: Python calls and
C calls (``sys.setprofile``) and bytecodes (``sys.settrace`` opcode
events), each charged to the layer of the code object it runs in
through that checkout's ``repro.obs.layers.layer_of`` (``outside`` for
frames outside ``repro``: the harness, the standard library).  Garbage
collections per generation come from an untraced repeat in between,
since tracing allocates frame objects of its own.  Calls made in worker
processes are not counted.  The counts are exact, so one counted run
per side resolves a step any size; the report gives each layer's
NEW/BASE ratio.  BASE and NEW naming the same checkout is an A/A run:
any ratio other than exactly 1 exits 1, since the counts would then not
be deterministic.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from collections import Counter
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


# -- exact counts ----------------------------------------------------------

#: The counts kept per code object, in report order.
KINDS = ("bytecodes", "calls", "c_calls")
#: The layer of frames outside ``repro``.
OUTSIDE = "outside"

#: The ``--counts`` child: ``python -c _CHILD TOOLS_DIR CHECKOUT WORKLOAD SEED``.
_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ab; "
    "ab.count_child(sys.argv[2], sys.argv[3], int(sys.argv[4]))"
)


class WorkCounter:
    """While active: Python calls charged to the callee's code object, C
    calls to the caller's, and bytecodes to the code running them."""

    def __init__(self):
        #: code object -> [bytecodes, calls, c_calls] (see :data:`KINDS`).
        self.by_code: Dict[object, List[int]] = {}
        #: code object -> the ``__name__`` of its module.
        self.modules: Dict[object, Optional[str]] = {}
        self._tracers: Dict[object, object] = {}

    def _cell(self, frame) -> List[int]:
        code = frame.f_code
        cell = self.by_code.get(code)
        if cell is None:
            cell = self.by_code[code] = [0, 0, 0]
            self.modules[code] = frame.f_globals.get("__name__")
        return cell

    def _profile(self, frame, event, arg):
        if event == "call":
            self._cell(frame)[1] += 1
        elif event == "c_call":
            self._cell(frame)[2] += 1

    def _trace(self, frame, event, arg):
        # A new frame: count its opcodes, not its lines.
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        tracer = self._tracers.get(frame.f_code)
        if tracer is None:
            cell = self._cell(frame)

            def tracer(frame, event, arg):
                if event == "opcode":
                    cell[0] += 1
                return tracer

            self._tracers[frame.f_code] = tracer
        return tracer

    def __enter__(self) -> "WorkCounter":
        sys.setprofile(self._profile)
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        sys.setprofile(None)

    def functions(self) -> Dict[str, Dict[str, int]]:
        """Counts per ``module:qualname`` (code objects sharing one summed)."""
        out: Dict[str, Counter] = {}
        for code, cell in self.by_code.items():
            qualname = getattr(code, "co_qualname", code.co_name)
            key = f"{self.modules[code]}:{qualname}"
            out.setdefault(key, Counter()).update(dict(zip(KINDS, cell)))
        return {key: dict(counts) for key, counts in out.items()}

    def layers(self, layer_of) -> Dict[str, Dict[str, int]]:
        """Counts per layer, ``layer_of(module)`` naming it."""
        out: Dict[str, Counter] = {}
        for code, cell in self.by_code.items():
            layer = layer_of(self.modules[code]) or OUTSIDE
            out.setdefault(layer, Counter()).update(dict(zip(KINDS, cell)))
        return {layer: {kind: counts[kind] for kind in KINDS} for layer, counts in out.items()}


def gc_collections() -> List[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def count_child(checkout: str, workload: str, seed: int) -> None:
    """One side of ``--counts``, in its own interpreter: a warmup repeat,
    an untraced repeat for the garbage collections, then the counted
    repeat, each with the results checked as ``bench/run.py`` checks
    them.  Prints the record as one JSON line."""
    root = Path(checkout)
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import digest
    import suite
    import worker
    from repro.experiments import common
    from repro.obs.layers import layer_of

    spec = suite.WORKLOADS[workload]
    checker = worker.Checker(digest.load_expected())
    tmp = Path(tempfile.mkdtemp(prefix="ab-counts-"))
    try:
        worker.timed(spec, seed, worker.Run(tmp))
        collections = []
        counter = WorkCounter()
        for counted in (False, True):
            run = worker.Run(tmp)
            common.clear_caches()
            gc.collect()
            before = gc_collections()
            if counted:
                with counter:
                    spec.run(run, seed)
                    run.summary()
            else:
                spec.run(run, seed)
                run.summary()
                collections = [a - b for a, b in zip(gc_collections(), before)]
            checker.check(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "failed": checker.failed,
        "errors": checker.errors[:20],
        "verified": checker.verified,
        "gc_collections": collections,
        "layers": counter.layers(layer_of),
        "functions": counter.functions(),
    }))


def run_counts(checkout: Path, workload: str, seed: int, env: Dict[str, str]) -> Dict:
    """One checkout's counted record; raises ``ValueError`` unless every
    cell ran and matched its digest."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent),
         str(checkout), workload, str(seed)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise ValueError(f"{checkout}: counting failed\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    if record["failed"]:
        raise ValueError(f"{checkout}: {record['failed']} operations failed: {record['errors']}")
    return record


def ratio(base: int, new: int) -> Optional[float]:
    """NEW/BASE, 1 for two zeros, None for a count only NEW has."""
    if base:
        return new / base
    return 1.0 if new == 0 else None


def compare_counts(base: Dict, new: Dict) -> Dict[str, Dict]:
    """Per layer (and ``total``) and kind: base, new and their ratio."""
    names = sorted(set(base["layers"]) | set(new["layers"]))
    zero = dict.fromkeys(KINDS, 0)
    rows = {name: (base["layers"].get(name, zero), new["layers"].get(name, zero))
            for name in names}
    rows["total"] = tuple(
        {kind: sum(side[kind] for side in record["layers"].values()) for kind in KINDS}
        for record in (base, new)
    )
    return {
        name: {kind: {"base": b[kind], "new": n[kind], "ratio": ratio(b[kind], n[kind])}
               for kind in KINDS}
        for name, (b, n) in rows.items()
    }


def render_counts(layers: Dict[str, Dict], base: Dict, new: Dict, top: int = 15) -> str:
    out = []
    for kind in KINDS:
        out.append(f"{kind} per layer")
        out.append(f"  {'layer':<22} {'base':>12} {'new':>12}  {'new/base':>10}")
        for name, entry in layers.items():
            row = entry[kind]
            shown = "new only" if row["ratio"] is None else f"{row['ratio']:.6f}"
            out.append(f"  {name:<22} {row['base']:>12} {row['new']:>12}  {shown:>10}")
    out.append(
        "gc collections per generation: base "
        f"{base['gc_collections']}, new {new['gc_collections']}"
    )
    moved = sorted(
        (new["functions"].get(key, {}).get("bytecodes", 0)
         - base["functions"].get(key, {}).get("bytecodes", 0), key)
        for key in set(base["functions"]) | set(new["functions"])
    )
    moved = [item for item in moved if item[0]]
    if moved:
        out.append(f"largest bytecode changes by function (of {len(moved)})")
        for delta, key in sorted(moved, key=lambda item: -abs(item[0]))[:top]:
            out.append(f"  {delta:>+12}  {key}")
    return "\n".join(out)


def main_counts(args, checkouts: Dict[str, Path]) -> int:
    out_dir = args.out or Path(tempfile.mkdtemp(prefix="ab-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    caches = Path(tempfile.mkdtemp(prefix="pycache-", dir=out_dir))
    records = {}
    try:
        for side, path in checkouts.items():
            print(f"[ab] counting {side} ...", file=sys.stderr, flush=True)
            env = {k: v for k, v in arm_env(caches / side).items()
                   if not k.startswith("REPRO_")}
            env["PYTHONHASHSEED"] = "0"
            try:
                records[side] = run_counts(path, args.workload, args.seed, env)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            (out_dir / f"counts-{side}.json").write_text(json.dumps(records[side]))
    finally:
        shutil.rmtree(caches, ignore_errors=True)
    layers = compare_counts(records["base"], records["new"])
    print(render_counts(layers, records["base"], records["new"]))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "counts": layers,
        "gc_collections": {side: records[side]["gc_collections"] for side in records},
    }))
    exact = all(row["ratio"] == 1 for entry in layers.values() for row in entry.values())
    exact = exact and records["base"]["gc_collections"] == records["new"]["gc_collections"]
    if checkouts["base"] == checkouts["new"] and not exact:
        print("error: an A/A count moved: the counts are not deterministic", file=sys.stderr)
        return 1
    return 0


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
    parser.add_argument("--counts", action="store_true",
                        help="count calls and bytecodes per layer instead of timing")
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
    if args.counts:
        return main_counts(args, checkouts)
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
