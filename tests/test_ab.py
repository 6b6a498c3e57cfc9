"""The paired A/B tool's statistics, run order, record checks and arm
set-up, and its exact counts."""

import ast
import importlib.util
import json
import math
import py_compile
import random
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_PATH = REPO / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_binom_cdf_matches_direct_sums():
    assert ab.binom_cdf(0, 8) == 1 / 256
    assert ab.binom_cdf(1, 8) == 9 / 256
    assert ab.binom_cdf(8, 8) == 1.0
    assert math.isclose(ab.binom_cdf(4, 9), 0.5)


def test_no_interval_below_six_pairs():
    # 2 * (1/2)^5 > 5%: five pairs cannot give a 95% interval.
    assert ab.sign_test_interval([0.5, 0.6, 0.7, 0.8, 0.9]) is None
    assert ab.verdict(None, "lower") == "unresolved"


def test_eight_pairs_span_min_to_max():
    ratios = [0.61, 0.55, 0.70, 0.58, 0.66, 0.63, 0.59, 0.64]
    interval = ab.sign_test_interval(ratios)
    assert (interval.low, interval.high) == (0.55, 0.70)
    assert math.isclose(interval.confidence, 1 - 2 / 256)


def test_ten_pairs_drop_one_value_at_each_end():
    ratios = [float(i) for i in range(1, 11)]
    interval = ab.sign_test_interval(ratios)
    assert (interval.low, interval.high) == (2.0, 9.0)
    assert math.isclose(interval.confidence, 1 - 2 * 11 / 1024)


def test_interval_coverage_is_at_least_nominal():
    for n in range(6, 40):
        interval = ab.sign_test_interval(list(range(n)))
        assert interval.confidence >= 0.95
        # One more value off each end would fall below 95%.
        k = interval.low + 1
        assert 1 - 2 * ab.binom_cdf(k, n) < 0.95 or k >= n // 2


def test_verdict_follows_direction():
    below = ab.Interval(0.5, 0.9, 0.99)
    above = ab.Interval(1.1, 1.5, 0.99)
    straddle = ab.Interval(0.9, 1.1, 0.99)
    assert ab.verdict(below, "lower") == "faster"
    assert ab.verdict(below, "higher") == "slower"
    assert ab.verdict(above, "higher") == "faster"
    assert ab.verdict(above, "lower") == "slower"
    assert ab.verdict(straddle, "lower") == "unresolved"
    assert ab.verdict(below, "lower", "peak_rss_mb") == "smaller"
    assert ab.verdict(above, "lower", "peak_rss_mb") == "larger"


def test_abba_order():
    assert ab.order(3) == [
        (0, "base"), (0, "new"), (1, "new"), (1, "base"), (2, "base"), (2, "new"),
    ]


def test_incorrect_record_is_refused():
    ok = '{"correct": true, "attempted": 4, "failed": 0, "metrics": {"wall_s": {"value": 1.5}}}'
    bad = '{"correct": false, "attempted": 4, "failed": 1, "metrics": {}}'
    assert ab.parse_record("noise\n" + ok, "x") == {"wall_s": 1.5}
    with pytest.raises(ValueError, match="not correct"):
        ab.parse_record(bad, "pair 1 new")
    with pytest.raises(ValueError, match="no output"):
        ab.parse_record("", "pair 1 base")


def test_a_against_a_is_unresolved():
    """Two sides drawn from one noisy distribution: no verdict."""
    rng = random.Random(7)
    metrics = ab.end_to_end_metrics()
    draw = lambda: {name: rng.lognormvariate(0, 0.2) for name, _ in metrics}
    base = [draw() for _ in range(10)]
    new = [draw() for _ in range(10)]
    report = ab.summarize(base, new, metrics)
    assert {entry["verdict"] for entry in report.values()} == {"unresolved"}


def test_a_clear_speedup_is_resolved():
    metrics = [("wall_s", "lower"), ("accesses_per_s", "higher")]
    base = [{"wall_s": 2.0 + i / 10, "accesses_per_s": 100.0} for i in range(8)]
    new = [{"wall_s": 1.2 + i / 10, "accesses_per_s": 160.0} for i in range(8)]
    report = ab.summarize(base, new, metrics)
    assert report["wall_s"]["verdict"] == "faster"
    assert report["accesses_per_s"]["verdict"] == "faster"
    assert "median ratio" in ab.render(report)


#: A stand-in ``bench/run.py``: its record reports whether ``helper`` was
#: read from cached bytecode (``setup_s`` 2, else 1) and the seed it got
#: (``wall_s``).
FAKE_RUN = '''\
import importlib.util, json, os, sys
spec = importlib.util.find_spec("helper")
from_cache = os.path.exists(spec.cached)
import helper
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    "setup_s": {"value": 2.0 if from_cache else 1.0},
    "wall_s": {"value": float(seed)},
}}))
'''


def fake_checkout(root, cached: bool):
    bench = root / "bench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(FAKE_RUN)
    (bench / "helper.py").write_text("VALUE = 1\n")
    (root / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "setup_s", "better": "lower"},'
        ' {"name": "wall_s", "better": "lower"}]}'
    )
    if cached:
        py_compile.compile(str(bench / "helper.py"), doraise=True)
    return root


def run_ab(tmp_path, capsys, *args):
    base = fake_checkout(tmp_path / "base", cached=True)
    new = fake_checkout(tmp_path / "new", cached=False)
    assert ab.main([str(base), str(new), "--workload", "w", "--pairs", "3",
                    "--out", str(tmp_path / "out"), *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_seed_reaches_each_arm(tmp_path, capsys):
    report = run_ab(tmp_path, capsys, "--seed", "7")
    assert report["seed"] == 7
    pairs = [tuple(pair) for pair in report["metrics"]["wall_s"]["pairs"]]
    assert pairs == [(7.0, 7.0)] * 3


def test_arms_share_one_bytecode_cache_state(tmp_path, capsys, monkeypatch):
    """Only the base holds ``__pycache__`` and bytecode writing is off, the
    state that once read a start-up-only slowdown; both arms still read
    their own bytecode alike: cold on their first run, cached after."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    report = run_ab(tmp_path, capsys)
    pairs = [tuple(pair) for pair in report["metrics"]["setup_s"]["pairs"]]
    assert pairs == [(1.0, 1.0), (2.0, 2.0), (2.0, 2.0)]
    assert not any((tmp_path / "out").glob("pycache-*"))


# -- exact counts -------------------------------------------------------------


def test_counter_counts_calls_and_bytecodes():
    def leaf():
        x = 0  # LOAD_CONST, STORE_FAST
        return x  # LOAD_FAST, RETURN_VALUE

    counter = ab.WorkCounter()
    with counter:
        for _ in range(3):
            leaf()
        len("ab")
    functions = counter.functions()
    key = f"{leaf.__module__}:{leaf.__qualname__}"
    assert functions[key] == {"bytecodes": 12, "calls": 3, "c_calls": 0}
    # The C call (len) is charged to the frame making it, and the frame
    # that was running when counting began is not traced.
    layers = counter.layers(lambda module: "mine" if module == leaf.__module__ else None)
    assert layers["mine"] == {"bytecodes": 12, "calls": 3, "c_calls": 1}


#: A one-cell benchmark suite: a short Triage run, so a counted repeat
#: takes a second.
TINY_SUITE = """\
from typing import Callable, NamedTuple, Tuple


class Workload(NamedTuple):
    run: Callable
    why: str
    imports: Tuple[str, ...]


def tiny(run, seed):
    from repro.experiments import common

    run.cell(f"mcf|triage_1mb|600|{seed}", 600, common.run_single,
             "mcf", "triage_1mb", n=600, seed=seed)


WORKLOADS = {"tiny": Workload(tiny, "", ())}
"""


def counting_checkout(root: Path) -> Path:
    """This repository's simulator and bench worker, with the tiny suite."""
    shutil.copytree(REPO / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (root / "bench").mkdir()
    for name in ("worker.py", "digest.py", "layers.py", "expected.json"):
        shutil.copy(REPO / "bench" / name, root / "bench" / name)
    (root / "bench" / "run.py").write_text("")
    (root / "bench" / "suite.py").write_text(TINY_SUITE)
    return root


def plant_in_update(root: Path) -> None:
    """Add ``planted = 0`` (two bytecodes) as ``MetadataStore.update``'s
    first statement after its docstring."""
    path = root / "src" / "repro" / "core" / "metadata_store.py"
    source = path.read_text()
    tree = ast.parse(source)
    (store,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "MetadataStore"]
    (update,) = [n for n in store.body if isinstance(n, ast.FunctionDef) and n.name == "update"]
    first = update.body[1]
    lines = source.splitlines(keepends=True)
    lines.insert(first.lineno - 1, " " * first.col_offset + "planted = 0\n")
    path.write_text("".join(lines))


@pytest.fixture(scope="module")
def checkouts(tmp_path_factory):
    root = tmp_path_factory.mktemp("counts")
    base = counting_checkout(root / "base")
    planted = counting_checkout(root / "planted")
    plant_in_update(planted)
    return base, planted


def run_counts(tmp_path, capsys, base, new):
    out = tmp_path / "out"
    code = ab.main([str(base), str(new), "--workload", "tiny", "--counts", "--out", str(out)])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    records = {side: json.loads((out / f"counts-{side}.json").read_text())
               for side in ("base", "new")}
    return code, report, records


def test_a_against_a_counts_are_exact(checkouts, tmp_path, capsys):
    base, _ = checkouts
    code, report, records = run_counts(tmp_path, capsys, base, base)
    assert code == 0
    assert records["base"]["failed"] == 0
    assert report["counts"]["core.metadata_store"]["bytecodes"]["base"] > 0
    ratios = {row["ratio"] for layer in report["counts"].values() for row in layer.values()}
    assert ratios == {1.0}
    gcs = report["gc_collections"]
    assert gcs["base"] == gcs["new"]


def test_planted_statement_moves_only_its_layer(checkouts, tmp_path, capsys):
    base, planted = checkouts
    code, report, records = run_counts(tmp_path, capsys, base, planted)
    assert code == 0
    calls = records["base"]["functions"]["repro.core.metadata_store:MetadataStore.update"]["calls"]
    assert calls > 0
    for layer, kinds in report["counts"].items():
        for kind, row in kinds.items():
            moved = row["new"] - row["base"]
            if kind == "bytecodes" and layer in ("core.metadata_store", "total"):
                assert moved == 2 * calls, layer
            else:
                assert moved == 0, (layer, kind)
