import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import digest
import run
import suite
import worker
from compare import verdict
from test_digest import _result

ROOT = Path(__file__).resolve().parent.parent


def test_child_env_strips_repro_knobs():
    env = run.child_env({
        "REPRO_ENGINE": "batched", "REPRO_JOBS": "4", "REPRO_CACHE_DIR": "/x",
        "PATH": "/usr/bin", "PYTHONHASHSEED": "random",
    })
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PATH"] == "/usr/bin"
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == str(ROOT / "src")


def _boom():
    raise RuntimeError("cell blew up")


def test_error_rate_counts_raised_and_mismatched_cells(tmp_path):
    good = _result()
    pinned = {"a|none|1|1": digest.digest(good), "b|none|1|1": "0" * 64}
    one = worker.Run(tmp_path)
    one.cell("a|none|1|1", 1, lambda: good)
    one.cell("b|none|1|1", 1, lambda: good)  # digest differs from its pin
    one.cell("c|none|1|1", 1, _boom)
    one.check("an invariant", True)
    checker = worker.Checker(pinned)
    checker.check(one)
    assert one.attempted == 4
    assert checker.failed == 2
    assert checker.verified is True
    assert any("cell blew up" in e for e in checker.errors)
    assert any(e.startswith("b|none|1|1: digest") for e in checker.errors)


def test_unpinned_cells_fall_back_to_determinism(tmp_path):
    checker = worker.Checker({})
    for cycles in (10.0, 10.0, 11.0):
        again = worker.Run(tmp_path)
        again.cell("x|none|1|9", 1, lambda: _result(cycles=cycles))
        checker.check(again)
    assert checker.verified is False
    assert checker.failed == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, w.why) for name, w in suite.WORKLOADS.items()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in run.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in run.contract_per_layer()
    ]


def _fingerprint():
    files = sorted((ROOT / "results").rglob("*")) + sorted(ROOT.glob("BENCH_*.json"))
    return {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files if p.is_file()
    }


def test_a_run_writes_nothing_into_the_repo():
    before = _fingerprint()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "irregular_temporal", "--repeats", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in run.END_TO_END}
    assert _fingerprint() == before
    assert not (ROOT / ".bench_tmp").exists()


def test_without_the_simulator_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "irregular_temporal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_flags_regressions_and_noise():
    wall = run.END_TO_END[1]
    assert verdict(wall, [1.0, 1.01, 0.99], [1.5, 1.49, 1.51])[0] == "regression"
    assert verdict(wall, [1.0, 1.01, 0.99], [1.05, 1.04, 1.06])[0] == "ok"
    assert verdict(wall, [1.0, 2.0, 0.5, 1.5], [1.0, 1.0, 1.0])[0] == "unresolved"
    assert verdict(run.ERROR_RATE, [0.0], [0.01])[0] == "regression"
