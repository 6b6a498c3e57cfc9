"""Golden regression tests for the figure harnesses.

Small checked-in JSON summaries of figure tables (single-core Figures
1, 5, 6 and 11, the multi-core Figure 16 mixes, and two extensions) at a
reduced test scale, asserted cell-by-cell against a fresh harness run.  The
simulation is deterministic, so any drift here means a code change
*silently* altered reported results -- exactly what a performance-
oriented PR must not do.  If a change alters results **intentionally**
(a modeling fix, a new default), regenerate with::

    PYTHONPATH=src python tests/test_golden_figures.py --regen

and explain the delta in the commit message.

These tests deliberately honor an ambient ``REPRO_JOBS`` (the CI matrix
runs them with 2 worker processes), so in that leg they double as an
end-to-end check that parallel fan-out reproduces the serial goldens.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from repro import cache
from repro.experiments import common
from repro.experiments import ext_engine_validation as ext_engines
from repro.experiments import ext_triangel_headtohead as ext_triangel
from repro.experiments import fig01_reuse as fig01
from repro.experiments import fig05_irregular_speedup as fig05
from repro.experiments import fig06_coverage_accuracy as fig06
from repro.experiments import fig11_offchip_comparison as fig11
from repro.experiments import fig16_multicore_mixes as fig16

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Trace length for golden runs (per core for multi-core figures): big
#: enough for warmup + steady-state epochs, small enough to keep each
#: figure within a few seconds of test time.
GOLDEN_N = 4_000

#: fig01 fixes its own quick trace length (120,000 accesses), so its
#: golden pins that length rather than GOLDEN_N.
FIGURES = {
    "fig01": fig01,
    "fig05": fig05,
    "fig06": fig06,
    "fig11": fig11,
    "fig16": fig16,
    "ext_triangel": ext_triangel,
    "ext_engines": ext_engines,
}

#: Cross-platform slack for libm differences (exp/log in geomeans); any
#: real modeling change moves results orders of magnitude more.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def compute_summary(module) -> dict:
    """One figure's table at golden scale, as JSON-friendly data."""
    common.clear_caches()
    saved = common.N_SINGLE_QUICK, common.N_MULTI_QUICK
    common.N_SINGLE_QUICK = common.N_MULTI_QUICK = GOLDEN_N
    try:
        table = module.run(quick=True)
    finally:
        common.N_SINGLE_QUICK, common.N_MULTI_QUICK = saved
        common.clear_caches()
    return {
        "n_accesses": GOLDEN_N,
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
    }


def assert_matches_golden(summary: dict, golden: dict, name: str) -> None:
    assert summary["n_accesses"] == golden["n_accesses"], (
        f"{name}: golden was generated at n={golden['n_accesses']}; "
        f"regenerate after changing GOLDEN_N"
    )
    assert summary["headers"] == golden["headers"], f"{name}: headers changed"
    assert len(summary["rows"]) == len(golden["rows"]), f"{name}: row count changed"
    for row_idx, (got_row, want_row) in enumerate(
        zip(summary["rows"], golden["rows"])
    ):
        assert len(got_row) == len(want_row)
        for col_idx, (got, want) in enumerate(zip(got_row, want_row)):
            where = (
                f"{name} row {row_idx} ({want_row[0]!r}), "
                f"column {golden['headers'][col_idx]!r}"
            )
            if isinstance(want, (int, float)) and not isinstance(want, bool):
                assert isinstance(got, (int, float)), where
                assert math.isclose(
                    got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL
                ), f"{where}: {got!r} != golden {want!r}"
            else:
                assert got == want, f"{where}: {got!r} != golden {want!r}"


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    """Goldens must come from fresh simulation, never a stale disk tier."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    cache.configure(None)
    yield
    cache.configure(None)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_reproduces_golden(name):
    golden_path = GOLDEN_DIR / f"{name}.json"
    golden = json.loads(golden_path.read_text())
    summary = compute_summary(FIGURES[name])
    assert_matches_golden(summary, golden, name)


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, module in sorted(FIGURES.items()):
        summary = compute_summary(module)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {path} ({len(summary['rows'])} rows)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
