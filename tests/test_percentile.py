"""Regression tests for the shared nearest-rank percentile helper.

The old ``int(round(q * (n - 1)))`` picker used banker's rounding, so
the element chosen for p50/p95 depended on list-length *parity*
(``round(0.5) == 0`` but ``round(1.5) == 2``).  ``repro.obs.percentile``
is the single owner of the fix; these tests pin the ceil-based
nearest-rank definition and that every consumer (serve KPIs, waterfall
trace pick) routes through it.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.percentile import nearest_rank, nearest_rank_index


def test_nearest_rank_is_classic_definition():
    # rank = ceil(q * n), 1-based, over the sorted sample.
    values = [10, 20, 30, 40]
    assert nearest_rank(values, 0.50) == 20
    assert nearest_rank(values, 0.95) == 40
    assert nearest_rank(values, 0.25) == 10
    assert nearest_rank(values, 1.0) == 40


def test_nearest_rank_parity_independent():
    # The banker's-rounding bug: round(0.5)=0 but round(1.5)=2, so the
    # median of [1,2] and [1,2,3,4] disagreed about which "side" to take.
    # Nearest-rank always picks the ceil(q*n)-th element regardless of
    # parity: the median of n samples is element ceil(n/2).
    for n in range(1, 50):
        values = list(range(n))
        assert nearest_rank(values, 0.50) == values[math.ceil(0.5 * n) - 1]
        assert nearest_rank(values, 0.95) == values[
            min(max(math.ceil(0.95 * n), 1), n) - 1
        ]


def test_nearest_rank_always_a_sample_element():
    values = [0.25, 1.5, 3.75]
    for q in (0.0, 0.01, 0.5, 0.95, 0.99, 1.0):
        assert nearest_rank(values, q) in values


def test_nearest_rank_index_bounds():
    assert nearest_rank_index(1, 0.0) == 0
    assert nearest_rank_index(1, 1.0) == 0
    assert nearest_rank_index(10, 0.0) == 0  # rank clamps up to 1
    assert nearest_rank_index(10, 1.0) == 9
    with pytest.raises(ValueError):
        nearest_rank_index(0, 0.5)


def test_loadgen_quantile_uses_nearest_rank():
    from repro.serve.loadgen import LoadtestReport

    report = LoadtestReport(shape="ramp", duration_s=1.0)
    report.latencies_s = [0.004, 0.001, 0.003, 0.002]  # unsorted on purpose
    assert report._quantile(0.50) == 0.002
    assert report._quantile(0.95) == 0.004
    assert LoadtestReport(shape="ramp", duration_s=1.0)._quantile(0.5) == 0.0


def test_waterfall_p95_pick_uses_nearest_rank():
    from repro.obs.reporting.waterfall import p95_trace_id

    # 20 single-span traces with duration == index; nearest-rank p95 of
    # 20 samples is the 19th ranked duration (18.0), not the max.
    traces = {
        f"t{i:02d}": [
            {"trace_id": f"t{i:02d}", "span_id": "s", "parent_id": "",
             "start": 0.0, "end": float(i), "name": "root"}
        ]
        for i in range(20)
    }
    assert p95_trace_id(traces) == "t18"
    assert p95_trace_id({}) is None
