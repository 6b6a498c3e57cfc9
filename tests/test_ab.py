"""The paired A/B tool's statistics, run order and record checks."""

import importlib.util
import math
import random
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
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
