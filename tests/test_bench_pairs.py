import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def _runs(parent, change):
    """Synthetic pairs: parent[i] and change[i] map metric names to values."""
    return [{side: {"metrics": {k: {"value": v} for k, v in values.items()}}
             for side, values in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("factor, past", [
    # change/parent medians: lower is better for op_s_p50 and peak_rss_mb,
    # higher for ops_per_s
    (1.0, {"op_s_p50": False, "ops_per_s": False, "peak_rss_mb": False}),
    (1.04, {"op_s_p50": False, "ops_per_s": False, "peak_rss_mb": False}),
    (1.06, {"op_s_p50": False, "ops_per_s": False, "peak_rss_mb": True}),
    (1.3, {"op_s_p50": True, "ops_per_s": False, "peak_rss_mb": True}),
    (0.7, {"op_s_p50": False, "ops_per_s": True, "peak_rss_mb": False}),
])
def test_summarize_flags_a_median_past_its_bound(factor, past):
    parent = [{"op_s_p50": 0.02 + 0.001 * i, "ops_per_s": 40.0 + i, "peak_rss_mb": 80.0 + i}
              for i in range(5)]
    change = [{k: v * factor for k, v in p.items()} for p in parent]
    summary = bench_pairs.summarize(_runs(parent, change), METRICS)
    assert {name: s["past_bound"] for name, s in summary.items()} == past
    for s in summary.values():
        assert s["pairs"] == 5
        assert s["change"]["median"] == pytest.approx(factor * s["parent"]["median"])


def test_summarize_counts_wins_and_quartiles():
    parent = [{"op_s_p50": v, "ops_per_s": 10.0, "peak_rss_mb": 80.0}
              for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"op_s_p50": v, "ops_per_s": 10.0, "peak_rss_mb": 80.0}
              for v in (0.5, 2.5, 3.0, 3.5, 4.5)]
    s = bench_pairs.summarize(_runs(parent, change), METRICS)
    assert (s["op_s_p50"]["change_wins"], s["op_s_p50"]["change_losses"]) == (3, 1)
    assert s["op_s_p50"]["parent"] == {"q1": 1.5, "median": 3.0, "q3": 4.5}
    assert not s["op_s_p50"]["median_gap_exceeds_parent_iqr"]
    assert not s["op_s_p50"]["past_bound"]
    # equal runs: no wins, no losses, nothing past a bound
    assert (s["ops_per_s"]["change_wins"], s["ops_per_s"]["change_losses"]) == (0, 0)
    assert not any(s[m]["past_bound"] for m in ("ops_per_s", "peak_rss_mb"))
