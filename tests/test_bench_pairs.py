import importlib.metadata
import importlib.util
import shutil
import subprocess
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


@pytest.mark.parametrize("factors, gain", [
    # every pair 20 % faster: wins 10/10 and the median moves past the IQR
    ([0.8] * 10, True),
    # the same move the wrong way: past the IQR too, but no gain
    ([1.2] * 10, False),
    # as fast in the median, but the change wins only 8 of 10 pairs
    ([0.8] * 8 + [1.3] * 2, False),
])
def test_summarize_shows_a_gain_only_for_a_win_past_the_parent_iqr(factors, gain):
    parent = [{"op_s_p50": 0.02 + 0.0002 * i, "ops_per_s": 40.0 + 0.2 * i,
               "peak_rss_mb": 80.0} for i in range(10)]
    change = [{"op_s_p50": p["op_s_p50"] * f, "ops_per_s": p["ops_per_s"] / f,
               "peak_rss_mb": 80.0} for p, f in zip(parent, factors)]
    s = bench_pairs.summarize(_runs(parent, change), METRICS)
    for name in ("op_s_p50", "ops_per_s"):
        assert s[name]["median_gap_exceeds_parent_iqr"]
        assert s[name]["gain_shown"] is gain
    # equal runs show no gain
    assert not s["peak_rss_mb"]["gain_shown"]


@pytest.mark.parametrize("spread, change_factor, unresolved", [
    # parent runs within 1 % of each other: every bound decides
    (0.002, 1.0, False),
    # parent IQR of about 55 % of its median, wider than the 25 % and 5 % bounds
    (0.5, 1.0, True),
    # as wide, but every change run beats every parent run
    (0.5, 0.3, False),
])
def test_summarize_flags_a_spread_wider_than_the_bound_as_unresolved(
        spread, change_factor, unresolved):
    offsets = [(i - 4.5) * spread / 4.5 for i in range(10)]
    parent = [{"op_s_p50": 0.02 * (1 + o), "ops_per_s": 40.0 * (1 + o),
               "peak_rss_mb": 80.0 * (1 + o)} for o in offsets]
    # the change reverses the order, so no pair is tied by construction
    change = [{"op_s_p50": p["op_s_p50"] * change_factor,
               "ops_per_s": p["ops_per_s"] / change_factor,
               "peak_rss_mb": p["peak_rss_mb"] * change_factor} for p in parent[::-1]]
    s = bench_pairs.summarize(_runs(parent, change), METRICS)
    assert {name: v["unresolved"] for name, v in s.items()} == dict.fromkeys(s, unresolved)


@pytest.mark.parametrize("parent, change, shares, more", [
    # the change fails fewer ops but attempts far fewer: its share is larger
    ([(2, 400), (0, 400)], [(1, 100), (0, 100)], (0.0025, 0.005), True),
    # as many failures over twice the ops: a smaller share
    ([(1, 100), (1, 100)], [(1, 200), (1, 200)], (0.01, 0.005), False),
    # no failures on either side
    ([(0, 50)], [(0, 70)], (0.0, 0.0), False),
])
def test_failures_compare_shares_not_counts(parent, change, shares, more):
    runs = [{"parent": {"failed": pf, "attempted": pa}, "change": {"failed": cf, "attempted": ca}}
            for (pf, pa), (cf, ca) in zip(parent, change)]
    out = bench_pairs.failures(runs)
    assert out["failed"] == {"parent": sum(f for f, _ in parent),
                             "change": sum(f for f, _ in change)}
    assert (out["failed_share"]["parent"], out["failed_share"]["change"]) == pytest.approx(shares)
    assert out["more_failed"] is more


def test_describe_tree_names_the_commit_and_whether_it_is_dirty(tmp_path):
    plain, repo = tmp_path / "plain", tmp_path / "repo"
    plain.mkdir()
    assert bench_pairs.describe_tree(plain) == {"path": str(plain), "commit": None,
                                                "dirty": None}
    repo.mkdir()
    (repo / "a.txt").write_text("a\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "a.txt"], ["commit", "-q", "-m", "a"]):
        subprocess.run(git + args, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()
    assert bench_pairs.describe_tree(repo) == {"path": str(repo), "commit": head,
                                               "dirty": False}
    (repo / "a.txt").write_text("b\n")
    assert bench_pairs.describe_tree(repo)["dirty"] is True


def test_tree_digest_names_the_benchmarked_files(tmp_path):
    # a copy shares the digest, with or without git and compiled caches; a
    # one-byte edit under src/ or bench/ or to BENCHMARK.json changes it
    tree = tmp_path / "tree"
    for rel, text in (("BENCHMARK.json", "{}\n"), ("src/pkg/mod.py", "x = 1\n"),
                      ("bench/run.py", "print(1)\n"), ("README.md", "notes\n")):
        (tree / rel).parent.mkdir(parents=True, exist_ok=True)
        (tree / rel).write_text(text)
    digest = bench_pairs.tree_digest(tree)
    assert bench_pairs.describe_tree(tree)["commit"] is None
    assert len(digest) == 64
    copy = tmp_path / "copy"
    shutil.copytree(tree, copy)
    (copy / "src" / "pkg" / "__pycache__").mkdir()
    (copy / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"\0")
    (copy / "README.md").write_text("other notes\n")
    assert bench_pairs.tree_digest(copy) == digest
    for rel in ("BENCHMARK.json", "src/pkg/mod.py", "bench/run.py"):
        path = copy / rel
        original = path.read_bytes()
        path.write_bytes(original[:-1] + b"\r")
        assert bench_pairs.tree_digest(copy) != digest, rel
        path.write_bytes(original)
    assert bench_pairs.tree_digest(copy) == digest


def test_describe_machine_names_the_builds_and_thread_settings(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    machine = bench_pairs.describe_machine()
    assert (machine["OPENBLAS_NUM_THREADS"], machine["OMP_NUM_THREADS"],
            machine["MKL_NUM_THREADS"]) == ("1", "2", None)
    assert machine["numpy"] == importlib.metadata.version("numpy")
    assert machine["scipy"] == importlib.metadata.version("scipy")
    assert {"platform", "processor", "cpus", "python"} <= machine.keys()
