"""Interleaved benchmark pairs: one commit against another, seed by seed.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload pencil-scale \
        --seeds 901-910 --out BENCH_8.json

For every seed the unchanged ``bench/run.py --seconds 15 --trace 0`` runs once
in each tree, alternating which tree runs first, and the last JSON line of
each run is read. For every end-to-end metric in CHANGE_DIR's
``BENCHMARK.json`` the summary gives both sides' median and quartiles and the
number of pairs the change wins (ties count for neither side), whether the
change's median is past the metric's bound (worse than the parent's median by
more than ``bound`` times it, in the direction ``better`` gives), whether it
shows a gain (``gain_shown``: the change wins at least 9 of 10 pairs and its
median is better than the parent's by more than the parent's interquartile
range), whether it is ``unresolved`` (the parent's interquartile range is wider
than ``bound`` times its median and not every change run beats every parent
run). It also gives each side's ``failed`` count and ``failed_share`` (failed
over attempted ops, summed over its runs), and ``more_failed`` when the
change's share exceeds the parent's. ``--workload`` may be repeated.
``--out`` writes the summaries, the machine, the two trees compared and every
run's metrics as JSON. The machine block names the numpy and scipy versions
and the BLAS thread settings, because the oracle's values depend on them. Each
tree is named by its git commit, when it has one, and by a digest of the files
a benchmark run builds from, which names it with or without git.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 15
SIDES = ("parent", "change")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_bench(tree, workload, seed):
    """The last JSON line of one benchmark run in ``tree``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def describe_tree(tree):
    """The tree's ``path``, its git ``commit`` (``git rev-parse HEAD``) and
    whether ``git status --porcelain`` lists anything (``dirty``); both are
    None outside a git work tree."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return done.stdout if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    return {"path": str(tree), "commit": commit.strip() if commit else None,
            "dirty": bool(git("status", "--porcelain")) if commit else None}


def tree_digest(tree):
    """SHA-256 over the path relative to ``tree`` and the bytes of every file
    under ``src/`` and ``bench/`` and of ``BENCHMARK.json``, in path order,
    ``__pycache__`` skipped."""
    tree = Path(tree)
    files = [p for p in (tree / "BENCHMARK.json", *(tree / "src").rglob("*"),
                         *(tree / "bench").rglob("*"))
             if p.is_file() and "__pycache__" not in p.parts]
    digest = hashlib.sha256()
    for rel, path in sorted((p.relative_to(tree).as_posix(), p) for p in files):
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def describe_machine():
    """Platform, CPU count, the Python, numpy and scipy versions (read from
    package metadata, importing neither) and each BLAS thread variable, None
    when unset."""
    return {"platform": platform.platform(), "processor": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            **{dist: importlib.metadata.version(dist) for dist in ("numpy", "scipy")},
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def summarize(runs, metrics):
    """Per metric: both sides' (q1, median, q3), the change's wins and losses,
    whether the medians differ by more than the parent's IQR in either
    direction, whether the change shows a gain (wins at least 9/10 of the
    pairs and its median is better by more than the parent's IQR), whether
    the change's median is worse than the parent's by more than the bound,
    and whether the parent's spread is too wide for the bound to decide
    (its IQR exceeds the bound, and not every change run beats every parent
    run)."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [tuple(r[side]["metrics"][name]["value"] for side in SIDES) for r in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        losses = sum((c > p) if lower else (c < p) for p, c in pairs)
        ps, cs = ([pair[i] for pair in pairs] for i in range(2))
        q = {"parent": quartiles(ps), "change": quartiles(cs)}
        p_med, c_med = q["parent"][1], q["change"][1]
        worse, iqr = c_med - p_med if lower else p_med - c_med, q["parent"][2] - q["parent"][0]
        dominates = max(cs) < min(ps) if lower else min(cs) > max(ps)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **{side: dict(zip(("q1", "median", "q3"), q[side])) for side in SIDES},
            "change_wins": wins, "change_losses": losses, "pairs": len(pairs),
            "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > iqr,
            "gain_shown": wins >= 0.9 * len(pairs) and -worse > iqr,
            "past_bound": worse > m["bound"] * abs(p_med),
            "unresolved": iqr > m["bound"] * abs(p_med) and not dominates,
        }
    return out


def failures(runs):
    """Each side's ``failed`` count and ``failed_share``, the sum of its runs'
    failed ops over the sum of their attempted ops, and ``more_failed``:
    whether the change's share exceeds the parent's. The two sides attempt
    different numbers of ops, so only the shares compare."""
    failed = {side: sum(r[side]["failed"] for r in runs) for side in SIDES}
    share = {side: failed[side] / sum(r[side]["attempted"] for r in runs) for side in SIDES}
    return {"failed": failed, "failed_share": share,
            "more_failed": share["change"] > share["parent"]}


def run_pairs(trees, workload, seeds, metrics):
    runs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_bench(trees[side], workload, seed)
        runs.append(run)
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{side} failed={run[side]['failed']}" for side in SIDES), flush=True)
    summary = summarize(runs, metrics)
    print(f"{'metric':<14}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}  {'wins':>5}  "
          "gain_shown  past_bound  unresolved")
    for name, s in summary.items():
        cols = ["/".join(f"{s[side][k]:.4g}" for k in ("q1", "median", "q3")) for side in SIDES]
        wins = f"{s['change_wins']}/{s['pairs']}"
        print(f"{name:<14}{cols[0]:>34}{cols[1]:>34}  {wins:>5}  "
              + "  ".join(f"{'yes' if s[k] else 'no':>{len(k)}}"
                          for k in ("gain_shown", "past_bound", "unresolved")))
    fails = failures(runs)
    print("failed: " + ", ".join(
        f"{side} {fails['failed'][side]} (share {fails['failed_share'][side]:.4g})"
        for side in SIDES) + ("  more_failed" if fails["more_failed"] else ""))
    return {**fails, "summary": summary, "runs": runs}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True,
                   help="repeat to run several workloads, one after another")
    p.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # named before the runs, so the names are those of the code that ran
    named = {side: {**describe_tree(tree), "digest": tree_digest(tree)}
             for side, tree in trees.items()}
    results = {w: run_pairs(trees, w, args.seeds, metrics) for w in args.workload}
    if args.out:
        doc = {
            "command": f"bench/run.py --seconds {SECONDS} --trace 0", "seeds": args.seeds,
            "machine": describe_machine(), "trees": named, "workloads": results,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
