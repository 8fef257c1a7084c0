"""tracemin benchmark: one client in one process, one op at a time.

Run from the repository root:

    python3 bench/run.py --workload pencil-scale --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics. Every output
is checked against the generator's closed-form truth. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the report. A full record
(environment, metrics, failures) goes to ``.bench_out/`` in the repository
root. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

# BLAS threads are pinned before NumPy is first imported, here and in every
# child process, which inherits this environment.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 3     # fresh processes, this one included
IMPORT_SAMPLES = 3
SWEEP_N = (64, 128, 256)
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"), ("op_s_p50", "s"), ("op_s_tail", "s"), ("ops_per_s", "1/s"),
    ("cli_wall_s", "s"), ("peak_rss_mb", "MB"),
)

PER_OP = "count/op"
S_PER_OP = "s/op"
PER_LAYER_SPANS = (
    # (metric, span name, field, unit); fields are per op of the traced block
    ("spectral.as_herm.calls", "spectral.as_herm", "calls", PER_OP),
    ("spectral.as_herm.self_s", "spectral.as_herm", "self_s", S_PER_OP),
    ("spectral.inertia.calls", "spectral.inertia", "calls", PER_OP),
    ("spectral.inertia.self_s", "spectral.inertia", "self_s", S_PER_OP),
    ("definite.pencil_eig_definite.self_s", "definite.pencil_eig_definite", "self_s", S_PER_OP),
    ("definite.split_omegas.self_s", "definite.split_omegas", "self_s", S_PER_OP),
    ("definite.solve_definite_min.self_s", "definite.solve_definite_min", "self_s", S_PER_OP),
    ("pencil.find_lambda0.calls", "pencil.find_lambda0", "calls", PER_OP),
    ("pencil.find_lambda0.self_s", "pencil.find_lambda0", "self_s", S_PER_OP),
    ("pencil.finite_eigenvalues.calls", "pencil.finite_eigenvalues", "calls", PER_OP),
    ("pencil.finite_eigenvalues.self_s", "pencil.finite_eigenvalues", "self_s", S_PER_OP),
    ("indefinite.solve.self_s", "indefinite.solve", "self_s", S_PER_OP),
    ("indefinite.solve_indefinite_plus.self_s", "indefinite.solve_indefinite_plus", "self_s", S_PER_OP),
    ("indefinite.solve_indefinite_minus.self_s", "indefinite.solve_indefinite_minus", "self_s", S_PER_OP),
    ("indefinite.solve_signature.self_s", "indefinite.solve_signature", "self_s", S_PER_OP),
    ("oracle.local_search.calls", "oracle.local_search", "calls", PER_OP),
    ("oracle.local_search.self_s", "oracle.local_search", "self_s", S_PER_OP),
    ("linalg.eigvalsh.calls", "linalg.eigvalsh", "calls", PER_OP),
    ("linalg.eigvalsh.self_s", "linalg.eigvalsh", "self_s", S_PER_OP),
    ("linalg.eigh.calls", "linalg.eigh", "calls", PER_OP),
    ("linalg.eigh.self_s", "linalg.eigh", "self_s", S_PER_OP),
    ("linalg.svd.calls", "linalg.svd", "calls", PER_OP),
    ("linalg.svd.self_s", "linalg.svd", "self_s", S_PER_OP),
    ("linalg.qz.calls", "linalg.qz", "calls", PER_OP),
    ("linalg.solve.calls", "linalg.solve", "calls", PER_OP),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the set-up time (used for the set-up samples)")
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# set-up and ops
# --------------------------------------------------------------------------


def setup(workload, seed):
    """Import the package from this checkout, generate the inputs and run one
    warm-up op. Returns (tracemin, workloads module, workload, instances,
    constraint specs, seconds taken, warm-up result)."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    tm = importlib.import_module("tracemin")
    if not Path(tm.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported tracemin from {tm.__file__}, not from {SRC}")
    wls = importlib.import_module("workloads")
    if workload not in wls.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; choose from {', '.join(wls.WORKLOADS)}")
    wl = wls.WORKLOADS[workload]
    insts = wl.make(seed)
    specs = [wls.constraint_spec(tm, inst) for inst in insts]
    warm = run_op(wl, partial(wl.op, tm), insts[0], specs[0])
    return tm, wls, wl, insts, specs, perf_counter() - t0, warm


def run_op(wl, op, inst, spec):
    """Time one op; returns (seconds, output, failure reason or None)."""
    t = perf_counter()
    try:
        out = op(inst, spec)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return perf_counter() - t, None, f"{inst.name}: {type(exc).__name__}: {exc}"
    dt = perf_counter() - t
    why = wl.check(inst, out)
    return dt, out, why and f"{inst.name}: {why}"


def op_loop(wl, op, insts, specs, seconds, start=0, whole_passes=False):
    """Closed loop over the instances in order, from index ``start``, until
    ``seconds`` have passed; with ``whole_passes`` it stops only at the end
    of a pass over all of them. At least one op (one pass) runs. Returns (op
    seconds, (instance, output) pairs, failures)."""
    times, outs, fails = [], [], []
    t_end = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < t_end or (whole_passes and i % len(insts)):
        j = (start + i) % len(insts)
        dt, out, why = run_op(wl, op, insts[j], specs[j])
        times.append(dt)
        outs.append((insts[j], out))
        if why:
            fails.append(why)
        i += 1
    return times, outs, fails


def tail(times):
    """The op time with ten samples beyond it, its percentile and the number
    of samples beyond it; with ten or fewer samples, the slowest."""
    s = sorted(times)
    n = len(s)
    i = n - 11 if n > 10 else n - 1
    return s[i], 100.0 * (i + 1) / n, n - i - 1


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def write_problems(wl, insts, seed):
    d = OUT / f"problems-{wl.name}-{seed}"
    d.mkdir(parents=True, exist_ok=True)
    files = []
    for j in wl.cli_files:
        path = d / f"{insts[j].name}.json"
        insts[j].write_problem(path)
        files.append((j, path))
    return d, files


def cli_call(wl, inst, path):
    """One fresh `python -m tracemin.cli` run on a problem file. Returns
    (wall seconds, failure reason or None)."""
    cmd = [sys.executable, "-m", "tracemin.cli", wl.cli_args[0], str(path), *wl.cli_args[1:]]
    t = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - t, f"cli {inst.name}: timed out"
    wall = perf_counter() - t
    why = check_cli(wl, inst, proc.returncode, proc.stdout or proc.stderr)
    return wall, why and f"cli {inst.name}: {why}"


def check_cli(wl, inst, code, out):
    try:
        return wl.cli_check(inst, code, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def cli_in_process(tracer, wl, insts, files):
    """cli.main on each problem file inside a root span named "cli", its
    report captured and checked. Returns failures."""
    cli = importlib.import_module("tracemin.cli")
    fails = []
    for j, path in files:
        buf = io.StringIO()
        argv = [wl.cli_args[0], str(path), *wl.cli_args[1:]]
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = tracer.span("cli", cli.main, argv)
            except Exception as exc:  # report it as a failed output, keep going
                fails.append(f"cli.main {insts[j].name}: {type(exc).__name__}: {exc}")
                continue
        why = check_cli(wl, insts[j], code, buf.getvalue())
        if why:
            fails.append(f"cli.main {insts[j].name}: {why}")
    return fails


def child_seconds(cmd, key):
    """A timing that a fresh child process prints as its last line."""
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])[key])


def import_seconds():
    code = ("import json, time; t = time.perf_counter(); import tracemin.cli; "
            "print(json.dumps({'import_s': time.perf_counter() - t}))")
    return statistics.median(
        child_seconds([sys.executable, "-c", code], "import_s") for _ in range(IMPORT_SAMPLES))


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------


def end_to_end_run(args, tm, wl, insts, specs, setup_first, warm):
    """The op loop is cut into one slice per CLI run, and each slice is
    followed by that CLI run; the set-up probes fall between slices too. Ops,
    CLI runs and set-ups are so sampled across the whole run, and a slow
    spell of the machine weighs on all of them alike."""
    pdir, files = write_problems(wl, insts, args.seed)
    calls = [files[c % len(files)] for c in range(wl.cli_runs)]
    probe_after = {len(calls) * (i + 1) // SETUP_SAMPLES - 1 for i in range(SETUP_SAMPLES - 1)}
    probe = [sys.executable, str(HERE / "run.py"), "--workload", wl.name,
             "--seed", str(args.seed), "--setup-probe"]
    times, slices, walls, setups = [], [], [], [setup_first]
    fails = [warm[2]] if warm[2] else []
    try:
        for c, (j, path) in enumerate(calls):
            t, _outs, f = op_loop(wl, partial(wl.op, tm), insts, specs, args.seconds / len(calls),
                                  start=len(times))
            times += t
            slices.append(t)
            fails += f
            wall, why = cli_call(wl, insts[j], path)
            walls.append(wall)
            if why:
                fails.append(why)
            if c in probe_after:
                setups.append(child_seconds(probe, "setup_s"))
    finally:
        shutil.rmtree(pdir, ignore_errors=True)

    t_tail, pct, beyond = tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "op_s_tail": t_tail,
        "ops_per_s": len(times) / sum(times),
        "cli_wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    extra = {
        "ops": len(times),
        "op_s_tail_percentile": pct,
        "op_s_tail_samples_beyond": beyond,
        "setup_s_samples": setups,
        "op_s_by_slice": slices,
        "cli_wall_s_by_run": walls,
    }
    return metrics, extra, 1 + len(times) + len(calls), fails


def traced_run(args, tm, wls, wl, insts, specs, warm):
    from tracer import Tracer

    # whole passes over the first block, so per-op figures do not depend on
    # how many ops fit in the time
    block, bspecs = insts[:wl.block], specs[:wl.block]
    half = args.seconds / 2.0
    ref_times, _outs, fails = op_loop(
        wl, partial(wl.op, tm), block, bspecs, half, whole_passes=True)
    if warm[2]:
        fails.append(warm[2])
    sweep = [(n, wls.instances.sweep_instance(args.seed, n)) for n in SWEEP_N]
    pdir, files = write_problems(wl, insts, args.seed)

    tracer = Tracer()
    tracer.install()
    try:
        tr_times, outs, tr_fails = op_loop(
            wl, lambda inst, spec: tracer.span("op", wl.op, tm, inst, spec),
            block, bspecs, half, whole_passes=True)
        fails += tr_fails
        fails += cli_in_process(tracer, wl, insts, files)
        for n, inst in sweep:
            try:
                an = tracer.span(f"sweep.n{n}", tm.finite_eigenvalues, inst.a, inst.b)
            except Exception as exc:  # a failed analysis is a failed output
                fails.append(f"sweep n={n}: {type(exc).__name__}: {exc}")
                continue
            if not (an.diagonalizable
                    and an.lambda_plus.shape == inst.lambda_plus.shape
                    and an.lambda_minus.shape == inst.lambda_minus.shape
                    and abs(an.lambda_plus - inst.lambda_plus).max() <= wls.LAMBDA_ATOL
                    and abs(an.lambda_minus - inst.lambda_minus).max() <= wls.LAMBDA_ATOL):
                fails.append(f"sweep n={n}: pencil analysis disagrees with the canonical form")
    finally:
        tracer.uninstall()
        shutil.rmtree(pdir, ignore_errors=True)

    n_ops = len(tr_times)
    ops = tracer.summary(tracer.roots("op"))
    cli_roots = tracer.roots("cli")
    cli = tracer.summary(cli_roots)
    values = {}
    for metric, span, field, unit in PER_LAYER_SPANS:
        values[metric] = (ops[span][field] / n_ops, unit)

    iters = sum(out[1].iterations for _inst, out in outs if isinstance(out, tuple))
    ls_total = ops["oracle.local_search"]["total_s"]
    unb = [out[1].unbounded_flag for inst, out in outs
           if isinstance(out, tuple) and not inst.finite]
    values["oracle.iterations"] = (iters / n_ops, PER_OP)
    values["oracle.us_per_iter"] = (1e6 * ls_total / iters if iters else 0.0, "us")
    values["oracle.unbounded_detected_ratio"] = (
        sum(unb) / len(unb) if unb else 0.0, "ratio")

    n_cli = max(len(cli_roots), 1)
    values["cli.import_s"] = (import_seconds(), "s")
    for metric, span in (("cli.load_problem.self_s", "cli.load_problem"),
                         ("cli.main.self_s", "cli.main")):
        values[metric] = (cli[span]["self_s"] / n_cli, "s/call")
    values["cli.finite_eigenvalues.calls_per_solve"] = (
        cli["pencil.finite_eigenvalues"]["calls"] / n_cli, "count/call")

    for n, _inst in sweep:
        roots = tracer.roots(f"sweep.n{n}")
        s = tracer.summary(roots)
        values[f"pencil.finite_eigenvalues.s_n{n}"] = (s["pencil.finite_eigenvalues"]["total_s"], "s")
        values[f"linalg.svd.calls_n{n}"] = (s["linalg.svd"]["calls"], "count")

    values["trace.overhead_s"] = (
        statistics.median(tr_times) - statistics.median(ref_times), "s")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    attempted = 1 + len(ref_times) + n_ops + len(files) + len(sweep)
    extra = {"traced_ops": n_ops, "reference_ops": len(ref_times),
             "cli_calls": len(cli_roots), "spans": len(tracer.spans)}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}.jsonl")
    return metrics, extra, attempted, fails


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tracemin" / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {SRC / 'tracemin'}; "
                 "run from the root of a repository checkout")
    if args.setup_probe:
        *_rest, seconds, _warm = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    tm, wls, wl, insts, specs, setup_s, warm = setup(args.workload, args.seed)
    if args.trace:
        metrics, extra, attempted, fails = traced_run(args, tm, wls, wl, insts, specs, warm)
    else:
        metrics, extra, attempted, fails = end_to_end_run(
            args, tm, wl, insts, specs, setup_s, warm)

    env = environment()
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "metrics": metrics, "details": extra, "failures": fails}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  ({wl.why})")
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print("details " + json.dumps({k: v for k, v in extra.items() if not isinstance(v, list)}))
    print(f"fail_rate {len(fails) / attempted:.6g} ({len(fails)} of {attempted})")
    for why in fails[:20]:
        print(f"  FAILED {why}")
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": len(fails), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
