"""capqubit benchmark: one command for every workload's metrics.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints every end-to-end metric by name and unit; with
``--trace 1`` a traced run prints per-layer metrics and each layer's share
of the op time.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

This file uses the standard library only.  The workload runs in a worker
process that imports capqubit from this checkout's ``src`` with the BLAS
thread pool pinned to one thread; set-up time is measured on fresh
interpreters started one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Same as workloads.WORKLOADS, which this stdlib-only launcher does not import.
WORKLOADS = ("sweep_gated", "sweep_always_on", "gate_lists", "crosscheck_rk4")
SETUP_REPEATS = 9
BLAS_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# The layers each workload was chosen to exercise, as (label, share names).
DOMINANT = {
    "sweep_gated": ("gated compile + propagate",
                    ("pulsecompiler.compile.gated", "evolution.propagate")),
    "sweep_always_on": ("always-on compile", ("pulsecompiler.compile.always_on",)),
    "gate_lists": ("always-on compile", ("pulsecompiler.compile.always_on",)),
    "crosscheck_rk4": ("propagate_rk4", ("evolution.rk4",)),
}


class BenchError(RuntimeError):
    pass


def bench_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PIN)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(env):
    """Median wall time of fresh interpreters importing capqubit.cli.  One
    unmeasured start first writes the bytecode cache."""
    cmd = [sys.executable, "-c", "import capqubit.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"importing capqubit.cli failed:\n{done.stderr.decode()}")
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(workload, seed, seconds, trace, env):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=2 * seconds + 60)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker timed out after {exc.timeout} s") from None
    if done.returncode != 0:
        raise BenchError(f"{workload}: worker failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _fmt(value):
    return f"{value:.6g}"


def print_report(rep, setup_s):
    env = rep["environment"]
    pins = set(env["blas_threads"].values())
    threads = f"{pins.pop()} thread(s)" if len(pins) == 1 else env["blas_threads"]
    print(f"== {rep['workload']} (seed {env['seed']})")
    print(f"environment: {env['cpu_model']}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']} ({env['blas']}, "
          f"{threads}), commit {env['git_commit']}, "
          f"sources sha256 {env['source_sha256'][:16]}")
    canon = rep["canonical_sweep"]
    verdict = "PASS" if canon["pass"] else f"FAIL {canon.get('reason', '')}"
    print(f"canonical sweep CSV: sha256 {canon['sha256']}, max column deviation "
          f"{_fmt(canon.get('max_column_deviation', float('nan')))} "
          f"(tolerance {canon['tolerance']:g}): {verdict}")
    print(f"ops attempted {rep['attempted']}, failed {rep['failed']}, "
          f"failed_frac {_fmt(rep['failed'] / rep['attempted'])}")
    for reason in rep["failures"]:
        print(f"  failure: {reason}")
    if setup_s is not None:
        print(f"  setup_s     = {_fmt(setup_s)} s (median of {SETUP_REPEATS} "
              f"fresh interpreters importing capqubit.cli)")
    if "trace" in rep:
        print_trace(rep)
        return
    for name, m in rep["metrics"].items():
        print(f"  {name:<11} = {_fmt(m['value'])} {m['unit']}")
    tail = rep["tail"]
    print(f"  op_tail_ms  = {_fmt(tail['op_tail_ms'])} ms (p{tail['percentile']:.2f}: "
          f"{tail['beyond']} of {tail['samples']} ops beyond it; not registered)")


def print_trace(rep):
    tr = rep["trace"]
    print(f"traced {tr['ops']} ops after the same ops untraced: tracing overhead "
          f"{100 * tr['overhead']:.1f}%, spans cover {100 * tr['coverage']:.1f}% "
          f"of the untraced op time (spans in {tr['spans_file']})")
    print("layer self time, share of untraced op time:")
    for name, s in sorted(tr["shares"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<34} {s['self_s']:9.4f} s  {100 * s['share']:5.1f}%")
    if rep["workload"] in DOMINANT:
        label, names = DOMINANT[rep["workload"]]
        share = sum(tr["shares"].get(n, {"share": 0.0})["share"] for n in names)
        verdict = "confirmed" if share > 0.5 else "NOT confirmed"
        print(f"intended dominant layer, {label}: {100 * share:.1f}% -> {verdict}")
    print("per-layer metrics:")
    for name, m in rep["metrics"].items():
        print(f"  {name:<42} {_fmt(m['value'])} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "capqubit" / "__init__.py").is_file():
        print(f"error: no capqubit package under {SRC}", file=sys.stderr)
        return 2

    env = bench_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        setup_s = None if args.trace else measure_setup(env)
        reports = [run_worker(n, args.seed, args.seconds, args.trace, env) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = {}
    for rep in reports:
        print_report(rep, setup_s)
        metrics = dict(rep["metrics"])
        if setup_s is not None:
            metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
        results[rep["workload"]] = metrics
    if len(reports) == 1:
        metrics = results[args.workload]
    else:
        metrics = {f"{w}.{k}": v for w, m in results.items() for k, v in m.items()}
    print(json.dumps({
        "correct": all(rep["correct"] for rep in reports),
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": sum(rep["failed"] for rep in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
