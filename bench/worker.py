"""Run one workload in this process and print its report as one JSON line.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread pool pinned to one thread.  Usage:

    worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import capqubit
from capqubit.cli import main as cli_main

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_CSV = BENCH_DIR / "reference_sweep.csv"

CANONICAL_ARGS = ["sweep", "--min", "0.001", "--max", "0.5", "--points", "50",
                  "--mode", "both"]
# Largest tolerated absolute change of any CSV column against the reference.
# A roundoff-level move (about 1.1e-10, expected when the eigensolver is
# replaced) passes; the acceptance bounds work on a 1e-3 scale.
CANONICAL_ABS_TOL = 1e-8
_ANGLE_COLUMNS = ("phase_rad", "phase_deviation_rad")

WARMUP_OPS = {"sweep_gated": 2, "sweep_always_on": 1, "gate_lists": 3,
              "crosscheck_rk4": 1}
TAIL_BEYOND = 10


def tail_rank(n):
    """Index (0-based, ascending order) and percentile of the highest rank
    with at least TAIL_BEYOND samples beyond it: the 11th largest of n.
    With too few samples for that, the largest."""
    index = max(n - TAIL_BEYOND - 1, 0) if n > TAIL_BEYOND else n - 1
    return index, 100.0 * (index + 1) / n


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest():
    """SHA-256 over the package sources, identifying the code without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_name():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(seed):
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {k: v for k, v in os.environ.items()
                         if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _read_csv(text):
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def csv_deviation(text, reference):
    """Largest absolute change per numeric column between two sweep CSVs
    (angle columns compared modulo 2 pi).  Raises ValueError when the
    header, the row count or a non-numeric column differs."""
    header, rows = _read_csv(text)
    ref_header, ref_rows = _read_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        raise ValueError("CSV header or row count differs from the reference")
    worst = {}
    for row, ref in zip(rows, ref_rows):
        for col, a, b in zip(header, row, ref):
            if col == "mode":
                if a != b:
                    raise ValueError(f"mode column differs: {a!r} vs {b!r}")
                continue
            diff = float(a) - float(b)
            if col in _ANGLE_COLUMNS:
                diff = math.remainder(diff, 2.0 * math.pi)
            worst[col] = max(worst.get(col, 0.0), abs(diff))
    return worst


def canonical_sweep():
    """Run the canonical CLI sweep once and compare it with the reference."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"canonical-{os.getpid()}.csv"
    try:
        status = cli_main(CANONICAL_ARGS + ["--out", str(path)])
        data = path.read_bytes()
    finally:
        path.unlink(missing_ok=True)
    record = {"sha256": hashlib.sha256(data).hexdigest(), "tolerance": CANONICAL_ABS_TOL}
    try:
        dev = csv_deviation(data.decode("ascii"), REFERENCE_CSV.read_text("ascii"))
    except ValueError as exc:
        return {**record, "pass": False, "reason": str(exc)}
    worst = max(dev.values())
    return {**record, "max_column_deviation": worst, "column_deviation": dev,
            "pass": status == 0 and worst <= CANONICAL_ABS_TOL}


def _attempt(name, inp):
    """One untraced op: its output (None if it raised), latency and failure."""
    t0 = time.perf_counter()
    try:
        out = workloads.run_op(name, inp)
    except Exception as exc:  # an op that raises counts as failed
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    return out, latency, workloads.check(name, inp, out)


def timed_loop(name, stream, seconds):
    """Closed loop with one client: op latencies and failure reasons."""
    latencies, failures = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        _out, latency, reason = _attempt(name, next(stream))
        latencies.append(latency)
        if reason is not None:
            failures.append(reason)
    return latencies, failures


def end_to_end(latencies, failures):
    """The registered end-to-end metrics, and the latency tail beside them.
    The tail is printed but not registered: on ops of even cost it measures
    the host's slow bursts, not the program."""
    n = len(latencies)
    index, pct = tail_rank(n)
    ordered = sorted(latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": {"value": (n - len(failures)) / math.fsum(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    return metrics, {"op_tail_ms": ordered[index] * 1e3, "percentile": pct,
                     "samples": n, "beyond": n - 1 - index}


def traced_run(name, stream, seconds, spans_path):
    """Each input runs untraced and then at once traced, so that both
    timings of an op see the same machine state."""
    tr = tracing.Tracer()
    untraced, traced, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        inp = next(stream)
        out, latency, reason = _attempt(name, inp)
        untraced.append(latency)
        if reason is not None:
            failures.append(reason)
        tr.op = len(traced)
        try:
            with tr.span("op") as op_span:
                traced_out = workloads.run_traced_op(name, tr, inp)
            reason = workloads.check(name, inp, traced_out)
            if (reason is None and name.startswith("sweep") and out is not None
                    and traced_out[1] != out[1]):
                reason = "traced sweep CSV differs from run_sweep's"
        except Exception as exc:  # an op that raises counts as failed
            reason = f"{type(exc).__name__}: {exc}"
        traced.append(tracing.duration(op_span))
        if reason is not None:
            failures.append(reason)
        workloads.replay(tr, tr.op)
    workloads.calibrate(tr)
    untraced_s = math.fsum(untraced)
    shares = tracing.layer_shares(tr.spans, untraced_s)
    op_self = shares.pop("op")["self_s"]
    summary = {
        "ops": len(traced),
        "untraced_s": untraced_s,
        "traced_s": math.fsum(traced),
        "overhead": math.fsum(traced) / untraced_s - 1.0,
        "coverage": (math.fsum(traced) - op_self) / untraced_s,
        "shares": shares,
    }
    OUT_DIR.mkdir(exist_ok=True)
    tr.write(spans_path)
    summary["spans_file"] = str(spans_path.relative_to(ROOT))
    # Every input is attempted twice, untraced and traced.
    return (tracing.layer_metrics(tr.spans, len(traced)), summary, 2 * len(traced),
            failures)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    pkg = Path(capqubit.__file__).resolve()
    if ROOT / "src" not in pkg.parents:
        raise SystemExit(f"capqubit imported from {pkg}, not from {ROOT / 'src'}")

    report = {"workload": args.workload, "environment": environment(args.seed)}
    report["canonical_sweep"] = canonical_sweep()
    stream = workloads.inputs(args.workload, args.seed)
    for _ in range(WARMUP_OPS[args.workload]):
        workloads.run_op(args.workload, next(stream))

    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, summary, attempted, failures = traced_run(
            args.workload, stream, args.seconds, spans_path)
        report["trace"] = summary
    else:
        latencies, failures = timed_loop(args.workload, stream, args.seconds)
        metrics, report["tail"] = end_to_end(latencies, failures)
        attempted = len(latencies)
    report.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "correct": not failures and report["canonical_sweep"]["pass"],
    })
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
