"""In-memory spans recorded around public calls, and what is derived from them.

A span is a dict with ``id``, ``name``, ``start``, ``end`` (perf_counter
seconds), ``parent`` (id or None), ``op`` (the op it belongs to) and any
attributes the caller adds.  Spans marked ``replay`` re-run a lower layer
on an op's data after the op ended; they lie outside their parent's
interval, so they never reduce its self time.  Spans opened while
``calibrating`` is set are marked ``calibration``: they time a layer the
ops never reached and count only where no op span of that kind exists.
"""

import json
import statistics
import time
from contextlib import contextmanager

_FROM_STACK = object()


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.calibrating = False
        self._stack = []
        # Data the current op hands to the post-op replay.
        self.propagates = []
        self.distances = []

    @contextmanager
    def span(self, name, parent=_FROM_STACK, **attrs):
        if parent is _FROM_STACK:
            parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent, "op": self.op,
               **attrs}
        if self.calibrating:
            rec["calibration"] = True
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def duration(rec):
    return rec["end"] - rec["start"]


def self_times(spans):
    """Self time of every span: its duration minus that of its direct
    children inside its interval (replays excluded)."""
    child_time = {}
    for rec in spans:
        if rec["parent"] is not None and not rec.get("replay"):
            child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + duration(rec)
    return {rec["id"]: duration(rec) - child_time.get(rec["id"], 0.0) for rec in spans}


def _median(values, scale):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans, n_ops):
    """The per-layer metrics of a traced run.  Per-call values are medians
    over the ops' calls, or over calibration calls where the ops made none;
    per-op counts come from the ops alone."""
    by_name = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)
    selfs = self_times(spans)

    def calls(name, **match):
        found = [r for r in by_name.get(name, ())
                 if all(r.get(k) == v for k, v in match.items())]
        ops = [r for r in found if not r.get("calibration")]
        return ops or found

    def op_calls(name):
        return [r for r in by_name.get(name, ()) if not r.get("calibration")]

    def per_call(name, scale, **match):
        return _median([duration(r) for r in calls(name, **match)], scale)

    # propagate minus the replayed build and expm of its own segments.
    replayed = {}
    for name in ("hamiltonian.build", "linalg.expm"):
        for r in calls(name, replay=True):
            replayed[r["parent"]] = replayed.get(r["parent"], 0.0) + duration(r)
    props = {r["id"]: r for r in calls("evolution.propagate")}
    prop_self = [duration(props[i]) - t for i, t in replayed.items() if i in props]

    compiles = op_calls("pulsecompiler.compile")
    rk4 = calls("evolution.rk4")
    expm_calls = sum(r["segments"] for r in op_calls("evolution.propagate"))
    expm_calls += sum(r["segments"] for r in op_calls("pulsecompiler.verify"))
    per_op = 1.0 / max(n_ops, 1)
    metrics = {
        "linalg.expm_calls": (expm_calls * per_op, "count"),
        "linalg.expm_us": (per_call("linalg.expm", 1e6), "us"),
        "linalg.eigh_us": (per_call("linalg.eigh", 1e6), "us"),
        "linalg.distance_us": (per_call("linalg.distance", 1e6), "us"),
        "hamiltonian.build_us": (per_call("hamiltonian.build", 1e6), "us"),
        "evolution.propagate_ms": (per_call("evolution.propagate", 1e3), "ms"),
        "evolution.propagate_self_ms": (_median(prop_self, 1e3), "ms"),
        "evolution.rk4_ms": (per_call("evolution.rk4", 1e3), "ms"),
        "evolution.rk4_steps": (_median([r["steps"] for r in rk4], 1.0), "count"),
        "evolution.rk4_ns_per_step": (
            _median([duration(r) / r["steps"] for r in rk4], 1e9), "ns"),
        "pulsecompiler.compile_ms.gated": (
            per_call("pulsecompiler.compile", 1e3, mode="gated"), "ms"),
        "pulsecompiler.compile_ms.always_on": (
            per_call("pulsecompiler.compile", 1e3, mode="always_on"), "ms"),
    }
    for decade in ("r1e-3", "r1e-2", "r1e-1"):
        metrics[f"pulsecompiler.compile_ms.always_on.{decade}"] = (
            per_call("pulsecompiler.compile", 1e3, mode="always_on", decade=decade), "ms")
    ok = [r for r in compiles if "error" not in r]
    metrics.update({
        "pulsecompiler.segments": (sum(r["segments"] for r in ok) * per_op, "count"),
        "pulsecompiler.schedule_T": (sum(r["T"] for r in ok) * per_op, "1/a_ref"),
        "pulsecompiler.compile_errors": (len(compiles) - len(ok), "count"),
        "pulsecompiler.verify_ms": (per_call("pulsecompiler.verify", 1e3), "ms"),
        "experiments.run_sweep_ms": (per_call("experiments.run_sweep", 1e3), "ms"),
        "experiments.self_ms": (
            _median([selfs[r["id"]] for r in calls("experiments.run_sweep")], 1e3), "ms"),
        "cli.emit_csv_ms": (per_call("cli.emit_csv", 1e3), "ms"),
        "cli.csv_bytes": (_median([r["bytes"] for r in calls("cli.emit_csv")], 1.0),
                          "bytes"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def layer_shares(spans, untraced_s):
    """Self time of each layer summed over the op spans, and its share of the
    untraced time of the same ops.  Replays and calibration are left out:
    they are not part of any op's interval."""
    selfs = self_times(spans)
    totals = {}
    for rec in spans:
        if rec.get("replay") or rec.get("calibration"):
            continue
        name = rec["name"]
        if name == "pulsecompiler.compile":
            name = f"{name}.{rec['mode']}"
        totals[name] = totals.get(name, 0.0) + selfs[rec["id"]]
    return {name: {"self_s": t, "share": t / untraced_s} for name, t in totals.items()}
