"""Closed-loop measurement of one workload, untraced or traced.

One caller, no think time: each op starts when the previous op and its check
have finished.  Only the op is timed; its oracle check runs between ops.  The
loop stops at the first round boundary after `seconds` of wall time.

Untraced runs give the end-to-end metrics.  A traced run executes every op
twice, untraced and inside the tracer, so its per-layer figures and the
tracing overhead come from the same inputs in the same process.  Which copy
runs first alternates from op to op and from round to round, so warm caches
favour neither side.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import tracing
from workloads import clear_library_caches

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETUP_REPEATS = 3
# relative errors below this are reported as this, so accuracy_digits stays finite
ERROR_FLOOR = 1e-17


def metric_spec() -> dict[str, Any]:
    return json.loads(SPEC_FILE.read_text())


def _setup(workload, repeats: int, import_s: float) -> tuple[float, int]:
    """Median set-up time over cold repeats, plus the one-off import time."""
    times = []
    for _ in range(repeats):
        clear_library_caches()
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return import_s + statistics.median(times), repeats


def _timed(op) -> tuple[Any, float, bool]:
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception:  # an op that raises counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - t0, False
    return out, time.perf_counter() - t0, True


def _checked(op, out) -> float:
    """The op's relative error; inf when the check raises or is not finite."""
    try:
        err = float(op.check(out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return math.inf
    return err if math.isfinite(err) else math.inf


def _run_op(op, tracer: tracing.Tracer | None, op_id: str) -> tuple[float, bool, float]:
    """Time one op and check it; with a tracer, both inside spans of `op_id`."""
    if tracer is None:
        out, dt, ok = _timed(op)
        return dt, ok, _checked(op, out) if ok else math.inf
    tracer.op, tracer.phase = op_id, tracing.OP
    with tracer.active():
        sid = tracer.begin(f"op.{op.kind}")
        out, dt, ok = _timed(op)
        tracer.end(sid, failed=not ok)
        tracer.phase = tracing.CHECK
        return dt, ok, _checked(op, out) if ok else math.inf


def measure(workload, seconds: float, trace: bool, import_s: float = 0.0,
            setups: int = SETUP_REPEATS) -> dict[str, Any]:
    """Run one workload; returns the result record (metrics, samples, spans)."""
    tracer = tracing.Tracer() if trace else None
    with tracer.active() if tracer else contextlib.nullcontext():
        setup_s, setup_n = _setup(workload, setups, import_s)

    latencies: list[float] = []     # timed op durations (traced ones if tracing)
    untraced: list[float] = []      # the paired untraced durations, traced runs only
    attempted = failed = 0
    worst = 0.0
    t_loop = time.perf_counter()
    i = 0
    while True:
        for k, op in enumerate(workload.round(i)):
            attempted += 1
            untraced_first = (i + k) % 2 == 0
            if tracer is not None and untraced_first:
                untraced.append(_timed(op)[1])
            dt, ok, err = _run_op(op, tracer, f"{i}.{attempted}")
            if tracer is not None and not untraced_first:
                untraced.append(_timed(op)[1])
            latencies.append(dt)
            if not ok or err > op.gate:
                failed += 1
            else:
                worst = max(worst, err)
        i += 1
        if time.perf_counter() - t_loop >= seconds:
            break

    spec = metric_spec()
    if tracer is None:
        samples = {"op_p50_s": len(latencies), "setup_s": setup_n}
        busy = sum(latencies)
        values = {
            "ops_per_s": (attempted - failed) / busy,
            "op_p50_s": statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
            "accuracy_digits": -math.log10(max(worst, ERROR_FLOOR)),
            "pass_frac": 1.0 - failed / attempted,
        }
        names = spec["end_to_end"]
    else:
        values = tracing.layer_metrics(tracer.spans, len(latencies), setup_n)
        selfs = tracing.self_times(tracer.spans)
        op_busy = sum(s.end - s.start for s in tracer.spans
                      if s.parent is None and s.phase == tracing.OP)
        for layer in ("hilbert.commutant", "hilbert.solve_multipliers"):
            busy = [t for s, t in zip(tracer.spans, selfs)
                    if s.name == layer and s.phase == tracing.OP]
            if busy:
                values[f"{layer}.busy_share"] = sum(busy) / op_busy
        values["trace.op_p50_s"] = statistics.median(latencies)
        values["trace.overhead_s"] = statistics.median(latencies) - statistics.median(untraced)
        values["trace.spans_per_op"] = sum(
            s.phase in (tracing.OP, tracing.CHECK) for s in tracer.spans) / len(latencies)
        values["trace.ops"] = float(len(latencies))
        names = spec["per_layer"]
        samples = {"trace.op_p50_s": len(latencies), "trace.overhead_s": len(untraced)}
    missing = [m["name"] for m in names if m["name"] not in values]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in names}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "latencies_s": latencies,
        "not_exercised": missing,
        "spans": tracer.to_jsonl() if tracer is not None else "",
    }
