#!/usr/bin/env python3
"""Benchmark one hdqkit workload and print its metrics.

    python3 bench/run.py --workload star-n2 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports hdqkit from its `src/`.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of BENCHMARK.json.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it give the environment and a readable table.  The full record
(environment, sample counts, spans of a traced run) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("star-n2", "basis-m256", "algebra")
BLAS_THREADS = 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def cap_blas_threads() -> int:
    """Run BLAS and OpenMP on one thread.

    On a host whose CPUs are shared, a threaded BLAS call waits for its
    slowest thread, so its time follows the load on every CPU.  On two shared
    CPUs, eight alternating pairs of star-n2 runs spread by 9% with one
    thread and by 13% with two (bench/NOTES.md, "Run-to-run spread").
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def environment(args: argparse.Namespace, threads: int) -> dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hdqkit" / "__init__.py").is_file():
        print(f"error: no hdqkit sources at {SRC}", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    # set-up time starts before numpy, scipy and hdqkit are imported
    t0 = time.perf_counter()
    import harness
    import hdqkit
    import workloads
    import_s = time.perf_counter() - t0
    if Path(hdqkit.__file__).resolve().parent != SRC / "hdqkit":
        print(f"error: imported hdqkit from {hdqkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args, threads)
    print(json.dumps({"environment": env}), flush=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    record = harness.measure(workload, args.seconds, bool(args.trace), import_s)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    if spans:
        (OUT / f"spans-{stem}.jsonl").write_text(spans + "\n")
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"environment": env, **record}, indent=1) + "\n")

    for name, m in record["metrics"].items():
        n = record["samples"].get(name)
        print(f"{name:48s} {m['value']:.6g} {m['unit']}" + (f"  (n={n})" if n else ""))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
