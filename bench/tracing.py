"""Span tracing of hdqkit's public functions, from outside the package.

`Tracer.active()` wraps each function named in `LAYERS` and rebinds every
module attribute that refers to it, including the `from ... import` copies
in `clifford` and `symmetry`, so that public calls nested inside other public
calls become child spans (`verify_caract` -> `commutant`, `moyal_fast` ->
`split_pairs`).  Spans stay in memory until the run writes them out.

Counts attached to a span (`gflop`, `mb`, `rank`, ...) are computed from the
array sizes of the call's arguments and result, so they repeat exactly for
the same inputs.  Flop counts use the models stated next to each counter.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

SETUP, OP, CHECK = "setup", "op", "check"

# complex multiply-add = 8 real flops; a length-N complex FFT = 5 N log2 N
_CMAC = 8.0


def _fft_flops(n: int) -> float:
    return 5.0 * n * math.log2(n)


def _pairs_fft_flops(m: int, nf: int, ng: int, npairs: int) -> float:
    """FFT model of the n = 1 mixed-representation product.

    Mode split: 2 axes x M transforms per input.  Per momentum mode j: one
    q-transform per row of every f and g input.  Back to physical p: M
    transforms per output pair.  All transforms have length M.
    """
    transforms = 2 * m * (nf + ng) + m * m * (nf + ng) + m * npairs
    return transforms * _fft_flops(m)


def _count_moyal_fast_many(args, kwargs, result) -> dict[str, float]:
    fs, gs = args[0], args[1]
    m = fs[0].spec.M
    npairs = len(result)
    return {"pairs": npairs,
            "gflop": _pairs_fft_flops(m, len(fs), len(gs), npairs) / 1e9}


def _count_split_pairs(args, kwargs, result) -> dict[str, float]:
    m = args[0].spec.M
    rank = len(result[0])
    return {"rank": rank, "kept_ratio": rank / (m * m)}


def _count_synthesize_basis(args, kwargs, result) -> dict[str, float]:
    return {"table_mb": result.table.nbytes / 1e6}


def _count_transform(args, kwargs, result) -> dict[str, float]:
    cache = args[1]
    t, m = cache.trunc, cache.spec.M
    return {"gflop": _CMAC * t * t * m * m / 1e9}


def _count_commutant(args, kwargs, result) -> dict[str, float]:
    dd = result.ambient_dim
    n2 = dd * dd
    return {"generators": len(args[0]) if hasattr(args[0], "__len__") else 0,
            "normal_mb": 16.0 * n2 * n2 / 1e6,
            "kept_ratio": result.dim / n2}


def _count_solve_multipliers(args, kwargs, result) -> dict[str, float]:
    d = args[0].dim
    unknowns = 2 * d * d
    return {"matrix_mb": 16.0 * d ** 3 * unknowns / 1e6,
            "kept_ratio": len(result) / unknowns}


def _count_report(args, kwargs, result) -> dict[str, float]:
    return {"fails": 0.0 if result["pass"] else 1.0}


@dataclass(frozen=True)
class Layer:
    """One public function: module, attribute path, span name, counter."""

    module: str
    path: str
    counter: Callable[..., dict[str, float]] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.path}"


LAYERS = (
    Layer("moyal", "moyal_fast"),
    Layer("moyal", "to_modes"),
    Layer("moyal", "split_pairs", _count_split_pairs),
    Layer("moyal", "moyal_fast_many", _count_moyal_fast_many),
    Layer("moyal", "moyal_direct"),
    Layer("matrix_basis", "synthesize_basis", _count_synthesize_basis),
    Layer("matrix_basis", "transform", _count_transform),
    Layer("matrix_basis", "matrix_product_oracle"),
    Layer("hilbert", "commutant", _count_commutant),
    Layer("hilbert", "solve_multipliers", _count_solve_multipliers),
    Layer("hilbert", "verify_caract", _count_report),
    Layer("hilbert", "verify_commutant_structure", _count_report),
    Layer("hilbert", "OperatorSubspace.from_matrices"),
    Layer("hilbert", "validate_axioms", _count_report),
    Layer("clifford", "clifford_product"),
    Layer("clifford", "verify_unital_multipliers", _count_report),
    Layer("clifford", "as_hilbert_algebra"),
)

# modules whose globals may hold a copy of a traced function
REBIND_MODULES = ("moyal", "matrix_basis", "hilbert", "clifford", "symmetry")


@dataclass
class Span:
    name: str
    op: str
    phase: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    failed: bool = False

    def to_json(self, sid: int) -> dict[str, Any]:
        return {"id": sid, "name": self.name, "op": self.op, "phase": self.phase,
                "parent": self.parent, "start": self.start, "end": self.end,
                "counts": self.counts, "failed": self.failed}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never double-counts or goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for sid, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records spans for calls into hdqkit while `active()` is entered."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = "setup"
        self.phase = SETUP

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, self.phase, parent, time.perf_counter()))
        self._stack.append(sid)
        return sid

    def end(self, sid: int, failed: bool = False) -> None:
        self.spans[sid].end = time.perf_counter()
        self.spans[sid].failed = failed
        self._stack.pop()

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(layer.name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(sid, failed=True)
                raise
            tracer.end(sid)
            if layer.counter is not None:
                tracer.spans[sid].counts = layer.counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self) -> Iterator["Tracer"]:
        """Wrap every layer function and rebind its names; undo on exit."""
        mods = {m: importlib.import_module(f"hdqkit.{m}") for m in REBIND_MODULES}
        undo: list[tuple[Any, str, Any]] = []
        try:
            for layer in LAYERS:
                owner = mods[layer.module]
                *outer, attr = layer.path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                traced = self._wrap(layer, fn)
                undo.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(traced) if static else traced)
                if outer:
                    continue
                for ns in mods.values():
                    if ns is owner:
                        continue
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            undo.append((ns, key, val))
                            setattr(ns, key, traced)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(s.to_json(i))
                         for i, s in enumerate(self.spans))


def layer_metrics(spans: list[Span], n_ops: int, n_setups: int) -> dict[str, float]:
    """Per-layer figures for every layer that recorded at least one span.

    A layer without spans gets no entry, so the caller can tell a function
    that never ran from one that ran in no time.  self_s and gflop are per
    timed op, over the op and check phases; a function that runs only
    during set-up reports them per set-up.  calls is per timed op.  Per-call properties
    (rank, mb, kept_ratio, ...) are means over the same calls.  fails counts
    raised calls and failed reports over the whole run.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [(s, t) for s, t in zip(spans, selfs) if s.name == layer.name]
        run = [(s, t) for s, t in mine if s.phase in (OP, CHECK)]
        if not mine:
            continue
        if run:
            used, per = run, max(n_ops, 1)
        else:
            used, per = mine, max(n_setups, 1)
        out[f"{layer.name}.self_s"] = sum(t for _, t in used) / per
        out[f"{layer.name}.calls"] = len(run) / max(n_ops, 1)
        out[f"{layer.name}.fails"] = float(sum(
            s.failed or s.counts.get("fails", 0.0) > 0 for s, _ in mine))
        for key in sorted({k for s, _ in used for k in s.counts} - {"fails"}):
            vals = [s.counts[key] for s, _ in used if key in s.counts]
            if key == "gflop":
                out[f"{layer.name}.gflop"] = sum(vals) / per
            else:
                out[f"{layer.name}.{key}"] = sum(vals) / len(vals)
    return out
