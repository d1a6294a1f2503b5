"""Smoke runs of every workload at tiny sizes, and the tracer's arithmetic.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import math

import pytest

import harness
import run
import tracing
import workloads

TINY = {
    "star-n2": lambda seed: workloads.StarN2(seed, ranks=(1,), points=1),
    "basis-m256": lambda seed: workloads.BasisRoundTrip(seed, M=64, trunc=4),
    "algebra": lambda seed: workloads.Algebra(seed, full=("s3",), solve=("cl2",),
                                              clifford_m=2, blades=4),
}


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [w["name"] for w in harness.metric_spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_smoke_emits_every_end_to_end_metric(name):
    record = harness.measure(TINY[name](3), seconds=0.01, trace=False, setups=1)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    names = [m["name"] for m in harness.metric_spec()["end_to_end"]]
    assert list(record["metrics"]) == names
    assert record["not_exercised"] == []
    for metric in record["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_traced_smoke_emits_every_per_layer_metric():
    names = [m["name"] for m in harness.metric_spec()["per_layer"]]
    unexercised = set(names)
    for name in sorted(TINY):
        record = harness.measure(TINY[name](3), seconds=0.01, trace=True, setups=1)
        assert record["correct"] and record["failed"] == 0
        assert list(record["metrics"]) == names
        unexercised &= set(record["not_exercised"])
    assert unexercised == set()


def test_tracing_nests_public_calls_and_restores_the_package():
    from hdqkit import clifford, hilbert, moyal, symmetry

    before = (hilbert.commutant, clifford.solve_multipliers,
              hilbert.OperatorSubspace.from_matrices, symmetry.moyal_fast)
    w = TINY["algebra"](5)
    tracer = tracing.Tracer()
    with tracer.active():
        assert symmetry.moyal_fast is moyal.moyal_fast is not before[3]
        w.setup()
        for op in w.round(0):
            op.check(op.run())
    assert (hilbert.commutant, clifford.solve_multipliers,
            hilbert.OperatorSubspace.from_matrices, symmetry.moyal_fast) == before
    names = [s.name for s in tracer.spans]
    parents = {(s.name, names[s.parent]) for s in tracer.spans if s.parent is not None}
    assert ("hilbert.commutant", "hilbert.verify_caract") in parents
    # clifford's `from .hilbert import solve_multipliers` copy is rebound too
    assert ("hilbert.solve_multipliers", "clifford.verify_unital_multipliers") in parents


def _span(name, parent, start, end):
    return tracing.Span(name, "op", tracing.OP, parent, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),       # child of root
        _span("b", 1, 2.0, 3.0),       # grandchild: counts against a, not root
        _span("c", 0, 3.5, 6.0),       # overlaps a: the union is 1.0 .. 6.0
        _span("d", 0, 9.0, 12.0),      # runs past root: clipped to 9.0 .. 10.0
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_metrics_are_per_op_and_per_call():
    spans = [
        _span("hilbert.commutant", None, 0.0, 2.0),
        _span("hilbert.commutant", None, 2.0, 3.0),
        tracing.Span("matrix_basis.synthesize_basis", "setup", tracing.SETUP, None, 0.0, 4.0,
                     counts={"table_mb": 8.0}),
    ]
    spans[0].counts = {"kept_ratio": 0.5}
    spans[1].counts = {"kept_ratio": 0.25}
    out = tracing.layer_metrics(spans, n_ops=2, n_setups=2)
    assert out["hilbert.commutant.self_s"] == pytest.approx(1.5)
    assert out["hilbert.commutant.calls"] == pytest.approx(1.0)
    assert out["hilbert.commutant.kept_ratio"] == pytest.approx(0.375)
    assert out["matrix_basis.synthesize_basis.self_s"] == pytest.approx(2.0)
    assert out["matrix_basis.synthesize_basis.table_mb"] == pytest.approx(8.0)
    assert out["matrix_basis.synthesize_basis.calls"] == 0.0
    # a layer that recorded no span is absent, not zero
    assert not any(key.startswith("moyal.to_modes.") for key in out)


def test_rotation_keeps_the_algebra_associative():
    import numpy as np

    from hdqkit import hilbert

    rng = np.random.default_rng(0)
    base = hilbert.example_algebra("full_matrix", n=2)
    alg = workloads.rotate(base, workloads.random_unitary(rng, base.dim))
    report = hilbert.validate_axioms(alg)
    assert report["pass"] and report["associativity"] < 1e-14
