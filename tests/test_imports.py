"""Import footprint of the package."""

from __future__ import annotations

import os
import subprocess
import sys

import hdqkit


_ALL_MODULES = "hdqkit.hilbert, hdqkit.clifford, hdqkit.moyal, hdqkit.matrix_basis, hdqkit.symmetry"


def _loaded(imports: str, prefix: str, run: str = "") -> str:
    """Sorted names under `prefix` in sys.modules after `imports` and then `run`,
    in a fresh interpreter."""
    code = (f"import sys, {imports}\n{run}\n"
            f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hdqkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy_sparse():
    # the package uses only dense scipy.linalg, in matrix_star_exp; on top
    # of it, scipy.sparse adds about 1.7 MB of peak RSS to every importer, and
    # with its linalg and csgraph about 4.8 MB (Python 3.11, scipy 1.17)
    assert _loaded(_ALL_MODULES, "scipy.sparse") == "[]"


def test_algebra_modules_load_no_phase_space_module():
    # the memory gate lives in hdqkit.errors, so the algebra side of the kit
    # does not depend on the phase-space grids
    assert _loaded("hdqkit.hilbert, hdqkit.clifford", "hdqkit.moyal") == "[]"


def test_phase_space_work_loads_no_scipy_linalg():
    # only matrix_star_exp imports scipy.linalg, which costs about 0.35 s and
    # 28 MB of peak RSS (Python 3.11, scipy 1.17)
    run = """
import numpy as np
from hdqkit.matrix_basis import MatrixSymbol, synthesize_basis, transform
from hdqkit.moyal import GridFunction, GridSpec, moyal_fast
spec = GridSpec(M=64, L=8.0)
sym = MatrixSymbol(2, spec.theta, np.arange(4.0).reshape(2, 2) + 1j)
cache = synthesize_basis(spec, 2)
assert np.abs(transform(transform(sym, cache), cache).coeffs - sym.coeffs).max() < 1e-12
small = GridSpec(M=8)
f = GridFunction(small, np.ones(small.shape))
assert np.isfinite(moyal_fast(f, f).samples).all()
"""
    assert _loaded(_ALL_MODULES, "scipy.linalg", run) == "[]"


def test_algebra_work_loads_no_scipy_linalg():
    # hilbert's frames, orthonormal bases and nullspace kernel run on
    # numpy.linalg alone, and so does every clifford check that reaches them
    run = """
from hdqkit import clifford, hilbert
m2 = hilbert.example_algebra("full_matrix", n=2)
alg = hilbert.combine(m2, hilbert.example_algebra("cyclic_group", n=3), "direct_sum")
assert hilbert.validate_axioms(alg)["pass"]
pairs = hilbert.solve_multipliers(alg)
assert hilbert.verify_caract(alg, pairs)["pass"]
assert hilbert.verify_commutant_structure(alg, pairs)["pass"]
assert len(hilbert.center(alg)) == 4
assert clifford.verify_unital_multipliers(2)["pass"]
"""
    assert _loaded(_ALL_MODULES, "scipy.linalg", run) == "[]"
