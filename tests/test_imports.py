"""Import footprint of the package."""

from __future__ import annotations

import os
import subprocess
import sys

import hdqkit


def _loaded(imports: str, prefix: str) -> str:
    """Sorted names under `prefix` in sys.modules after `imports`, in a fresh interpreter."""
    code = (f"import sys, {imports}; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hdqkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy_sparse():
    # the package uses only dense scipy.linalg; on top of it, scipy.sparse
    # adds about 1.7 MB of peak RSS to every importer, and with its linalg
    # and csgraph about 4.8 MB (Python 3.11, scipy 1.17)
    assert _loaded("hdqkit.hilbert, hdqkit.clifford, hdqkit.moyal, hdqkit.matrix_basis, "
                   "hdqkit.symmetry", "scipy.sparse") == "[]"


def test_algebra_modules_load_no_phase_space_module():
    # the memory gate lives in hdqkit.errors, so the algebra side of the kit
    # does not depend on the phase-space grids
    assert _loaded("hdqkit.hilbert, hdqkit.clifford", "hdqkit.moyal") == "[]"
