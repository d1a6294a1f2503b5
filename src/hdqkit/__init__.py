"""hdqkit: Hilbert-algebra multipliers and non-formal deformation quantization.

Subpackages are organized per capability:

* hilbert      - finite Hilbert algebras, multipliers, commutant verifiers
* clifford     - Clifford algebras on bitmask blades, unital multiplier checks
* moyal        - flat star product, symplectic Fourier, Weyl kernels
* matrix_basis - Laguerre matrix basis, coefficient transforms, GBV norms
* symmetry     - commutator identities, Sobolev/Schwartz norms, plane-wave law
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
