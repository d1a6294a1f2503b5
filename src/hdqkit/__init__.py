"""hdqkit: Hilbert-algebra multipliers and non-formal deformation quantization.

Subpackages are organized per capability:

* hilbert      - finite Hilbert algebras, multipliers, commutant verifiers
* clifford     - Clifford algebras on bitmask blades; products through the
                 Jordan-Wigner matrix model, bit-exact on blades (+-1, +-i
                 sums and one power-of-two division); unital multiplier checks
* moyal        - flat star product, translations
* matrix_basis - Laguerre matrix basis, coefficient transforms, GBV norms
* symmetry     - commutator identities, Sobolev/Schwartz norms, plane-wave law

Every module needs only numpy, hilbert's frames, orthonormal bases and
nullspace kernel included. scipy.linalg is imported only inside
matrix_basis.matrix_star_exp, so it loads on that function's first call, not
when a module is imported.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
