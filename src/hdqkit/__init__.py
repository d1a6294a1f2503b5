"""hdqkit: Hilbert-algebra multipliers and non-formal deformation quantization.

Subpackages are organized per capability:

* hilbert      - finite Hilbert algebras, multipliers, commutant verifiers
* clifford     - Clifford algebras on bitmask blades; products through the
                 Jordan-Wigner matrix model, bit-exact on blades (+-1, +-i
                 sums and one power-of-two division); unital multiplier checks
* moyal        - flat star product, translations
* matrix_basis - Laguerre matrix basis, coefficient transforms, GBV norms
* symmetry     - commutator identities, Sobolev/Schwartz norms, plane-wave law

The phase-space modules (moyal, matrix_basis, symmetry) need only numpy.
scipy.linalg is imported inside the functions that call it, so it loads on
the first factorization (hilbert's frames, orthonormal bases and nullspace
solves, which clifford's multiplier checks reach) or matrix_star_exp, not
when a module is imported.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
