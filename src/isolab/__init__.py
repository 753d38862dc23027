"""Exact-arithmetic toolkit for the rank-2 and rank-3 orthogonal isogenies.

Subpackages by concern:

* ``exact_algebra``: rational scalars, polynomial tower, matrices,
  resultants, characteristic polynomials det(eta*I - M), Pfaffians.
* ``lie_isogeny``: the two isogenies and their derivatives, invariant
  forms, split-basis blocks, star-operator decomposition.
* ``spectral_base``: induced Hitchin-base maps and their elimination
  oracles, smoothness reports.
* ``covers_prym``: fiberwise spectral-cover combinatorics, divisors,
  norm maps, the 4-fold-to-6-fold correspondence.
* ``moduli_invariants``: degree labels, bounds, lifting criteria,
  preimage counts, component censuses, block-field assembly.
* ``cli`` / ``verify``: command-line front end and the seeded exact
  verification suite.
"""

from .exact_algebra import (
    InternalError,
    RingMatrix,
    UniPoly,
    ValidationError,
)

__all__ = ["InternalError", "RingMatrix", "UniPoly", "ValidationError"]
__version__ = "0.1.0"
