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
* ``serialize``: the JSON schemas of the CLI.

``import isolab`` loads only ``exact_algebra``.  Every other submodule is
imported the first time it is read as ``isolab.<name>`` (PEP 562), so a
process pays only for the modules it uses.
"""

import importlib

from .exact_algebra import RingMatrix, UniPoly, ValidationError

__all__ = ["RingMatrix", "UniPoly", "ValidationError"]
__version__ = "0.1.0"

_SUBMODULES = (
    "exact_algebra", "lie_isogeny", "spectral_base", "covers_prym", "moduli_invariants", "serialize", "cli", "verify",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
