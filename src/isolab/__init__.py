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

The package root defines the two names that every module shares:
``ValidationError``, the one error isolab raises for input outside an
operation's contract, and ``Record``, the frozen base class of the value
types.  ``exact_algebra`` re-exports both.  ``import isolab`` loads no
submodule: each one, and ``RingMatrix`` and ``UniPoly`` from
``exact_algebra``, is imported the first time it is read as
``isolab.<name>`` (PEP 562), so a process pays only for the modules it
uses.
"""

import importlib

__all__ = ["RingMatrix", "UniPoly", "ValidationError"]
__version__ = "0.1.0"

_SUBMODULES = (
    "exact_algebra", "lie_isogeny", "spectral_base", "covers_prym", "moduli_invariants", "serialize", "cli", "verify",
)
_KERNEL_NAMES = ("RingMatrix", "UniPoly")


class ValidationError(ValueError):
    """Raised when an input violates an operation's contract."""


class Record:
    """Base of the frozen value types.  The fields of a subclass are the
    names annotated in its own body, in order; ``__init__`` takes them
    positionally or by keyword and then runs ``__post_init__``, if the class
    has one.  Assignment is refused, so an instance's ``__dict__`` holds
    exactly its fields in field order: records are equal when their classes
    are the same and their fields are equal, and hash as their field tuple."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            try:
                args += tuple(map(kwargs.pop, fields[len(args):]))
            except KeyError:  # a field given neither way
                args = ()
            if kwargs or len(args) != len(fields):
                raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(fields)}), each once")
        values = self.__dict__
        for name, value in zip(fields, args):
            values[name] = value
        if cls._post_init is not None:
            cls._post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({body})"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _KERNEL_NAMES:
        return getattr(importlib.import_module(f"{__name__}.exact_algebra"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
