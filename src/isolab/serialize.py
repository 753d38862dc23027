"""JSON schemas shared by the CLI.

Rationals are strings "p/q" (plain "p" for integers).  Polynomials are
arrays of coefficients in the base variable z, lowest degree first; a bare
string is a constant, and a coefficient that is itself an array is refused.
Matrices are arrays of rows.  Divisor keys are rendered as the plain
label, "(a,b)" for an ordered pair, "[a,b]" for an unordered pair, and
"[[a,b]]" for an involution orbit.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Union

from . import ValidationError

if TYPE_CHECKING:
    from fractions import Fraction

    from .covers_prym import Divisor, FiberModel, PairFiber, SymFiber
    from .exact_algebra import RingMatrix, UniPoly

__all__ = [
    "scalar_to_json",
    "poly_to_json",
    "poly_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "fiber_to_json",
    "fiber_from_json",
    "pair_fiber_to_json",
    "sym_fiber_to_json",
    "divisor_to_json",
    "divisor_from_json",
    "key_to_string",
    "key_from_string",
]


def scalar_to_json(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError as exc:  # a result can outgrow the int() digit limit its inputs kept to
        limit = sys.get_int_max_str_digits()
        raise ValidationError(f"a result exceeds the integer conversion limit of {limit} digits") from exc


def poly_to_json(p: Union[UniPoly, Fraction, int]) -> Any:
    """Constants serialize as bare strings, polynomials as coefficient arrays."""
    from . import exact_algebra as tower
    return _element_to_json(tower.as_element(p), tower)


def _element_to_json(value, tower) -> Any:
    """A canonical element of the ``tower`` (the ``exact_algebra`` module,
    imported once per converter call); its coefficients are canonical too."""
    if isinstance(value, tower.UniPoly):
        return [_element_to_json(c, tower) for c in value.coeffs]
    return scalar_to_json(value)


def poly_from_json(data: Any) -> UniPoly:
    """Parse a polynomial in z.  A nested coefficient array parses as a
    polynomial in z too, which ``UniPoly`` refuses as a coefficient."""
    from . import exact_algebra as tower
    return _poly_from_json(data, tower)


def _poly_from_json(data: Any, tower) -> UniPoly:
    if isinstance(data, (str, int)):
        return tower.as_poly(data, "z")
    if isinstance(data, list):
        coeffs = [_poly_from_json(c, tower) if isinstance(c, list) else tower.as_fraction(c) for c in data]
        return tower.UniPoly("z", coeffs)
    raise ValidationError(f"cannot parse polynomial from {data!r}")


def matrix_to_json(m: RingMatrix) -> List[List[Any]]:
    """Matrix entries are canonical tower elements."""
    from . import exact_algebra as tower
    return [[_element_to_json(e, tower) for e in row] for row in m.entries]


def matrix_from_json(data: Any) -> RingMatrix:
    from . import exact_algebra as tower
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ValidationError("a matrix is a non-empty array of rows")
    return tower.RingMatrix([[_poly_from_json(e, tower) for e in row] for row in data])


def fiber_to_json(f: FiberModel) -> Dict[str, Any]:
    return {
        "base_label": f.base_label,
        "kind": f.kind,
        "points": [{"label": l, "mult": m} for l, m in f.points],
    }


def fiber_from_json(data: Any) -> FiberModel:
    """A fiber; ``base_label`` and the point labels are JSON strings."""
    from .covers_prym import FiberModel
    if not isinstance(data, Mapping):
        raise ValidationError("a fiber is an object with base_label, kind, points")
    try:
        points = data["points"]
        if not isinstance(points, list) or not all(isinstance(p, Mapping) for p in points):
            raise ValidationError("malformed fiber: points must be an array of {label, mult} objects")
        points = tuple((p["label"], p["mult"]) for p in points)
        base_label, kind = data["base_label"], str(data["kind"])
    except KeyError as exc:
        raise ValidationError(f"malformed fiber: missing {exc}") from exc
    for _, mult in points:
        if isinstance(mult, bool) or not isinstance(mult, int):
            raise ValidationError(f"malformed fiber: invalid literal {mult!r} for mult; expected a JSON integer")
    for label in (base_label, *(l for l, _ in points)):
        if not isinstance(label, str):
            raise ValidationError(f"malformed fiber: labels are JSON strings, got {label!r}")
    return FiberModel(base_label, points, kind)


def pair_fiber_to_json(pf: PairFiber) -> Dict[str, Any]:
    return {
        "base_label": pf.base_label,
        "diagonal_removed": pf.diagonal_removed,
        "points": [{"pair": list(k), "mult": m} for k, m in pf.points],
    }


def sym_fiber_to_json(sf: SymFiber) -> Dict[str, Any]:
    return {
        "base_label": sf.base_label,
        "points": [{"pair": list(k), "mult": m} for k, m in sf.points],
        "involution": [{"from": list(a), "to": list(b)} for a, b in sf.sigma_pairs],
    }


def key_to_string(key, kind: str) -> str:
    """Render a divisor key; ``kind`` is "point", "ordered", "sym", or "orbit"."""
    if kind == "point":
        if isinstance(key, str):
            return key
    elif isinstance(key, tuple) and len(key) == 2:
        a, b = key
        if kind == "ordered":
            return f"({a},{b})"
        if kind == "sym":
            return f"[{a},{b}]"
        if kind == "orbit":
            return f"[[{a},{b}]]"
    raise ValidationError(f"cannot render divisor key {key!r} as {kind!r}")


def key_from_string(text: str, kind: str):
    """Parse a divisor key; ``kind`` is "point", "ordered", or "sym"."""
    text = text.strip()
    if kind == "point":
        return text
    if kind == "ordered":
        return _pair_parts(text, "(a,b)", "ordered")
    if kind == "sym":
        return tuple(sorted(_pair_parts(text, "[a,b]", "unordered")))
    raise ValidationError(f"unknown key kind {kind!r}")


def _pair_parts(text: str, shape: str, what: str):
    """The two stripped labels of a pair key written like ``shape``."""
    parts = text[1:-1].split(",")
    if not (text.startswith(shape[0]) and text.endswith(shape[-1])) or len(parts) != 2:
        raise ValidationError(f"{what} pair keys look like {shape}, got {text!r}")
    return tuple(s.strip() for s in parts)


def divisor_to_json(d: Divisor, kind: str) -> Dict[str, int]:
    """Render a divisor; ``kind`` names the key shape (see ``key_to_string``)."""
    return {key_to_string(k, kind): w for k, w in d.items()}


def divisor_from_json(data: Any, kind: str) -> Divisor:
    """Parse a divisor; ``kind`` tells how the keys are shaped."""
    from .covers_prym import Divisor
    if not isinstance(data, Mapping):
        raise ValidationError("a divisor is an object mapping point keys to weights")
    weights = {}
    for text, w in data.items():
        key = key_from_string(str(text), kind)
        if isinstance(w, bool) or not isinstance(w, int):
            raise ValidationError(f"divisor weight for {text!r} must be an integer")
        weights[key] = w
    return Divisor(weights)
