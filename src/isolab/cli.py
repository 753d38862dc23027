"""Command-line front end.

Thin adapters only: parse JSON, dispatch to the computational modules,
emit a deterministic report.  ``COMMANDS`` is the single list of document
commands: each entry maps ``"group command"`` to a body that turns the
parsed document into a report payload, plus the payload field whose
falsity means a mathematical check failed.  ``verify all`` is the one
command outside the table.  Each body imports the modules it uses when it
runs, so a process loads only the modules of its command.  Exit codes: 0
success, 1 input validation failure (a usage error included), 2 a
mathematical check failed, 3 internal error.

Reports echo the orientation sign in use; the environment variable
ISOLAB_SEED, when set, overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple

from . import ValidationError

if TYPE_CHECKING:
    from . import covers_prym as cp
    from . import spectral_base as sb

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2
EXIT_INTERNAL = 3

class _Input:
    """Field-path-aware accessor over a parsed JSON document."""

    def __init__(self, doc: Any, path: str = ""):
        if not isinstance(doc, Mapping):
            raise ValidationError(f"{path or 'input'}: expected a JSON object")
        self.doc = doc
        self.path = path

    def _fail(self, field: str, message: str):
        where = f"{self.path}.{field}" if self.path else field
        raise ValidationError(f"{where}: {message}")

    def raw(self, field: str):
        if field not in self.doc:
            self._fail(field, "missing required field")
        return self.doc[field]

    def _parsed(self, field: str, parser: Callable, *args):
        """``parser(raw value, *args)``, with its errors prefixed by the field path."""
        return self.within(field, parser, self.raw(field), *args)

    def within(self, field: str, fn: Callable, *args):
        """``fn(*args)``, with its errors prefixed by the path of ``field``."""
        try:
            return fn(*args)
        except ValidationError as exc:
            self._fail(field, str(exc))

    def integer(self, field: str) -> int:
        """A JSON integer; booleans, floats and numeric strings are refused."""
        value = self.raw(field)
        if isinstance(value, bool) or not isinstance(value, int):
            self._fail(field, "expected an integer")
        return value

    def text(self, field: str) -> str:
        return str(self.raw(field))


def _load_document(args) -> _Input:
    from_stdin = args.input in (None, "-")
    try:
        if from_stdin:
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {'standard input' if from_stdin else 'input file'}: {exc}") from exc
    # ValueError also covers an integer literal beyond the int() digit limit;
    # RecursionError is nesting deeper than the decoder's recursion allows
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"input is not valid JSON: {exc}") from exc
    return _Input(doc)


# -- field readers (each reads its fields in the order given) -----------------


def _polys(doc: _Input, *fields: str):
    from . import serialize as ser
    return [doc._parsed(f, ser.poly_from_json) for f in fields]


def _matrix(doc: _Input, field: str):
    from . import serialize as ser
    return doc._parsed(field, ser.matrix_from_json)


def _fiber(doc: _Input, field: str) -> cp.FiberModel:
    from . import serialize as ser
    return doc._parsed(field, ser.fiber_from_json)


def _divisor(doc: _Input, kind: str) -> cp.Divisor:
    from . import serialize as ser
    return doc._parsed("divisor", ser.divisor_from_json, kind)


def _ints(doc: _Input, *fields: str):
    return [doc.integer(f) for f in fields]


def _sl2_pair(doc: _Input) -> sb.BaseSL2Pair:
    from . import spectral_base as sb
    return sb.BaseSL2Pair(*_polys(doc, "a1", "a2"))


def _sl4_base(doc: _Input) -> sb.BaseSL4:
    from . import spectral_base as sb
    return sb.BaseSL4(*_polys(doc, "a2", "a3", "a4"))


def _poly_report(**polys) -> dict:
    from . import serialize as ser
    return {key: ser.poly_to_json(p) for key, p in polys.items()}


def _attrs(obj, *names: str) -> dict:
    return {name: getattr(obj, name) for name in names}


# -- command bodies: (document, orientation) -> report payload ----------------


def _iso_apply(doc: _Input, orientation: int) -> dict:
    from . import lie_isogeny as li, serialize as ser
    which = doc.text("map")
    maps = {
        "iso2": (li.iso2_group, "a1", "a2"),
        "d_iso2": (li.d_iso2, "a1", "a2"),
        "iso3": (li.iso3_group, "a"),
        "d_iso3": (li.d_iso3, "a"),
    }
    if which not in maps:
        raise ValidationError("map: expected one of iso2, iso3, d_iso2, d_iso3")
    fn, *fields = maps[which]
    return {"result": ser.matrix_to_json(fn(*[_matrix(doc, f) for f in fields]))}


def _iso_alpha(doc: _Input, orientation: int) -> dict:
    from . import lie_isogeny as li, serialize as ser
    higgs = li.build_block_higgs_so33(_matrix(doc, "a"))
    return {"alpha": ser.matrix_to_json(higgs.alpha), "block_field": ser.matrix_to_json(higgs.as_matrix())}


def _iso_hodge(doc: _Input, orientation: int) -> dict:
    from . import lie_isogeny as li, serialize as ser
    gram = _matrix(doc, "q")
    split = doc.within("q", lambda: li.hodge_split(li.QuadraticForm(gram), orientation=orientation))
    return {
        "star": ser.matrix_to_json(split.star),
        "plus_basis": [[ser.scalar_to_json(c) for c in v] for v in split.plus_basis],
        "minus_basis": [[ser.scalar_to_json(c) for c in v] for v in split.minus_basis],
        "q_plus": ser.matrix_to_json(split.q_plus.gram),
        "q_minus": ser.matrix_to_json(split.q_minus.gram),
    }


def _base_map_so4(doc: _Input, orientation: int) -> dict:
    from . import spectral_base as sb
    result = sb.so4_base(_sl2_pair(doc), sign=orientation)
    return _poly_report(b1=result.b1, pf=result.pf, quartic=result.quartic())


def _base_map_so6(doc: _Input, orientation: int) -> dict:
    from . import spectral_base as sb
    result = sb.so6_base(_sl4_base(doc), sign=orientation)
    return _poly_report(b1=result.b1, b2=result.b2, pf=result.pf, sextic=result.sextic())


def _base_oracle(doc: _Input, orientation: int) -> dict:
    from . import spectral_base as sb, serialize as ser
    kind = doc.text("kind")
    if kind == "so4":
        pair = _sl2_pair(doc)
        curve = sb.so4_oracle(pair)
        mapped = sb.so4_base(pair, sign=orientation).quartic()
    elif kind == "so6":
        base = _sl4_base(doc)
        curve = sb.so6_oracle(base)
        mapped = sb.so6_base(base, sign=orientation).sextic()
    else:
        raise ValidationError("kind: expected so4 or so6")
    return {"curve": ser.poly_to_json(curve), "matches_base_map": curve == mapped}


def _base_genericity(doc: _Input, orientation: int) -> dict:
    from . import spectral_base as sb, serialize as ser
    report = sb.genericity_report(_sl4_base(doc))
    return {
        "gcd_a3_vs_a2sq_minus_a4": ser.poly_to_json(report.gcd_loose),
        "gcd_a3_vs_a2sq_minus_4a4": ser.poly_to_json(report.gcd_tight),
        **_attrs(report, "jacobian_full_rank", "generic", "witness"),
        "notes": list(report.notes),
    }


def _cover_product(doc: _Input, orientation: int) -> dict:
    from . import covers_prym as cp, serialize as ser
    pf = cp.fiber_product(_fiber(doc, "fiber1"), _fiber(doc, "fiber2"))
    inv = pf.product_involution()
    return {
        "product": ser.pair_fiber_to_json(pf),
        "involution": [{"from": list(k), "to": list(v)} for k, v in sorted(inv.items())],
    }


def _cover_sym(doc: _Input, orientation: int) -> dict:
    from . import covers_prym as cp, serialize as ser
    pf = cp.self_product_minus_diagonal(_fiber(doc, "fiber"))
    sym = cp.symmetrize(pf)
    return {"self_product": ser.pair_fiber_to_json(pf), "symmetrized": ser.sym_fiber_to_json(sym)}


def _cover_ramcheck(doc: _Input, orientation: int) -> dict:
    from . import covers_prym as cp, serialize as ser
    ok, ledger = cp.ramification_check(_fiber(doc, "fiber"))
    kinds = {"sym_cover_ramification": "sym", "base_ramification": "point"}
    rendered = {n: ser.divisor_to_json(d, kinds.get(n, "ordered")) for n, d in ledger.items()}
    return {"identity_holds": ok, "ledger": rendered}


def _divisor_push(doc: _Input, orientation: int) -> dict:
    from . import covers_prym as cp, serialize as ser
    fiber = _fiber(doc, "fiber")
    divisor = _divisor(doc, "point")
    return {"divisor": ser.divisor_to_json(cp.correspondence_push(divisor, fiber), "sym")}


def _covering(doc: _Input) -> str:
    covering = doc.text("covering")
    if covering not in ("pi", "sigma", "sigma4"):
        raise ValidationError("covering: expected pi, sigma, or sigma4")
    return covering


def _norm_context(doc: _Input, covering: str):
    from . import covers_prym as cp
    if covering == "pi":
        return _fiber(doc, "fiber"), _divisor(doc, "point")
    if covering == "sigma":
        sym = cp.symmetrize(cp.self_product_minus_diagonal(_fiber(doc, "fiber")))
        return sym, _divisor(doc, "sym")
    pf = cp.fiber_product(_fiber(doc, "fiber1"), _fiber(doc, "fiber2"))
    return pf, _divisor(doc, "ordered")


def _divisor_norm(doc: _Input, orientation: int) -> dict:
    from . import covers_prym as cp, serialize as ser
    covering = _covering(doc)
    carrier, divisor = _norm_context(doc, covering)
    result = cp.norm(divisor, carrier, covering)
    kind = {"pi": "point", "sigma": "orbit", "sigma4": "orbit"}[covering]
    return {"norm": ser.divisor_to_json(result, kind), "vanishes": result.is_zero}


def _divisor_prym_test(doc: _Input, orientation: int) -> dict:
    from . import covers_prym as cp
    covering = _covering(doc)
    entries = doc.raw("entries")
    if not isinstance(entries, list):
        raise ValidationError("entries: expected an array of {fiber(s), divisor} objects")
    family = [
        _norm_context(_Input(entry, path=f"entries[{idx}]"), covering)
        for idx, entry in enumerate(entries)
    ]
    return {"prym": cp.prym_test(family, covering), "fibers_checked": len(family)}


def _invariants_map(doc: _Input, orientation: int) -> dict:
    from . import moduli_invariants as mi
    t = mi.toledo_map(mi.ToledoPair(*_ints(doc, "d1", "d2"), doc._parsed("g", mi.check_genus)))
    return {"c1": t.d1, "c2": t.d2}


def _invariants_mw(doc: _Input, orientation: int) -> dict:
    from . import moduli_invariants as mi
    pair = mi.ToledoPair(*_ints(doc, "d1", "d2"), doc._parsed("g", mi.check_genus))
    return {"within_bounds": doc.within("group", mi.milnor_wood_check, pair, doc.text("group"))}


def _invariants_lift(doc: _Input, orientation: int) -> dict:
    from . import moduli_invariants as mi
    group = doc.text("group")
    if group not in ("so22", "so33"):
        doc._fail("group", f"unknown group {group!r} for the lifting criterion")
    if group == "so22":
        label = mi.ToledoPair(*_ints(doc, "c1", "c2"), doc._parsed("g", mi.check_genus))
    else:
        b1, b2 = _ints(doc, "b1", "b2")
        label = (doc.within("b1", mi.W2Label, b1), doc.within("b2", mi.W2Label, b2))
    return {"lifts": mi.liftable(label, group)}


def _invariants_count(doc: _Input, orientation: int) -> dict:
    from . import moduli_invariants as mi
    isogeny = doc.text("isogeny")
    report = doc.within("isogeny", mi.preimage_count, isogeny, doc._parsed("g", mi.check_genus))
    return _attrs(report, "stated", "proof_count", "enumerated", "discrepancy", "note")


def _invariants_census(doc: _Input, orientation: int) -> dict:
    from . import moduli_invariants as mi
    group = doc.text("group")
    census = doc.within("group", mi.component_census, group, doc._parsed("g", mi.check_genus))
    payload = {key: [list(l) for l in getattr(census, key)] for key in ("labels", "image_labels")}
    if group != "so33":
        return {"bound": census.bound, **payload}
    totals = ("hitchin_components_source", "hitchin_components_target", "total_components")
    return {**payload, **_attrs(census, *totals)}


def _higgs_assemble_so22(doc: _Input, orientation: int) -> dict:
    from . import moduli_invariants as mi, serialize as ser
    result = mi.assemble_so22(
        *_ints(doc, "n1_degree", "n2_degree"), *_polys(doc, "beta1", "gamma1", "beta2", "gamma2")
    )
    return {
        "alpha": ser.matrix_to_json(result.higgs.alpha),
        "field": ser.matrix_to_json(result.higgs.as_matrix()),
        **_attrs(result, "m1_degree", "m2_degree"),
        **_poly_report(b1=result.base.b1, pf=result.base.pf, quartic=result.quartic),
    }


#: "group command" -> (body, verdict field or None).  Insertion order is the
#: order of groups and commands in ``--help``.
COMMANDS: Dict[str, Tuple[Callable[[_Input, int], dict], Optional[str]]] = {
    "iso apply": (_iso_apply, None),
    "iso alpha": (_iso_alpha, None),
    "iso hodge": (_iso_hodge, None),
    "base map-so4": (_base_map_so4, None),
    "base map-so6": (_base_map_so6, None),
    "base oracle": (_base_oracle, "matches_base_map"),
    "base genericity": (_base_genericity, None),
    "cover product": (_cover_product, None),
    "cover sym": (_cover_sym, None),
    "cover ramcheck": (_cover_ramcheck, "identity_holds"),
    "divisor push": (_divisor_push, None),
    "divisor norm": (_divisor_norm, None),
    "divisor prym-test": (_divisor_prym_test, "prym"),
    "invariants map": (_invariants_map, None),
    "invariants mw": (_invariants_mw, None),
    "invariants lift": (_invariants_lift, None),
    "invariants count": (_invariants_count, None),
    "invariants census": (_invariants_census, None),
    "higgs assemble-so22": (_higgs_assemble_so22, None),
}


def _run_document(args) -> int:
    """Load the document, run the command's body, print the report."""
    body, verdict_field = COMMANDS[args.command_path]
    payload = body(_load_document(args), args.orientation)
    envelope = {"command": args.command_path, "orientation": args.orientation, **payload}
    print(json.dumps(envelope, sort_keys=True, indent=2))
    return EXIT_CHECK_FAILED if verdict_field and not payload[verdict_field] else EXIT_OK


def _verify_all(args) -> int:
    from .verify import run_all
    report = run_all(seed=args.seed, samples=args.samples)
    if args.format == "json":
        payload = report.to_json()
        payload["command"] = args.command_path
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        width = max(len(r.name) for r in report.results)
        print(f"seed {report.seed}; {report.orientation}")
        for r in report.results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark}  {r.name.ljust(width)}  {r.detail}")
        print("all checks passed" if report.passed else "CHECKS FAILED")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# -- wiring -------------------------------------------------------------------


def build_parser(group: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command.  When ``group`` names a group of
    ``COMMANDS``, only that group's commands are added; ``main`` passes the
    first argument, which argparse reads as the group, so it enters no
    other group and no output changes."""
    wanted = group if any(path.startswith(f"{group} ") for path in COMMANDS) else None
    parser = argparse.ArgumentParser(
        prog="isolab",
        description="exact computations for the rank-2 and rank-3 orthogonal isogenies",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups: Dict[str, Any] = {}
    for path in COMMANDS:
        group_name, cmd_name = path.split()
        if group_name not in groups:
            group_parser = top.add_parser(group_name)
            groups[group_name] = group_parser.add_subparsers(dest="command", required=True)
        if wanted not in (None, group_name):
            continue
        cmd_parser = groups[group_name].add_parser(cmd_name)
        cmd_parser.add_argument("--input", help="path to a JSON input document (default: stdin)")
        cmd_parser.add_argument(
            "--orientation",
            type=int,
            choices=(1, -1),
            default=1,
            help="orientation sign used wherever a Pfaffian or determinant trivialization enters",
        )
        cmd_parser.set_defaults(handler=_run_document, command_path=path)

    verify = top.add_parser("verify").add_subparsers(dest="command", required=True)
    verify_all = verify.add_parser("all")
    verify_all.add_argument("--seed", type=int, default=0)
    verify_all.add_argument(
        "--samples", type=int, default=None, help="override per-check sample counts (0 or more)"
    )
    verify_all.add_argument("--format", choices=("json", "text"), default="text")
    verify_all.set_defaults(handler=_verify_all, command_path="verify all")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error exit 2 would read as a failed check
        return EXIT_VALIDATION if exc.code == 2 else exc.code
    if hasattr(args, "seed"):
        env_seed = os.environ.get("ISOLAB_SEED")
        if env_seed is not None:
            try:
                args.seed = int(env_seed)
            except ValueError:
                print("error: ISOLAB_SEED must be an integer", file=sys.stderr)
                return EXIT_VALIDATION
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
