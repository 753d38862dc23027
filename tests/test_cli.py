import json

import pytest

from isolab.cli import main

BRANCH_FIBER_JSON = {
    "base_label": "x",
    "kind": "generic_branch",
    "points": [
        {"label": "y1", "mult": 2},
        {"label": "y2", "mult": 1},
        {"label": "y3", "mult": 1},
    ],
}


def run_cli(capsys, argv, stdin_doc=None, monkeypatch=None):
    if stdin_doc is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin_doc)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_base_map_so6_fixed_instance(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["base", "map-so6"],
        {"a2": "-5", "a3": "0", "a4": "4"},
        monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["b1"] == "-10" and doc["b2"] == "9" and doc["pf"] == "0"
    assert doc["orientation"] == 1


def test_base_map_so4_with_orientation(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["base", "map-so4", "--orientation", "-1"],
        {"a1": ["0", "1"], "a2": "0"},
        monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["b1"] == ["0", "2"]
    assert doc["pf"] == ["0", "-1"]
    assert doc["orientation"] == -1


def test_malformed_polynomial_exits_one_with_field_path(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        ["base", "map-so4"],
        {"a1": ["0", "x"], "a2": "0"},
        monkeypatch,
    )
    assert code == 1
    assert "a1" in err


def test_missing_field_exits_one(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["base", "map-so6"], {"a2": "0"}, monkeypatch)
    assert code == 1
    assert "a3" in err


def test_base_oracle_agreement(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["base", "oracle"],
        {"kind": "so4", "a1": "-1", "a2": "-4"},
        monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["matches_base_map"] is True
    assert doc["curve"] == ["9", "0", "-10", "0", "1"]


def test_base_genericity(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["base", "genericity"],
        {"a2": ["0", "1"], "a3": ["0", "1"], "a4": "0"},
        monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["generic"] is False
    assert doc["witness"] is not None


def test_iso_apply_d_iso3(capsys, monkeypatch):
    matrix = [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "2", "0"], ["0", "0", "0", "-2"]]
    code, out, _ = run_cli(capsys, ["iso", "apply"], {"map": "d_iso3", "a": matrix}, monkeypatch)
    assert code == 0
    doc = json.loads(out)
    diag = [doc["result"][i][i] for i in range(6)]
    assert diag == ["0", "3", "-1", "1", "-3", "0"]


def test_iso_alpha(capsys, monkeypatch):
    matrix = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    code, out, _ = run_cli(capsys, ["iso", "alpha"], {"a": matrix}, monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == [["0", "0", "2"], ["0", "0", "0"], ["0", "0", "0"]]


def test_iso_hodge_identity_form(capsys, monkeypatch):
    ident = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    code, out, _ = run_cli(capsys, ["iso", "hodge"], {"q": ident}, monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["plus_basis"][0] == ["1", "0", "0", "0", "0", "1"]


def test_cover_ramcheck(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["cover", "ramcheck"], {"fiber": BRANCH_FIBER_JSON}, monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["identity_holds"] is True
    assert doc["ledger"]["lhs"]["(y1,y1)"] == 2


def test_cover_sym(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["cover", "sym"], {"fiber": BRANCH_FIBER_JSON}, monkeypatch)
    assert code == 0
    doc = json.loads(out)
    mults = {tuple(p["pair"]): p["mult"] for p in doc["symmetrized"]["points"]}
    assert mults == {("y1", "y1"): 1, ("y1", "y2"): 2, ("y1", "y3"): 2, ("y2", "y3"): 1}


def test_cover_sym_with_the_double_point_sorting_last(capsys, monkeypatch):
    fiber = {
        "base_label": "x",
        "kind": "generic_branch",
        "points": [{"label": "q", "mult": 2}, {"label": "a", "mult": 1}, {"label": "m", "mult": 1}],
    }
    code, out, _ = run_cli(capsys, ["cover", "sym"], {"fiber": fiber}, monkeypatch)
    assert code == 0

    def points(*rows):
        return [{"pair": list(pair), "mult": m} for pair, m in rows]

    assert json.loads(out) == {
        "command": "cover sym",
        "orientation": 1,
        "self_product": {
            "base_label": "x",
            "diagonal_removed": True,
            "points": points(
                ("qq", 2), ("qa", 2), ("qm", 2), ("aq", 2), ("am", 1), ("mq", 2), ("ma", 1)
            ),
        },
        "symmetrized": {
            "base_label": "x",
            "points": points(("am", 1), ("aq", 2), ("mq", 2), ("qq", 1)),
            "involution": [
                {"from": ["a", "m"], "to": ["q", "q"]},
                {"from": ["a", "q"], "to": ["m", "q"]},
                {"from": ["m", "q"], "to": ["a", "q"]},
                {"from": ["q", "q"], "to": ["a", "m"]},
            ],
        },
    }


def test_divisor_push_and_norm(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["divisor", "push"],
        {"fiber": BRANCH_FIBER_JSON, "divisor": {"y1": 1, "y3": -1}},
        monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["divisor"] == {"[y1,y1]": 1, "[y1,y2]": 1, "[y1,y3]": -1, "[y2,y3]": -1}

    code, out, _ = run_cli(
        capsys,
        ["divisor", "norm"],
        {
            "covering": "sigma",
            "fiber": BRANCH_FIBER_JSON,
            "divisor": {"[y1,y1]": 1, "[y1,y2]": 1, "[y1,y3]": -1, "[y2,y3]": -1},
        },
        monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["vanishes"] is True


def test_divisor_prym_test(capsys, monkeypatch):
    entries = [
        {
            "fiber": BRANCH_FIBER_JSON,
            "divisor": {"[y1,y1]": 1, "[y1,y2]": 1, "[y1,y3]": -1, "[y2,y3]": -1},
        }
    ]
    code, out, _ = run_cli(
        capsys, ["divisor", "prym-test"], {"covering": "sigma", "entries": entries}, monkeypatch
    )
    assert code == 0
    assert json.loads(out)["prym"] is True

    entries.append({"fiber": BRANCH_FIBER_JSON, "divisor": {"[y1,y1]": 1}})
    code, out, _ = run_cli(
        capsys, ["divisor", "prym-test"], {"covering": "sigma", "entries": entries}, monkeypatch
    )
    assert code == 2  # a mathematical check failed, not a validation error
    assert json.loads(out)["prym"] is False


@pytest.mark.parametrize("entries", [[], "not an array"], ids=["empty", "not-an-array"])
def test_divisor_prym_test_checks_the_covering_before_the_entries(capsys, monkeypatch, entries):
    code, out, err = run_cli(capsys, ["divisor", "prym-test"], {"covering": "bogus", "entries": entries}, monkeypatch)
    assert (code, out, err) == (1, "", "error: covering: expected pi, sigma, or sigma4\n")


def test_invariants_commands(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["invariants", "map"], {"d1": 2, "d2": 1, "g": 2}, monkeypatch)
    assert code == 0 and json.loads(out) == {
        "c1": 3,
        "c2": 1,
        "command": "invariants map",
        "orientation": 1,
    }
    code, out, _ = run_cli(
        capsys, ["invariants", "mw"], {"d1": 2, "d2": 0, "g": 2, "group": "sl2xsl2"}, monkeypatch
    )
    assert json.loads(out)["within_bounds"] is False
    code, out, _ = run_cli(
        capsys, ["invariants", "lift"], {"group": "so33", "b1": 1, "b2": 0}, monkeypatch
    )
    assert json.loads(out)["lifts"] is False
    code, out, _ = run_cli(
        capsys, ["invariants", "count"], {"isogeny": "rank2", "g": 2}, monkeypatch
    )
    doc = json.loads(out)
    assert (doc["stated"], doc["proof_count"], doc["enumerated"]) == (32, 16, 256)
    assert doc["discrepancy"] is True
    code, out, _ = run_cli(
        capsys, ["invariants", "census"], {"group": "so33", "g": 2}, monkeypatch
    )
    doc = json.loads(out)
    assert doc["image_labels"] == [[0, 0], [1, 1]] and doc["total_components"] == 5


def test_higgs_assemble(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["higgs", "assemble-so22"],
        {
            "n1_degree": 2,
            "n2_degree": 1,
            "beta1": "1",
            "gamma1": "1",
            "beta2": "1",
            "gamma2": "-1",
        },
        monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == [["1", "1"], ["1", "-1"]]
    assert doc["m1_degree"] == 3 and doc["m2_degree"] == 1
    assert doc["quartic"] == ["4", "0", "0", "0", "1"]


def test_verify_all_small_and_deterministic(capsys):
    code = main(["verify", "all", "--seed", "3", "--samples", "2", "--format", "json"])
    out1 = capsys.readouterr().out
    assert code == 0
    code = main(["verify", "all", "--seed", "3", "--samples", "2", "--format", "json"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True and len(doc["results"]) == 10


def test_verify_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("ISOLAB_SEED", "11")
    code = main(["verify", "all", "--seed", "3", "--samples", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["seed"] == 11


REGULAR_PAIR_FIBER_JSON = {
    "base_label": "x",
    "kind": "regular",
    "points": [{"label": "p1", "mult": 1}, {"label": "p2", "mult": 1}],
}
BRANCH_PAIR_FIBER_JSON = {
    "base_label": "x",
    "kind": "generic_branch",
    "points": [{"label": "q1", "mult": 2}],
}


def test_cover_product(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["cover", "product"],
        {"fiber1": REGULAR_PAIR_FIBER_JSON, "fiber2": BRANCH_PAIR_FIBER_JSON},
        monkeypatch,
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "cover product",
        "orientation": 1,
        "product": {
            "base_label": "x",
            "diagonal_removed": False,
            "points": [{"mult": 2, "pair": ["p1", "q1"]}, {"mult": 2, "pair": ["p2", "q1"]}],
        },
        "involution": [
            {"from": ["p1", "q1"], "to": ["p2", "q1"]},
            {"from": ["p2", "q1"], "to": ["p1", "q1"]},
        ],
    }


def test_input_file_and_missing_file(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"a2": "-5", "a3": "0", "a4": "4"}), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["base", "map-so6", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["b2"] == "9"

    code, out, err = run_cli(capsys, ["base", "map-so6", "--input", str(tmp_path / "absent.json")])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read input file")


def test_input_file_that_is_not_utf8_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"a1": "1", "a2": "\xff"}')
    code, out, err = run_cli(capsys, ["base", "map-so4", "--input", str(path)])
    assert code == 1 and out == ""
    assert err == (
        "error: cannot read input file: 'utf-8' codec can't decode byte 0xff"
        " in position 19: invalid start byte\n"
    )


def test_stdin_that_is_not_utf8_exits_one(capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b'{"a1": "\xff"}'), encoding="utf-8"))
    code, out, err = run_cli(capsys, ["base", "map-so4"])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read standard input: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "text,message",
    [("not json", "error: input is not valid JSON"), ("[1, 2]", "error: input: expected a JSON object")],
)
def test_stdin_must_hold_a_json_object(capsys, monkeypatch, text, message):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(["base", "map-so6"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(message)


def test_nested_coefficient_in_z_exits_one_with_field_path(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, ["base", "map-so4"], {"a1": [["1", "2"]], "a2": "0"}, monkeypatch
    )
    assert code == 1 and out == ""
    assert err == "error: a1: coefficient in 'z' cannot sit inside a polynomial in 'z'\n"


def test_verify_all_default_text_rendering(capsys, monkeypatch):
    monkeypatch.delenv("ISOLAB_SEED", raising=False)
    code, out, _ = run_cli(capsys, ["verify", "all", "--samples", "1"])
    assert code == 0
    assert out == (
        "seed 0; orientation +1 throughout; Pfaffian by first-row expansion with "
        "Pf([[0,1],[-1,0]]) = +1; wedge form determinant -1; split-image Pfaffian "
        "equals -det(alpha)\n"
        "PASS  rank-2 base map vs oracle         1 samples + fixed instance\n"
        "PASS  rank-3 base map vs oracle         1 samples + 2 fixed instances\n"
        "PASS  derivative char polys vs oracles  1 rank-2 and 1 rank-3 samples\n"
        "PASS  structure preservation            1 samples per law + kernels\n"
        "PASS  alpha block and Pfaffian          1 samples, sign constant at -det(alpha)\n"
        "PASS  star-operator split               1 congruence samples\n"
        "PASS  ramification divisor identity     both fiber kinds, 6 = 4 + 2\n"
        "PASS  Prym preservation                 104 zero-sum vectors exhausted\n"
        "PASS  invariant calculus                toledo scan, bounds, lifting, counts "
        "(discrepancy reported), censuses\n"
        "PASS  rank-2 pair assembly              1 samples + frozen instance\n"
        "all checks passed\n"
    )


def test_verify_non_integer_env_seed_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("ISOLAB_SEED", "seven")
    code, out, err = run_cli(capsys, ["verify", "all", "--samples", "1"])
    assert code == 1 and out == ""
    assert err == "error: ISOLAB_SEED must be an integer\n"


def _regular_fiber(*labels):
    return {"base_label": "x", "kind": "regular", "points": [{"label": l, "mult": 1} for l in labels]}


@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (
            ["cover", "sym"],
            {"fiber": {"base_label": "x", "kind": "regular", "points": [{"label": "y1", "mult": "x"}]}},
            "error: fiber: malformed fiber: invalid literal",
        ),
        (
            ["divisor", "norm"],
            {"covering": "sigma", "fiber": BRANCH_FIBER_JSON, "divisor": {"[a,b,c]": 1}},
            "error: divisor: unordered pair keys look like [a,b], got '[a,b,c]'",
        ),
        (
            ["divisor", "norm"],
            {
                "covering": "sigma4",
                "fiber1": _regular_fiber("p1", "p2"),
                "fiber2": _regular_fiber("q1", "q2"),
                "divisor": {"(a)": 1},
            },
            "error: divisor: ordered pair keys look like (a,b), got '(a)'",
        ),
        (
            ["cover", "sym"],
            {"fiber": {"base_label": "x", "kind": "generic_branch", "points": []}},
            "error: fiber: a generic branch fiber has profile",
        ),
        (
            ["divisor", "push"],
            {"fiber": _regular_fiber("a,b", "c", "d", "e"), "divisor": {"c": 1}},
            "error: fiber: fiber point labels may not contain",
        ),
        (
            ["divisor", "norm"],
            {"covering": "sigma", "fiber": _regular_fiber("a", "b", "c", "d[1]"), "divisor": {"[a,b]": 1}},
            "error: fiber: fiber point labels may not contain",
        ),
        (
            ["base", "map-so4"],
            {"a1": True, "a2": "0"},
            "error: a1: cannot interpret True as an exact scalar",
        ),
    ],
    ids=["fiber-mult", "sym-key-three-parts", "ordered-key-one-part", "empty-branch-fiber",
         "label-with-comma", "label-with-brackets", "boolean-scalar"],
)
def test_malformed_input_exits_one_with_field_path(capsys, monkeypatch, argv, doc, message):
    code, out, err = run_cli(capsys, argv, doc, monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith(message)


def test_missing_fiber_field_names_its_path_once(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["divisor", "norm"], {"covering": "sigma4", "divisor": {}}, monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: fiber1: missing required field\n"


@pytest.mark.parametrize("mult", [1.9, True, "1", 2.0])
def test_fiber_mult_must_be_a_json_integer(capsys, monkeypatch, mult):
    doc = {"fiber": {"base_label": "x", "kind": "regular", "points": [
        {"label": l, "mult": mult if l == "y1" else 1} for l in ("y1", "y2", "y3", "y4")
    ]}}
    code, out, err = run_cli(capsys, ["cover", "sym"], doc, monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith(f"error: fiber: malformed fiber: invalid literal {mult!r} for mult")


@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (["invariants", "mw"], {"d1": 2, "d2": 0, "g": 2, "group": "so44"},
         "error: group: unknown group 'so44' for the degree bound\n"),
        (["invariants", "census"], {"group": "so44", "g": 2}, "error: group: unknown group 'so44' for the census\n"),
        (["invariants", "count"], {"isogeny": "rank9", "g": 2}, "error: isogeny: unknown isogeny 'rank9'\n"),
        (["invariants", "lift"], {"group": "so44"},
         "error: group: unknown group 'so44' for the lifting criterion\n"),
    ],
    ids=["mw", "census", "count", "lift"],
)
def test_unknown_invariants_name_exits_one_with_its_field_path(capsys, monkeypatch, argv, doc, message):
    code, out, err = run_cli(capsys, argv, doc, monkeypatch)
    assert code == 1 and out == "" and err == message


@pytest.mark.parametrize(
    "b1,b2,message",
    [
        (5, 0, "error: b1: a Z/2 label is 0 or 1\n"),
        (1, -1, "error: b2: a Z/2 label is 0 or 1\n"),
        (2, 2, "error: b1: a Z/2 label is 0 or 1\n"),
    ],
)
def test_so33_lift_label_out_of_range_names_its_field(capsys, monkeypatch, b1, b2, message):
    doc = {"group": "so33", "b1": b1, "b2": b2}
    code, out, err = run_cli(capsys, ["invariants", "lift"], doc, monkeypatch)
    assert code == 1 and out == "" and err == message


@pytest.mark.parametrize(
    "fiber,message",
    [
        (_regular_fiber(None, True, 3, "d"), "error: fiber: malformed fiber: labels are JSON strings, got None\n"),
        (_regular_fiber("a", "b", "c", 3), "error: fiber: malformed fiber: labels are JSON strings, got 3\n"),
        ({**_regular_fiber("a", "b", "c", "d"), "base_label": None},
         "error: fiber: malformed fiber: labels are JSON strings, got None\n"),
        ({**_regular_fiber("a", "b", "c", "d"), "base_label": 7},
         "error: fiber: malformed fiber: labels are JSON strings, got 7\n"),
        ({**_regular_fiber(), "points": "abcd"},
         "error: fiber: malformed fiber: points must be an array of {label, mult} objects\n"),
        ({**_regular_fiber(), "points": ["a", "b", "c", "d"]},
         "error: fiber: malformed fiber: points must be an array of {label, mult} objects\n"),
    ],
    ids=["point-labels", "last-label", "null-base-label", "integer-base-label", "points-string", "points-of-strings"],
)
def test_fiber_labels_are_json_strings(capsys, monkeypatch, fiber, message):
    code, out, err = run_cli(capsys, ["cover", "sym"], {"fiber": fiber}, monkeypatch)
    assert code == 1 and out == "" and err == message


def test_constant_nested_coefficient_in_z_exits_one_with_field_path(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["base", "map-so4"], {"a1": [["1"]], "a2": "0"}, monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: a1: coefficient in 'z' cannot sit inside a polynomial in 'z'\n"


def test_exponent_notation_exits_one_with_field_path(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["base", "map-so6"], {"a2": "1e400", "a3": "0", "a4": "0"}, monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: a2: not a rational number: '1e400'")


@pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff11\uff12"])
def test_non_ascii_digits_and_underscores_exit_one_with_field_path(text, capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["base", "map-so6"], {"a2": text, "a3": "0", "a4": "0"}, monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith(f"error: a2: not a rational number: {text!r}")


def test_plain_decimals_and_ratios_are_read_exactly(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["base", "map-so6"], {"a2": "0.5", "a3": "-3/4", "a4": 2}, monkeypatch)
    doc = json.loads(out)
    assert code == 0
    assert (doc["b1"], doc["b2"], doc["pf"]) == ("1", "-31/4", "-3/4")


def test_fiber_label_with_surrounding_whitespace_exits_one(capsys, monkeypatch):
    doc = {"fiber": _regular_fiber(" a", "b", "c", "d"), "divisor": {"a": 1, "b": -1}}
    code, out, err = run_cli(capsys, ["divisor", "push"], doc, monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: fiber: fiber point labels may not begin or end with whitespace")


@pytest.mark.parametrize(
    "argv,doc,field",
    [
        (["invariants", "count"], {"isogeny": "rank2", "g": "1_0"}, "g"),
        (["invariants", "count"], {"isogeny": "rank2", "g": "\u0663"}, "g"),
        (["invariants", "count"], {"isogeny": "rank2", "g": "10"}, "g"),
        (["invariants", "map"], {"d1": "2", "d2": 1, "g": 2}, "d1"),
        (["higgs", "assemble-so22"], {"n1_degree": 1, "n2_degree": "1_0"}, "n2_degree"),
    ],
    ids=["g-underscore", "g-arabic-indic-digit", "g-numeric-string", "d1-numeric-string",
         "degree-underscore"],
)
def test_integer_fields_must_be_json_integers(capsys, monkeypatch, argv, doc, field):
    code, out, err = run_cli(capsys, argv, doc, monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field}: ")


@pytest.mark.parametrize(
    "argv,doc",
    [
        (["invariants", "count"], {"isogeny": "rank2", "g": 4000}),
        (["invariants", "census"], {"group": "so22", "g": 65}),
        (["invariants", "map"], {"d1": 0, "d2": 0, "g": 65}),
    ],
    ids=["count-g-4000", "census-above-budget", "map-above-budget"],
)
def test_genus_above_the_budget_exits_one_with_field_path(capsys, monkeypatch, argv, doc):
    code, out, err = run_cli(capsys, argv, doc, monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: g: genus must be an integer between 2 and 64\n"


def test_genus_budget_is_inclusive(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["invariants", "count"], {"isogeny": "rank2", "g": 64}, monkeypatch)
    doc = json.loads(out)
    assert code == 0 and (doc["stated"], doc["enumerated"]) == (2**129, 2**256)


@pytest.mark.parametrize("weight", [float("inf"), 1.9, True, "3", "1_0", "\u0663"])
def test_divisor_weights_must_be_json_integers(capsys, monkeypatch, weight):
    doc = {"fiber": BRANCH_FIBER_JSON, "divisor": {"y1": weight}}
    code, out, err = run_cli(capsys, ["divisor", "push"], doc, monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: divisor: divisor weight for 'y1' must be an integer\n"


def test_integer_literal_beyond_the_digit_limit_exits_one(capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"d1": ' + "7" * 5000 + ', "d2": 1, "g": 2}'))
    code = main(["invariants", "map"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: input is not valid JSON: Exceeds the limit")


def test_nesting_beyond_the_decoder_recursion_exits_one(capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100_000))
    code = main(["base", "map-so6"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: input is not valid JSON: maximum recursion depth exceeded")


def test_result_beyond_the_digit_limit_exits_one(capsys, monkeypatch):
    # pf^2, the quartic's constant term, has about 8,000 digits
    code, out, err = run_cli(capsys, ["base", "map-so4"], {"a1": "7" * 4000, "a2": "0"}, monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: a result exceeds the integer conversion limit of 4300 digits\n"


def test_rational_beyond_the_digit_limit_exits_one_with_field_path(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["base", "map-so4"], {"a1": "7" * 5000, "a2": "0"}, monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: a1: rational number too long (5000 characters)\n"


def test_iso_hodge_polynomial_form_is_refused_by_the_inverse(capsys, monkeypatch):
    z = ["0", "1"]
    q = [["1", z, "0", "0"], [z, ["1", "0", "1"], "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    code, out, err = run_cli(capsys, ["iso", "hodge"], {"q": q}, monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: q: matrix inversion requires rational entries\n"


@pytest.mark.parametrize(
    "q,message",
    [
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]], "2 is not a perfect square"),
        ([[1, 0], [0, 1]], "star-operator construction requires a 4x4 matrix, got 2x2"),
        ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "quadratic form requires a symmetric Gram matrix"),
        (
            [[["0", "1"], "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
            "matrix inversion requires rational entries",
        ),
        ([[0] * 4] * 4, "quadratic form must be non-degenerate"),
        ([[0, 0], [0, 0]], "quadratic form must be non-degenerate"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "star-operator construction requires a 4x4 matrix, got 3x3"),
    ],
    ids=[
        "determinant-not-a-square", "2x2", "non-symmetric", "polynomial-determinant",
        "degenerate", "degenerate-2x2", "3x3",
    ],
)
def test_iso_hodge_errors_name_the_q_field(capsys, monkeypatch, q, message):
    code, out, err = run_cli(capsys, ["iso", "hodge"], {"q": q}, monkeypatch)
    assert code == 1 and out == ""
    assert err == f"error: q: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nosuch"],
        ["base", "nosuch"],
        ["base", "map-so4", "--orientation", "3"],
        ["iso", "hodge", "--format", "json"],
        ["verify", "all", "--orientation", "1"],
        ["verify", "all", "--samples", "x"],
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_usage_errors_exit_one(argv, capsys):
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: isolab") and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["base", "map-so4", "--help"], ["verify", "all", "--help"]])
def test_help_exits_zero(argv, capsys):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out.startswith("usage: isolab")


def test_verify_all_refuses_a_negative_sample_count(capsys, monkeypatch):
    monkeypatch.delenv("ISOLAB_SEED", raising=False)
    code, out, err = run_cli(capsys, ["verify", "all", "--samples", "-3"])
    assert code == 1 and out == ""
    assert err == "error: samples: expected a non-negative integer, got -3\n"
