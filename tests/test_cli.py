import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_series import cli
from motive_series.errors import InvalidInput
from motive_series.laurent import LaurentPoly
from motive_series.mseries import MSeries

C_DOC = {
    "ambient_dim": 5,
    "branches": [
        {"coords": [[[2, "1"]], [[3, "1"]], [[2, "1"]], [[4, "1"]], [[5, "1"]]]},
        {"coords": [[[2, "1"]], [[3, "1"]], [[4, "1"]], [[2, "1"]], [[6, "1"]]]},
    ],
}
SINGLE_GRAPH = {"vertices": [{"self_int": -1}], "edges": [], "arrows": []}
CUSP_SCRIPT = {
    "steps": [
        {"center": "origin"},
        {"center": {"on": 1, "param": "0"}},
        {"center": {"corner": [1, 2]}},
    ]
}
CUSP_CURVE = {"ambient_dim": 2, "branches": [{"coords": [[[2, "1"]], [[3, "1"]]]}]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (
        ("C.json", C_DOC),
        ("single.json", SINGLE_GRAPH),
        ("cusp_script.json", CUSP_SCRIPT),
        ("cusp_curve.json", CUSP_CURVE),
    ):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poincare_curve(files, capsys):
    code, out, _ = run(
        capsys, ["poincare", "--curve", files["C.json"], "--kind", "P", "--bound", "6,6"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [
        {"coeff": [[0, "1"]], "exp": [0, 0]},
        {"coeff": [[0, "1"]], "exp": [3, 3]},
    ]


def test_hilbert_curve(files, capsys):
    code, out, _ = run(
        capsys,
        ["hilbert", "--curve", files["C.json"], "--at", "3,3", "--format", "pretty"],
    )
    assert code == 0
    assert out.strip() == "3"


def test_divisorial_class_series(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "poincare",
            "--graph",
            files["single.json"],
            "--filtration",
            "divisorial",
            "--kind",
            "Phat",
            "--bound",
            "2",
            "--format",
            "pretty",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("(1)")
    assert lines[1].endswith("(1 + L)")
    assert lines[2].endswith("(1 + L + L^2)")


def test_multiplicity(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "multiplicity",
            "--script",
            files["cusp_script.json"],
            "--poly",
            "y^2-x^3",
            "--format",
            "pretty",
        ],
    )
    assert code == 0
    assert out.strip() == "2,3,6"
    code, out, _ = run(
        capsys,
        [
            "multiplicity",
            "--script",
            files["cusp_script.json"],
            "--poly",
            "y^2-x^3",
            "--at",
            "3",
        ],
    )
    assert code == 0
    assert json.loads(out) == {"value": 6}


def test_resolve(files, capsys):
    code, out, _ = run(capsys, ["resolve", "--curve", files["cusp_curve.json"]])
    assert code == 0
    doc = json.loads(out)
    assert [v["self_int"] for v in doc["vertices"]] == [-3, -2, -1]
    assert doc["edges"] == [[1, 3], [2, 3]]
    assert doc["arrows"] == [{"attach": 3}]


def test_graph_command_round_trip(files, capsys):
    code, out, _ = run(capsys, ["graph", "--script", files["cusp_script.json"]])
    assert code == 0
    from motive_series.graph import DualGraph

    g = DualGraph.from_json(json.loads(out))
    assert g.self_ints == (-3, -2, -1)


def test_series_round_trip_and_determinism(files, capsys):
    argv = [
        "poincare",
        "--curve",
        files["cusp_curve.json"],
        "--kind",
        "Pg",
        "--bound",
        "6",
    ]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert out1 == out2  # byte-identical output
    from motive_series.mseries import MSeries

    parsed = MSeries.from_json(json.loads(out1))
    assert parsed.to_json() == json.loads(out1)


def test_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"vertices\": \"nope\"}")
    code, _, err = run(
        capsys, ["poincare", "--graph", str(bad), "--bound", "2"]
    )
    assert code == 2
    assert "error" in err


def test_precision_exit_code(files, capsys):
    code, _, err = run(
        capsys,
        [
            "hilbert",
            "--curve",
            files["cusp_curve.json"],
            "--at",
            "100",
            "--max-jet",
            "32",
        ],
    )
    assert code == 3
    assert "precision" in err


def test_route_a_window_is_capped_by_max_jet(files, capsys):
    argv = ["poincare", "--script", files["cusp_script.json"], "--kind", "Phat"]
    code, out, err = run(capsys, argv + ["--bound", "5,5,6"])
    assert code == 0, err
    assert run(capsys, argv + ["--bound", "5,5,6", "--max-jet", "6"]) == (0, out, "")
    code, out, err = run(capsys, argv + ["--bound", "5,5,6", "--max-jet", "5"])
    assert (code, out) == (3, "")
    assert err == "precision exhausted: entry 3 of --bound is 6, above --max-jet 5\n"


CUSP_ARROW_GRAPH = {
    "vertices": [{"self_int": -3}, {"self_int": -2}, {"self_int": -1}],
    "edges": [[1, 3], [2, 3]],
    "arrows": [{"attach": 3}],
}


def test_curve_p_is_a_product_without_at_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cusp_arrow.json"
    path.write_text(json.dumps(CUSP_ARROW_GRAPH))

    def refuse(self):
        raise AssertionError("at_one called")

    monkeypatch.setattr(MSeries, "at_one", refuse)
    argv = ["poincare", "--graph", str(path), "--filtration", "curve", "--kind", "P"]
    code, out, err = run(capsys, argv + ["--bound", "8"])
    assert code == 0, err
    got = MSeries.from_json(json.loads(out))
    # the value semigroup <2, 3>
    assert got.coeffs == {(n,): LaurentPoly.const(1) for n in (0, 2, 3, 4, 5, 6, 7, 8)}


def test_curve_p_on_a_graph_without_arrows(files, capsys):
    argv = ["poincare", "--graph", files["single.json"], "--filtration", "curve", "--kind", "P"]
    assert run(capsys, argv + ["--bound", "3"]) == (
        2, "", "error: curve series needs at least one arrow\n"
    )


def _count_eliminations(monkeypatch):
    from motive_series import linalg

    calls = []
    eliminate = linalg.det_and_adjugate
    monkeypatch.setattr(linalg, "det_and_adjugate", lambda a: calls.append(1) or eliminate(a))
    return calls


def test_budget_resolution_makes_no_elimination(tmp_path, capsys, monkeypatch):
    # (tau, 0) and (tau^2, 0) are one germ: they never separate
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "branches": [{"coords": [[[1, "1"]], []]}, {"coords": [[[2, "1"]], []]}],
    }))
    calls = _count_eliminations(monkeypatch)
    code, out, err = run(capsys, ["resolve", "--curve", str(path), "--max-steps", "128"])
    assert (code, out) == (3, "")
    assert "within 128 blow-ups" in err
    assert len(calls) == 0


@pytest.mark.parametrize("kind", ["P", "Pg", "Phat"])
def test_script_series_reuse_the_carried_inverse(files, capsys, monkeypatch, kind):
    argv = ["poincare", "--script", files["cusp_script.json"], "--kind", kind, "--bound", "6,6,8"]
    code, out, _ = run(capsys, argv)
    calls = _count_eliminations(monkeypatch)
    assert run(capsys, argv) == (code, out, "")
    assert code == 0 and len(calls) == 0


def test_jet_cap_bounds_the_query_only(files, capsys):
    argv = ["hilbert", "--curve", files["cusp_curve.json"], "--at", "40"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert run(capsys, argv + ["--max-jet", "128"]) == (0, out, "")
    assert run(capsys, argv + ["--max-jet", "40"]) == (0, out, "")
    code, out, err = run(capsys, argv + ["--max-jet", "39"])
    assert code == 3 and out == "" and "jet order 40 needed, cap is 39" in err


@pytest.mark.parametrize("kind", ([], ["--kind", "L"]), ids=("P", "L"))
def test_sweep_budget_error_names_the_order_it_needs(files, capsys, kind):
    # a sweep asks for the top of its box first, h(bound + 1), so a bound
    # past the cap fails at once and names that order, not the point
    # where a bottom-up sweep would have reached the cap
    argv = ["poincare", "--curve", files["cusp_curve.json"], "--bound", "99999999999999999999"]
    code, out, err = run(capsys, argv + kind)
    assert code == 3 and out == ""
    assert "jet order 100000000000000000000 needed, cap is 64" in err


def test_closed_stdout_exits_without_a_traceback(files):
    # the reader is gone before the program starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = ["poincare", "--curve", files["C.json"], "--kind", "Pg", "--bound", "4,4"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "motive_series.cli"] + argv,
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""  # no traceback, and no message either


# the only red checks are the multi-branch class-series product identity;
# the details pin the first mismatch and both coefficients of each
KNOWN_FAILURES = [
    "FAIL product-identity-Phat/transverse-lines  [first mismatch "
    "((1, 1), LaurentPoly(2 - L), LaurentPoly(L))]",
    "FAIL product-identity-Phat/three-lines  [first mismatch "
    "((1, 1, 1), LaurentPoly(3 - L), LaurentPoly(2*L))]",
    "FAIL product-identity-Phat/tangent-pair  [first mismatch "
    "((2, 2), LaurentPoly(2 - L), LaurentPoly(L))]",
    "FAIL product-identity-Phat/space-curve-C  [first mismatch "
    "((2, 2), LaurentPoly(1 - L), LaurentPoly(-1 + L))]",
    "FAIL product-identity-Phat/space-curve-Cprime  [first mismatch "
    "((4, 4), LaurentPoly(2 - L), LaurentPoly(L))]",
]


def test_verify_reports_known_defect(capsys):
    code = cli.main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4
    checks = [l for l in lines if l.startswith(("ok   ", "FAIL "))]
    assert len(checks) == 90 and lines[:-1] == checks
    assert [l for l in checks if l.startswith("FAIL")] == KNOWN_FAILURES
    assert lines[-1] == "85/90 checks passed"


TWO_ARROW_GRAPH = {
    "vertices": [{"self_int": -1}],
    "edges": [],
    "arrows": [{"attach": 1}, {"attach": 1}],
}


@pytest.mark.parametrize(
    "filtration, bound, kind",
    [
        pytest.param("curve", "3", "Pg", id="curve-3"),
        pytest.param("curve", "3,3,3", "Pg", id="curve-3,3,3"),
        pytest.param("divisorial", "3,3", "Pg", id="divisorial-3,3"),
        pytest.param("curve", "3,-1", "Pg", id="curve-3,-1"),
        pytest.param("divisorial", "3,3", "Phat", id="Phat-3,3"),
        pytest.param("divisorial", "-1", "Phat", id="Phat--1"),
        pytest.param("divisorial", "3,3", "P", id="P-3,3"),
        pytest.param("divisorial", "-1", "P", id="P--1"),
    ],
)
def test_bound_length_must_match_graph(tmp_path, capsys, filtration, bound, kind):
    g = tmp_path / "two_arrows.json"
    g.write_text(json.dumps(TWO_ARROW_GRAPH))
    argv = ["poincare", "--graph", str(g), "--filtration", filtration]
    code, out, err = run(capsys, argv + ["--kind", kind, "--bound", bound])
    assert code == 2
    assert out == ""
    assert "bound" in err


def _cusp_with(x2, c2='"1"', dim="2"):
    """The cusp curve's JSON text with the exponent and coefficient of its
    first coordinate and its ambient_dim replaced by raw JSON text."""
    coords = '[[[%s, %s]], [[3, "1"]]]' % (x2, c2)
    return '{"ambient_dim": %s, "branches": [{"coords": %s}]}' % (dim, coords)


# a JSON number that overflows a float, or is not an integer, or a bool, is
# refused with its field named, never truncated or raised as a traceback
BAD_CURVE_NUMBERS = {
    "exponent 1e400": _cusp_with("1e400"),
    "exponent 3.7": _cusp_with("3.7"),
    "exponent true": _cusp_with("true"),
    "coefficient 1e400": _cusp_with("2", "1e400"),
    "coefficient 0.5": _cusp_with("2", "0.5"),
    "coefficient false": _cusp_with("2", "false"),
    "ambient_dim 2.5": _cusp_with("2", dim="2.5"),
    "ambient_dim true": _cusp_with("2", dim="true"),
}


@pytest.mark.parametrize(
    "doc",
    [
        {"ambient_dim": 2, "branches": [{"coords": [[[2, "1/0"]], [[3, "1"]]]}]},
        {"ambient_dim": "two", "branches": CUSP_CURVE["branches"]},
    ]
    + [pytest.param(text, id=name) for name, text in BAD_CURVE_NUMBERS.items()],
)
def test_malformed_curve_numbers(tmp_path, capsys, request, doc):
    bad = tmp_path / "bad_curve.json"
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    field = {"doc0": "coefficient", "doc1": "ambient_dim"}.get(request.node.callspec.id)
    for argv in (["resolve"], ["hilbert", "--at", "2"]):
        code, out, err = run(capsys, argv + ["--curve", str(bad)])
        assert code == 2
        assert out == ""
        assert "malformed" in err
        assert (field or request.node.callspec.id.split()[0]) in err


def test_rational_string_coefficients_are_exact(tmp_path, capsys):
    # "1e400" as a string is the exact integer 10^400, so it is a valid coefficient
    doc = tmp_path / "big_coefficient.json"
    doc.write_text(_cusp_with("2", '"1e400"'))
    code, out, _ = run(capsys, ["hilbert", "--curve", str(doc), "--at", "7"])
    assert code == 0
    assert json.loads(out) == {"value": 6}


TWO_VERTICES = '"vertices": [{"self_int": -2}, {"self_int": -1}]'


@pytest.mark.parametrize(
    "field, text",
    [
        pytest.param("self_int", '{"vertices": [{"self_int": 1e400}]}', id="self_int 1e400"),
        pytest.param("self_int", '{"vertices": [{"self_int": -1.5}]}', id="self_int -1.5"),
        pytest.param("self_int", '{"vertices": [{"self_int": true}]}', id="self_int true"),
        pytest.param("edge end", '{%s, "edges": [[1, 2.0]]}' % TWO_VERTICES, id="edge 2.0"),
        pytest.param("edge end", '{%s, "edges": [[1e400, 2]]}' % TWO_VERTICES, id="edge 1e400"),
        pytest.param(
            "attach", '{"vertices": [{"self_int": -1}], "arrows": [{"attach": true}]}',
            id="attach true",
        ),
        pytest.param(
            "attach", '{"vertices": [{"self_int": -1}], "arrows": [{"attach": 1.5}]}',
            id="attach 1.5",
        ),
    ],
)
def test_malformed_graph_numbers(tmp_path, capsys, field, text):
    bad = tmp_path / "bad_graph.json"
    bad.write_text(text)
    code, out, err = run(capsys, ["poincare", "--graph", str(bad), "--bound", "2"])
    assert code == 2
    assert out == ""
    assert "malformed graph document: %s" % field in err


def test_hilbert_needs_at(files, capsys):
    code, _, err = run(capsys, ["hilbert", "--curve", files["cusp_curve.json"]])
    assert code == 2
    assert "--at" in err


@pytest.mark.parametrize(
    "poly",
    [
        "y^2-z^3",
        "{bad",
        '{"x": [{"exp": [1, 0], "coeff": "1"}]}',
        '{"terms": [{"exp": [1, 0, 2], "coeff": "1"}]}',
    ],
)
def test_malformed_poly(files, capsys, poly):
    argv = ["multiplicity", "--script", files["cusp_script.json"], "--poly", poly]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "bad polynomial %r" % poly in err


def test_json_poly_coefficients_are_exact(tmp_path, capsys):
    # y - x/10 passes through the second centre, so its multiplicity along
    # E2 is 2; the float -0.1 is not -1/10 and is refused (see MALFORMED)
    script = tmp_path / "tenth.json"
    centers = ["origin", {"on": 1, "param": "1/10"}]
    script.write_text(json.dumps({"steps": [{"center": c} for c in centers]}))
    poly = _json_poly(["0, 1", "1"], ["1, 0", '"-1/10"'])
    argv = ["multiplicity", "--script", str(script), "--poly", poly, "--format", "pretty"]
    assert run(capsys, argv) == (0, "1,2\n", "")


def test_multiplicity_of_high_powers(files, capsys):
    def vector(poly):
        argv = ["multiplicity", "--script", files["cusp_script.json"], "--poly", poly]
        code, out, _ = run(capsys, argv)
        assert code == 0
        return json.loads(out)["value"]

    x = vector("x")
    assert vector("x^1500") == [1500 * w for w in x]
    assert vector("y^1200+x^3") == [3 * w for w in x]


def test_lone_high_power_by_square_and_multiply(files, capsys, monkeypatch):
    # count the products `power` squares and multiplies with while parsing
    calls = []
    times = cli._times

    def counting(p, q):
        calls.append(1)
        return times(p, q)

    monkeypatch.setattr(cli, "_times", counting)
    argv = ["multiplicity", "--script", files["cusp_script.json"], "--poly"]
    code, out, _ = run(capsys, argv + ["x"])
    assert code == 0
    x = json.loads(out)["value"]
    calls.clear()
    code, out, _ = run(capsys, argv + ["x^100000"])
    assert code == 0
    assert json.loads(out)["value"] == [100000 * w for w in x]
    # about 2 log2(100000) products, not one per power below 100000
    assert 0 < len(calls) <= 2 * (100000).bit_length()


HALF_SCRIPT = {
    "steps": [
        {"center": "origin"},
        {"center": {"on": 1, "param": "1/2"}},
        {"center": {"corner": [1, 2]}},
    ]
}


@pytest.mark.parametrize(
    "poly, want", (("y^2000-x^3", [3, 3, 6]), ("(y-x/2)^300+x^7", [7, 7, 14]))
)
def test_large_poly_is_lifted_once_per_chart(tmp_path, capsys, monkeypatch, poly, want):
    from motive_series import blowup

    path = tmp_path / "half.json"
    path.write_text(json.dumps(HALF_SCRIPT))
    lifted = []
    substitute = blowup.Chart._substitute

    def counting(chart, p):
        lifted.append(chart)
        return substitute(chart, p)

    monkeypatch.setattr(blowup.Chart, "_substitute", counting)
    code, out, _ = run(capsys, ["multiplicity", "--script", str(path), "--poly", poly])
    assert code == 0
    assert json.loads(out)["value"] == want
    # one substitution into each chart on the way to the three hosts: the
    # first chart of the origin's blow-up (host of E1), both of E2's point
    # (the first hosts E2, the second holds the corner of E1 and E2) and
    # the first of the corner's (host of E3)
    assert len(lifted) == len(set(lifted)) == 4


def test_poly_products_are_charged_coefficient_words():
    # 301 x 301 term products, each of two 7,300-bit coefficients: inside
    # the degree, bit and term-product bounds, refused for its words
    big = "(x+y)^300*2^7000"
    assert len(cli._parse_poly(big)) == 301
    with pytest.raises(InvalidInput, match="words of term products"):
        cli._parse_poly("(%s)*(%s)" % (big, big))
    # one word per coefficient: charged one word per term product
    assert cli._times({(i, 0): Fraction(1) for i in range(100)},
                      {(0, j): Fraction(1) for j in range(1000)})
    with pytest.raises(ValueError):
        cli._times({(i, 0): Fraction(1) for i in range(100)},
                   {(0, j): Fraction(1) for j in range(1001)})


# -- malformed input: exit 2 or 3 with a message, never a traceback ------------

BAD_DOCS = {
    "non-unimodular.json": {"vertices": [{"self_int": -2}], "edges": [], "arrows": []},
    "det-0.json": {
        "vertices": [{"self_int": -1}, {"self_int": -1}],
        "edges": [[1, 2]],
        "arrows": [],
    },
    "cycle.json": {
        "vertices": [{"self_int": -1}] * 3,
        "edges": [[1, 2], [2, 3], [1, 3]],
        "arrows": [],
    },
    "steps-not-a-list.json": {"steps": 5},
    "step-not-a-dict.json": {"steps": ["origin"]},
    "origin-twice.json": {"steps": [{"center": "origin"}, {"center": "origin"}]},
}
for name, center in (
    ("param-1-0", {"on": 1, "param": "1/0"}),
    ("param-abc", {"on": 1, "param": "abc"}),
    ("param-missing", {"on": 1}),
    ("param-list", {"on": 1, "param": [1]}),
    ("param-float", {"on": 1, "param": 0.1}),
    ("param-true", {"on": 1, "param": True}),
    ("on-x", {"on": "x", "param": "0"}),
    ("on-9", {"on": 9, "param": "0"}),
    ("corner-1", {"corner": [1]}),
    ("corner-int", {"corner": 5}),
    ("corner-absent", {"corner": [1, 2]}),
    ("center-int", 3),
    ("on-float", {"on": 1.5, "param": "0"}),
    ("on-true", {"on": True, "param": "0"}),
    ("on-str", {"on": "1", "param": "0"}),
    ("corner-float", {"corner": [1.0, 2]}),
    ("corner-false", {"corner": [2, False]}),
):
    BAD_DOCS[name + ".json"] = {"steps": [{"center": "origin"}, {"center": center}]}
# the words the message must hold, where more than "error" is asserted
CULPRITS = {
    "query length": "query length != number of components",
    "component 9": "no component 9",
    "component 0": "no component 0",
    "script param-float": "{'on': 1, 'param': 0.1}",
    "script param-true": "{'on': 1, 'param': True}",
    "script on-float": "{'on': 1.5, 'param': '0'}",
    "script on-true": "{'on': True, 'param': '0'}",
    "script on-str": "{'on': '1', 'param': '0'}",
    "script corner-float": "{'corner': [1.0, 2]}",
    "script corner-false": "{'corner': [2, False]}",
    "max-jet -1": "--max-jet",
    "max-steps -1": "--max-steps",
    "poly coeff -0.1": "coeff -0.1 is not an integer or a rational string",
    "poly coeff true": "coeff True is not an integer or a rational string",
    "poly exponent 1.0": "exponent 1.0 is not an integer",
    "verify --format": "unrecognized arguments: --format json",
    "route A P huge": "entry 1 of --bound is 99999999999999999999, above --max-jet 64",
    "route A Phat huge": "entry 1 of --bound is 99999999999999999999, above --max-jet 64",
    "route A Pg 10^8": "entry 1 of --bound is 100000000, above --max-jet 64",
    "graph --max-jet": "unrecognized arguments: --max-jet 3",
}

MULT = ["multiplicity", "--script", "@cusp_script.json", "--poly"]


def _json_poly(*terms):
    """A --poly JSON document; each term is [exponent text, coefficient text]."""
    return '{"terms": [%s]}' % ", ".join('{"exp": [%s], "coeff": %s}' % (e, c) for e, c in terms)


MALFORMED = [
    pytest.param(MULT + [poly], id="poly " + poly[:20])
    for poly in (
        "x**(10**10)",
        "x^-1",
        "1/0*x",
        "{bad",
        "",
        "z",
        "x^100001",
        "(x+y+1)^2000",
        "2^10000*(2^10000)",
        "x^2^3",
        "x/y",
        "(x",
        "(" * 3000 + "x" + ")" * 3000,
        "((x+y)^300*2^7000)*((x+y)^300*2^7000)",
    )
] + [
    pytest.param(["poincare", "--graph", "@non-unimodular.json", "--bound", "3"], id="non-unimodular"),
    pytest.param(["poincare", "--graph", "@det-0.json", "--bound", "3,3"], id="det-0"),
    pytest.param(["poincare", "--graph", "@cycle.json", "--bound", "3,3,3"], id="cycle"),
    pytest.param(["poincare", "--graph", "@single.json", "--bound", "3,a"], id="vector 3,a"),
    pytest.param(["poincare", "--graph", "@single.json", "--bound", ""], id="vector empty"),
    pytest.param(["hilbert", "--curve", "@cusp_curve.json", "--at", "1,,2"], id="vector 1,,2"),
    pytest.param(["hilbert", "--curve", "@cusp_curve.json", "--at", "1,2"], id="vector length"),
    pytest.param(["hilbert", "--script", "@cusp_script.json", "--at", "1,2"], id="query length"),
    pytest.param(MULT + ["x", "--at", "a"], id="component a"),
    pytest.param(MULT + ["x", "--at", "1,2"], id="component 1,2"),
    pytest.param(MULT + ["x", "--at", "9"], id="component 9"),
    pytest.param(MULT + ["x", "--at", "0"], id="component 0"),
    pytest.param(
        ["hilbert", "--script", "@cusp_script.json", "--at", "3,4,5", "--max-jet", "-1"],
        id="max-jet -1",
    ),
    pytest.param(
        ["resolve", "--curve", "@cusp_curve.json", "--max-steps", "-1"], id="max-steps -1"
    ),
    # a JSON float or bool is refused, never read as its binary value or as 1
    pytest.param(MULT + [_json_poly(["1, 0", "-0.1"])], id="poly coeff -0.1"),
    pytest.param(MULT + [_json_poly(["1, 0", "true"])], id="poly coeff true"),
    pytest.param(MULT + [_json_poly(["1.0, 0", "1"])], id="poly exponent 1.0"),
    # each subcommand takes only the options it reads
    pytest.param(["verify", "--format", "json"], id="verify --format"),
    pytest.param(["graph", "--script", "@cusp_script.json", "--max-jet", "3"], id="graph --max-jet"),
    # route A windows past --max-jet: each once ran for minutes or ran out of memory
    pytest.param(
        ["poincare", "--graph", "@single.json", "--kind", "P", "--bound", "99999999999999999999"],
        id="route A P huge",
    ),
    pytest.param(
        ["poincare", "--graph", "@single.json", "--kind", "Phat", "--bound", "99999999999999999999"],
        id="route A Phat huge",
    ),
    pytest.param(
        ["poincare", "--graph", "@single.json", "--kind", "Pg", "--bound", "100000000"],
        id="route A Pg 10^8",
    ),
] + [
    pytest.param(["graph", "--script", "@" + name], id="script " + name[: -len(".json")])
    for name in BAD_DOCS
    if "steps" in BAD_DOCS[name]
]


@pytest.mark.parametrize("argv", MALFORMED)
def test_malformed_input_exits_cleanly(files, tmp_path, capsys, argv, request):
    for name, doc in BAD_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [files.get(a[1:], str(tmp_path / a[1:])) if a.startswith("@") else a for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    budget = request.node.callspec.id.startswith("route A")
    assert code == (3 if budget else 2)
    assert out == ""
    assert ("precision exhausted" if budget else "error") in err and "Traceback" not in err
    assert CULPRITS.get(request.node.callspec.id, "error") in err


# -- the JSON writer against json.dumps ----------------------------------------

WRITER = settings(max_examples=100, derandomize=True, database=None, deadline=None)
json_scalars = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers(-3, 3)
    | st.integers(-(10**30), 10**30)
    | st.text(max_size=6)
    | st.sampled_from(["", "\u00e9t\u00e9", "\x00\n\t\"\\", "\U0001f600", "\u2028"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(-5, 5), inner, max_size=3),
    max_leaves=15,
)


@WRITER
@given(json_values)
def test_json_text_matches_json_dumps(value):
    want = json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1)
    assert cli._json_text(value) == want


def test_json_text_of_series_documents(files, capsys):
    argv = ["poincare", "--curve", files["C.json"], "--kind", "Pg", "--bound", "4,4"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    assert cli._json_text({}) == "{}" and cli._json_text([[], {}]) == "[\n []," + "\n {}\n]"


big_ints = st.integers(-(2**70), 2**70) | st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**65) - 3])
laurent_terms = st.dictionaries(st.integers(-6, 6), big_ints.filter(bool), min_size=1, max_size=4)


@st.composite
def series_values(draw):
    """An MSeries in 1-4 variables on a window [lo, hi] with lo = 0 or -1 per
    variable (L and Lg use -1), with 0-6 coefficients."""
    n = draw(st.integers(1, 4))
    lo = tuple(draw(st.sampled_from((0, -1))) for _ in range(n))
    hi = tuple(draw(st.integers(0, 3)) for _ in range(n))
    exps = st.tuples(*(st.integers(a, b) for a, b in zip(lo, hi)))
    coeffs = draw(st.dictionaries(exps, laurent_terms.map(LaurentPoly), max_size=6))
    return MSeries(n, lo, hi, coeffs)


@WRITER
@given(series_values())
def test_series_writer_matches_json_dumps(series):
    want = json.dumps(series.to_json(), sort_keys=True, separators=(",", ": "), indent=1)
    assert cli._series_json(series) == want


def test_series_writer_on_empty_and_signed_series():
    for series in (
        MSeries(2, (-1, 0), (2, 2), {}),
        MSeries(1, (0,), (3,), {(2,): LaurentPoly({-3: -(2**80), 4: 2**64})}),
    ):
        want = json.dumps(series.to_json(), sort_keys=True, separators=(",", ": "), indent=1)
        assert cli._series_json(series) == want == cli._json_text(series.to_json())


def dumps(series):
    return json.dumps(series.to_json(), sort_keys=True, separators=(",", ": "), indent=1)


def test_series_writer_sorts_dicts_built_in_descending_order():
    # curve_series' _add_into can leave the keys of a coefficient descending
    coeffs = {
        e: LaurentPoly({4: 1, 3: -e[0], 0: 2**65, -2: 5 - e[1]}) for e in ((3, 1), (2, 2), (0, 1))
    }
    assert all(list(c.terms) == sorted(c.terms, reverse=True) for c in coeffs.values())
    series = MSeries._trusted((3, 2), coeffs)
    assert cli._series_json(series) == dumps(series)


def test_series_writer_on_a_series_in_no_variables():
    for coeffs in ({}, {(): LaurentPoly({1: -2, 0: 7})}):
        series = MSeries(0, (), (), coeffs)
        assert cli._series_json(series) == dumps(series)


def test_series_writer_past_the_template_cache():
    # more (pairs, variables) shapes than the cache holds, each written twice
    shapes = [(k, n) for n in range(1, 10) for k in range(1, 31)]
    assert len(shapes) > cli._term_template.cache_info().maxsize
    for _ in range(2):
        for k, n in shapes:
            coeff = LaurentPoly(dict.fromkeys(range(k), -k))
            series = MSeries._trusted((1,) * n, {(1,) * n: coeff})
            assert cli._series_json(series) == dumps(series)


# -- the --poly parser against sympy --------------------------------------------

POLY_ATOMS = st.sampled_from(["x", "y", "0", "1", "2", "7", "1/2", "3/4", "10/6"]) | st.builds(
    "{}{}{}".format, st.sampled_from(["x", "y"]), st.sampled_from(["^", "**"]), st.integers(0, 6)
)


def _poly_ops(inner):
    return (
        st.builds("{}{}{}".format, inner, st.sampled_from(["+", "-", "*", " + ", "*-"]), inner)
        | st.builds("-{}".format, inner)
        | st.builds("({}){}{}".format, inner, st.sampled_from(["^", "**"]), st.integers(0, 3))
        | st.builds("({})".format, inner)
        | st.builds("({})/{}".format, inner, st.integers(1, 6))
    )


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.recursive(POLY_ATOMS, _poly_ops, max_leaves=6))
def test_poly_parser_matches_sympy(text):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    expr = sympy.sympify(text.replace("^", "**"), locals={"x": x, "y": y})
    want = {
        (int(a), int(b)): Fraction(str(c))
        for (a, b), c in sympy.Poly(sympy.expand(expr), x, y).terms()
        if c
    }
    assert cli._parse_poly(text) == want
