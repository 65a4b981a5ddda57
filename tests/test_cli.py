import json

import pytest

from motive_series import cli

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


def test_verify_reports_known_defect(capsys):
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    assert code == 4
    failing = [l for l in out.splitlines() if l.startswith("FAIL")]
    # the only red checks are the multi-branch class-series product identity
    assert failing
    assert all("product-identity-Phat" in l for l in failing)


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


@pytest.mark.parametrize(
    "doc",
    [
        {"ambient_dim": 2, "branches": [{"coords": [[[2, "1/0"]], [[3, "1"]]]}]},
        {"ambient_dim": "two", "branches": CUSP_CURVE["branches"]},
    ],
)
def test_malformed_curve_numbers(tmp_path, capsys, doc):
    bad = tmp_path / "bad_curve.json"
    bad.write_text(json.dumps(doc))
    for argv in (["resolve"], ["hilbert", "--at", "2"]):
        code, _, err = run(capsys, argv + ["--curve", str(bad)])
        assert code == 2
        assert "malformed" in err


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
    from motive_series import polys

    calls = []
    pmul = polys.pmul

    def counting(p, q):
        calls.append(1)
        return pmul(p, q)

    monkeypatch.setattr(polys, "pmul", counting)
    argv = ["multiplicity", "--script", files["cusp_script.json"], "--poly"]
    code, out, _ = run(capsys, argv + ["x"])
    assert code == 0
    x = json.loads(out)["value"]
    calls.clear()
    code, out, _ = run(capsys, argv + ["x^100000"])
    assert code == 0
    assert json.loads(out)["value"] == [100000 * w for w in x]
    # per component: one product of the x- and y-powers, and about
    # 2 log2(100000) products for x^100000
    assert len(calls) <= len(x) * (2 * (100000).bit_length() + 1)
