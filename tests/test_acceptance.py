"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure).  Criterion 8c asserts a product identity that provably fails
for curves with two or more branches; it is kept as stated and expected
to be red.  See the failing assertion message for the counterexample.
"""

from fractions import Fraction

import pytest

from motive_series import (
    Branch,
    Curve,
    auto_resolve,
    build_intersection,
    curve_series,
    divisorial_poincare_product,
    divisorial_poincare_product_edges,
    divisorial_series,
    enumerate_terms,
    hilbert_ie_series,
    hoskin_deligne,
    semigroup_class_series,
    semigroup_members,
    series,
    term_codimension,
    w_of_nhat,
)
from motive_series.blowup import DivisorialOracle, run_script
from motive_series.jets import HilbertOracle, product_identity_mismatch, remark_identity_check
from motive_series.laurent import LaurentPoly
from motive_series.mseries import box, first_mismatch, zero_vec
from motive_series.verify import (
    CHAIN_SCRIPT,
    CUSP_EXTRA_SCRIPT,
    CUSP_SCRIPT,
    SINGLE_SCRIPT,
)

ONE = Fraction(1)
UNIT = LaurentPoly.one()
Q = LaurentPoly.q_power(1)


def report(criterion, ok, note=""):
    print("ACCEPTANCE %-3s %s %s" % (criterion, "PASS" if ok else "FAIL", note))
    return ok


@pytest.fixture(scope="module")
def fixtures():
    data = {}
    data["smooth"] = Curve(2, [Branch([{1: ONE}, {}])])
    data["lines"] = Curve(2, [Branch([{1: ONE}, {}]), Branch([{}, {1: ONE}])])
    data["cusp"] = Curve(2, [Branch([{2: ONE}, {3: ONE}])])
    data["C"] = Curve(
        5,
        [
            Branch([{2: ONE}, {3: ONE}, {2: ONE}, {4: ONE}, {5: ONE}]),
            Branch([{2: ONE}, {3: ONE}, {4: ONE}, {2: ONE}, {6: ONE}]),
        ],
    )
    data["Cprime"] = Curve(
        6,
        [
            Branch([{3: ONE}, {4: ONE}, {5: ONE}, {4: ONE}, {5: ONE}, {6: ONE}]),
            Branch([{3: ONE}, {4: ONE}, {5: ONE}, {5: ONE}, {6: ONE}, {7: ONE}]),
        ],
    )
    data["oracles"] = {k: HilbertOracle(c) for k, c in data.items()}
    return data


def curve_window(name):
    return {
        "smooth": (8,),
        "lines": (5, 5),
        "cusp": (8,),
        "C": (6, 6),
        "Cprime": (6, 6),
    }[name]


def test_criterion_1_paper_examples(fixtures):
    oc = fixtures["oracles"]["C"]
    ocp = fixtures["oracles"]["Cprime"]
    ok = True
    for oracle in (oc, ocp):
        p = series(oracle, "P", (6, 6))
        ok = ok and p.coeffs == {(0, 0): UNIT, (3, 3): UNIT}
    ok = ok and oc.hilbert((3, 3)) == 3 and ocp.hilbert((3, 3)) == 1
    expected_s = (
        {(0, 0), (3, 3)}
        | {(2, k) for k in range(2, 7)}
        | {(l, 2) for l in range(3, 7)}
        | {(r, s) for r in range(4, 7) for s in range(4, 7)}
    )
    expected_sp = {(0, 0), (3, 3)} | {(r, s) for r in range(4, 7) for s in range(4, 7)}
    ok = ok and semigroup_members(oc, (6, 6)) == expected_s
    ok = ok and semigroup_members(ocp, (6, 6)) == expected_sp
    assert report(1, ok, "series, Hilbert values and value semigroups of C, C'")


def test_criterion_2_specialization(fixtures):
    ok = True
    for name in ("smooth", "lines", "cusp", "C", "Cprime"):
        oracle = fixtures["oracles"][name]
        hi = curve_window(name)
        pg, p = series(oracle, "Pg", hi), series(oracle, "P", hi)
        for v in box(zero_vec(len(hi)), hi):
            if pg.coeff(v).eval_one() != p.coeff(v).eval_one():
                ok = False
                break
    assert report(2, ok, "generalized coefficients specialize at q=1")


def test_criterion_3_curve_formula_vs_oracle(fixtures):
    _, g_cusp, _ = auto_resolve(fixtures["cusp"])
    f_cusp = curve_series(g_cusp, (8,))
    o_cusp = series(fixtures["oracles"]["cusp"], "Pg", (8,))
    ok = first_mismatch(f_cusp, o_cusp, (0,), (8,)) is None

    _, g_lines, _ = auto_resolve(fixtures["lines"])
    f_lines = curve_series(g_lines, (4, 4))
    o_lines = series(fixtures["oracles"]["lines"], "Pg", (4, 4))
    ok = ok and first_mismatch(f_lines, o_lines, (0, 0), (4, 4)) is None
    ok = ok and f_lines.coeff((2, 1)) == Q ** 2 - Q ** 3
    assert report(3, ok, "resolution formula matches jet oracle (cusp, lines)")


def test_criterion_4_resolution_independence(fixtures):
    _, g_min, _ = auto_resolve(fixtures["cusp"])
    minimal = curve_series(g_min, (8,))
    bigger = run_script(CUSP_EXTRA_SCRIPT).graph((2,))
    nonminimal = curve_series(bigger, (8,))
    ok = first_mismatch(minimal, nonminimal, (0,), (8,)) is None
    assert report(4, ok, "series is identical on a non-minimal resolution")


def test_criterion_5_divisorial_formula_vs_oracle():
    ok = True
    for script, hi in ((SINGLE_SCRIPT, (6,)), (CHAIN_SCRIPT, (6, 6))):
        m = run_script(script)
        g = m.graph()
        formula = divisorial_series(g, hi)
        oracle = hilbert_ie_series(DivisorialOracle(m).hilbert, g.nvertices, hi)
        ok = ok and first_mismatch(formula, oracle, zero_vec(len(hi)), hi) is None
    assert report(5, ok, "divisorial formula matches jet oracle (single, chain)")


def test_criterion_6_codimension_consistency():
    ok = True
    for script, hi in (
        (SINGLE_SCRIPT, (6,)),
        (CHAIN_SCRIPT, (6, 6)),
        (CUSP_SCRIPT, (6, 6, 6)),
        (CUSP_EXTRA_SCRIPT, (4, 4, 4, 4)),
    ):
        m = run_script(script)
        g = m.graph()
        d = build_intersection(g)
        oracle = DivisorialOracle(m)
        for term in enumerate_terms(g, d, hi, "divisorial"):
            nhat = term.nhat(g)
            hd = hoskin_deligne(d, g, nhat)
            if any(nhat) and hd != oracle.hilbert(w_of_nhat(d, nhat)):
                ok = False
                break
            if term_codimension(term, d, g) != hd + sum(nhat):
                ok = False
                break
    assert report(6, ok, "closed codimension equals jet rank at semigroup points")


def test_criterion_7_class_series_products():
    ok = True
    for script, hi in (
        (SINGLE_SCRIPT, (8,)),
        (CHAIN_SCRIPT, (8, 8)),
        (CUSP_SCRIPT, (8, 8, 8)),
    ):
        g = run_script(script).graph()
        zero = zero_vec(len(hi))
        t3 = semigroup_class_series(g, hi).at_one()
        e10 = divisorial_poincare_product(g, hi)
        e11 = divisorial_poincare_product_edges(g, hi)
        ok = ok and first_mismatch(t3, e10, zero, hi) is None
        ok = ok and first_mismatch(e10, e11, zero, hi) is None
    assert report(7, ok, "class series at L=1 equals both product forms")


def _identity_failures(fixtures, kind):
    failures = []
    for name in ("smooth", "lines", "cusp", "C", "Cprime"):
        hi = (6,) * fixtures[name].nbranches
        mm = product_identity_mismatch(fixtures["oracles"][name], kind, hi)
        if mm is not None:
            failures.append((name, mm))
    return failures


def test_criterion_8a_classical_identity(fixtures):
    failures = _identity_failures(fixtures, "P")
    assert report("8a", not failures, "classical series against the jump series"), failures


def test_criterion_8b_generalized_identity(fixtures):
    failures = _identity_failures(fixtures, "Pg")
    assert report("8b", not failures, "generalized series against its jump series"), failures


def test_criterion_8c_class_series_identity(fixtures):
    """Stated product identity for the fibre-class series.

    This identity is provably false for curves with r >= 2 branches:
    classes of projectivized quotients are not additive along chains of
    subspaces, so the telescoping argument behind the classical and
    generalized identities does not carry over.  Already for two
    transverse lines the coefficient at (1,1) is 2 - L on the left and L
    on the right.  The check is kept exactly as stated; it is expected
    to fail.
    """
    failures = _identity_failures(fixtures, "Phat")
    assert report(
        "8c", not failures, "fibre-class series product identity"
    ), "counterexamples: %s" % (
        [(name, (e, a.format(), b.format())) for name, (e, a, b) in failures],
    )


def test_criterion_9_hilbert_reconstruction(fixtures):
    ok = True
    for name, hi in (("smooth", (5,)), ("lines", (4, 4)), ("C", (6, 6))):
        passed, mismatch = remark_identity_check(fixtures[name], hi)
        ok = ok and passed
    assert report(9, ok, "Hilbert series rebuilt from subsystem Poincare series")


def test_criterion_10_structural_invariants(fixtures):
    ok = True
    # every fixture modification is a certified unimodular tree and the
    # hand-picked curvette polynomials reproduce the rows of M
    from motive_series.verify import CURVETTES, modification_fixtures

    mods = modification_fixtures()
    for name, (m, _) in mods.items():
        d = build_intersection(m.graph())
        for comp, poly in CURVETTES.get(name, ()):
            ok = ok and m.multiplicity_vector(poly) == d.row(comp)
    # coefficient shapes: q-polynomials for generalized series, L-polynomials
    # for class series
    pg = series(fixtures["oracles"]["C"], "Pg", (6, 6))
    ok = ok and all(c.only_nonpos_powers() for c in pg.coeffs.values())
    ph = series(fixtures["oracles"]["C"], "Phat", (6, 6))
    ok = ok and all(c.only_nonneg_powers() for c in ph.coeffs.values())
    g = run_script(CUSP_SCRIPT).graph()
    t2 = divisorial_series(g, (6, 6, 6))
    ok = ok and all(c.only_nonpos_powers() for c in t2.coeffs.values())
    t3 = semigroup_class_series(g, (6, 6, 6))
    ok = ok and all(c.only_nonneg_powers() for c in t3.coeffs.values())
    assert report(10, ok, "graphs, curvette rows, and coefficient shapes")
