import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_series import Branch, Curve
from motive_series.blowup import (
    DivisorialOracle,
    Modification,
    auto_resolve,
    run_script,
)
from motive_series.errors import (
    CenterNotFound,
    CornerAmbiguous,
    InvalidInput,
    NotBlowupGraph,
    NotUnimodular,
    PrecisionExhausted,
)
from motive_series.formulas import (
    divisorial_poincare_product,
    divisorial_series,
    hilbert_ie_series,
    semigroup_class_series,
)
from motive_series.graph import (
    DualGraph, build_intersection, certify_inverse, hoskin_deligne, w_of_nhat,
)
from motive_series.jets import HilbertOracle, JetRankOracle, series
from motive_series.mseries import box, first_mismatch, zero_vec
from motive_series.polys import clean, pmul, poly2_compose, u_order_in_first
from motive_series.verify import modification_fixtures
from test_curves import assert_line_reads_match_point_reads, by_point
from test_formulas import LONG_PARAMS, blowup_scripts
from test_graph import eliminated_inverse, intersection_matrix

ZERO, ONE = Fraction(0), Fraction(1)

SINGLE_SCRIPT = {"steps": [{"center": "origin"}]}
CHAIN_SCRIPT = {"steps": [{"center": "origin"}, {"center": {"on": 1, "param": "0"}}]}
CUSP_SCRIPT = {
    "steps": [
        {"center": "origin"},
        {"center": {"on": 1, "param": "0"}},
        {"center": {"corner": [1, 2]}},
    ]
}

X = {(1, 0): ONE}
Y = {(0, 1): ONE}
CUSP_POLY = {(0, 2): ONE, (3, 0): -ONE}


def test_script_graphs():
    assert run_script(SINGLE_SCRIPT).graph().self_ints == (-1,)
    chain = run_script(CHAIN_SCRIPT).graph()
    assert chain.self_ints == (-2, -1) and chain.edges == ((0, 1),)
    cusp = run_script(CUSP_SCRIPT).graph()
    assert cusp.self_ints == (-3, -2, -1)
    assert cusp.edges == ((0, 2), (1, 2))


def test_multiplicities():
    single = run_script(SINGLE_SCRIPT)
    assert single.multiplicity(0, X) == 1
    cusp = run_script(CUSP_SCRIPT)
    assert cusp.multiplicity_vector(CUSP_POLY) == (2, 3, 6)
    assert cusp.multiplicity_vector(X) == (1, 1, 2)
    assert cusp.multiplicity_vector(Y) == (1, 2, 3)


def composed_maps(m):
    """Every chart's (xmap, ymap) by whole compositions: the parent's maps
    at (u + pu, uv + pv) for the first chart of a blow-up, at
    (uv + pu, v + pv) for the second."""
    maps = {id(m.charts[0]): (X, Y)}
    for chart in m.charts[1:]:
        pu, pv = chart.point
        first, second = ({(1, 0): ONE}, {(1, 1): ONE}) if chart.first else ({(1, 1): ONE}, Y)
        umap, vmap = clean({**first, (0, 0): pu}), clean({**second, (0, 0): pv})
        maps[id(chart)] = tuple(poly2_compose(p, umap, vmap) for p in maps[id(chart.parent)])
    return maps


def assert_lifts_match_composition(m, g):
    maps = composed_maps(m)
    for chart in m.charts:
        assert (chart.xmap, chart.ymap) == maps[id(chart)]
        assert all(list(p) == sorted(p) for p in (chart.xmap, chart.ymap))
        assert chart.lift(g) == poly2_compose(g, *maps[id(chart)])
    want = tuple(u_order_in_first(poly2_compose(g, *maps[id(host)])) for host in m.charts[1::2])
    assert m.multiplicity_vector(g) == want


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(max_steps=6, params=("2/3", "-5/7", "4/9", "-7/3", "9/7", "1")), small_polys)
def test_lifts_match_composition(script, g):
    # each chart's maps are one Taylor shift and one monomial relabel of its
    # parent's, computed on first use; the reference is poly2_compose
    assert_lifts_match_composition(run_script(script), g)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(small_polys)
def test_lifts_match_composition_off_the_axes(g):
    # a first blow-up away from the origin shifts both coordinates
    m = Modification.base().blow_up_at(0, (Fraction(2, 3), Fraction(-5, 7)))
    assert m.charts[1].xmap == {(0, 0): Fraction(2, 3), (1, 0): ONE}
    assert m.charts[1].ymap == {(0, 0): Fraction(-5, 7), (1, 1): ONE}
    m = m.blow_up({"on": 1, "param": "4/9"}).blow_up({"corner": [1, 2]})
    assert_lifts_match_composition(m, g)


def test_multiplicity_rejects_zero():
    m = run_script(SINGLE_SCRIPT)
    with pytest.raises(InvalidInput):
        m.multiplicity(0, {})


def test_multiplicity_additive():
    m = run_script(CUSP_SCRIPT)
    rng = random.Random(11)
    for _ in range(10):
        def rand_poly():
            p = {}
            for _ in range(rng.randint(1, 3)):
                p[(rng.randint(0, 2), rng.randint(0, 2))] = Fraction(
                    rng.randint(1, 4)
                )
            return p

        f, g = rand_poly(), rand_poly()
        wf = m.multiplicity_vector(f)
        wg = m.multiplicity_vector(g)
        assert m.multiplicity_vector(pmul(f, g)) == tuple(
            a + b for a, b in zip(wf, wg)
        )


def test_divisorial_hilbert_single():
    m = run_script(SINGLE_SCRIPT)
    for n in range(7):
        assert DivisorialOracle(m).hilbert((n,)) == n * (n + 1) // 2
    assert DivisorialOracle(m).hilbert((0,)) == 0


def test_divisorial_hilbert_matches_closed_form():
    m = run_script(CUSP_SCRIPT)
    g = m.graph()
    d = build_intersection(g)
    oracle = DivisorialOracle(m)
    assert oracle.hilbert(w_of_nhat(d, (0, 0, 1))) == hoskin_deligne(d, g, (0, 0, 1))
    assert oracle.hilbert((2, 3, 6)) == 5


def test_divisorial_jet_cap_and_kept_lifts():
    m = run_script(CUSP_SCRIPT)
    assert DivisorialOracle(m, max_jet=6).hilbert((2, 3, 6)) == 5
    with pytest.raises(PrecisionExhausted, match="jet order 7 needed, cap is 6"):
        DivisorialOracle(m, max_jet=6).hilbert((2, 3, 7))
    kept = DivisorialOracle(m)
    for w in ((4, 6, 12), (1, 1, 1), (3, 5, 9), (5, 7, 3)):
        assert kept.hilbert(w) == DivisorialOracle(m).hilbert(w), w
    # increasing queries: each table is kept while long enough, else rebuilt
    # at twice its order or more; then a smaller point on the longer tables.
    # The cusp's chart maps are monomials, so its lifts never get truncated:
    # a free point at param 1 gives lifts with terms past every table order
    free = run_script(
        {"steps": [{"center": c} for c in ("origin", {"on": 1, "param": "1"}, {"corner": [1, 2]})]}
    )
    for mod in (m, free):
        rising = DivisorialOracle(mod)
        for w in ((1, 1, 1), (3, 5, 9), (4, 6, 12), (9, 13, 26), (2, 4, 7)):
            assert rising.hilbert(w) == DivisorialOracle(mod).hilbert(w), w


@pytest.mark.parametrize(
    "make",
    (
        lambda cap: HilbertOracle(Curve(2, [Branch([{2: ONE}, {3: ONE}])]), max_jet=cap),
        lambda cap: DivisorialOracle(run_script(CUSP_SCRIPT), max_jet=cap),
    ),
    ids=("curve", "divisorial"),
)
def test_both_oracles_share_the_query_checks(make):
    oracle = make(6)
    assert type(oracle).hilbert is JetRankOracle.hilbert
    n = oracle.nvars
    with pytest.raises(InvalidInput, match="query length != number of"):
        oracle.hilbert((1,) * (n + 1))
    assert oracle.hilbert((2,) * n) == make(6).hilbert((2,) * n)
    with pytest.raises(PrecisionExhausted, match="jet order 7 needed, cap is 6"):
        oracle.hilbert((7,) * n)
    assert oracle._horizon == 2  # a refused query does not raise the horizon
    assert oracle.hilbert((-1,) * n) == oracle.hilbert((0,) * n) == 0


@pytest.mark.parametrize("name", sorted(modification_fixtures()))
def test_divisorial_oracle_series_match_route_a(name):
    # route B's P, Pg and Phat against the closed formulas; Phat is the
    # fibre class series, checked here beyond its value at L = 1
    m, hi = modification_fixtures()[name]
    g = m.graph()
    oracle = DivisorialOracle(m)
    for kind, formula in (
        ("P", divisorial_poincare_product),
        ("Pg", divisorial_series),
        ("Phat", semigroup_class_series),
    ):
        got = series(oracle, kind, hi)
        assert first_mismatch(got, formula(g, hi), zero_vec(len(hi)), hi) is None, kind


def test_divisorial_hilbert_monotone():
    m = run_script(CHAIN_SCRIPT)
    oracle = DivisorialOracle(m)
    for w in [(0, 0), (1, 1), (1, 2), (2, 2)]:
        h = oracle.hilbert(w)
        for k in range(2):
            up = tuple(x + (1 if i == k else 0) for i, x in enumerate(w))
            assert oracle.hilbert(up) >= h


def unloaded_codim(g, d, w):
    """h(w) by the third route, unloading and Hoskin-Deligne.

    Every germ f has (f).E_i = 0, so -E_i^2 w_i(f) >= the sum of w_j(f)
    over the neighbours j of i.  Raising each w_i to the ceiling of that sum
    over -E_i^2 until nothing changes gives the least w' >= w with
    -w'A >= 0, and J(w) = J(w'), whose codimension is Hoskin-Deligne at
    nhat = -w'A (d = build_intersection(g))."""
    s, A, w = d.size, intersection_matrix(g), list(w)
    changed = True
    while changed:
        changed = False
        for i in range(s):
            # the ceiling of the neighbours' sum over -A[i][i] > 0
            need = -(sum(A[i][j] * w[j] for j in range(s) if j != i) // A[i][i])
            if need > w[i]:
                w[i], changed = need, True
    nhat = tuple(-sum(w[j] * A[j][i] for j in range(s)) for i in range(s))
    return hoskin_deligne(d, g, nhat)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(), st.data())
def test_divisorial_oracle_matches_unloading(script, data):
    # route B against the third route, which reads only the dual graph, on whole boxes
    m = run_script(script)
    g = m.graph()
    d = build_intersection(g)
    hi = tuple(data.draw(st.integers(1, 5)) for _ in range(d.size))
    oracle = DivisorialOracle(m)
    for w in box(zero_vec(d.size), hi):
        assert oracle.hilbert(w) == unloaded_codim(g, d, w), w
    # P, Pg and Phat on [0, hi - 1] read h only on the box ranked above
    ranked = len(by_point(oracle._hs))
    top = tuple(x - 1 for x in hi)
    for kind, formula in (
        ("P", divisorial_poincare_product),
        ("Pg", divisorial_series),
        ("Phat", semigroup_class_series),
    ):
        got = series(oracle, kind, top)
        assert first_mismatch(got, formula(g, top), zero_vec(d.size), top) is None, kind
    assert len(by_point(oracle._hs)) == ranked


# the params of blowup_scripts, each sent to a rational with another
# denominator, one to one, so a script stays valid
RATIONAL_PARAMS = {"1": "2/3", "-1": "-5/7", "2": "4/9", "1/2": "-7/3", "-3": "9/7"}


def rational_params(script):
    steps = []
    for step in script["steps"]:
        center = step["center"]
        if isinstance(center, dict) and "param" in center:
            center = {"on": center["on"], "param": RATIONAL_PARAMS[center["param"]]}
        steps.append({"center": center})
    return {"steps": steps}


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(blowup_scripts().map(rational_params), st.data())
def test_divisorial_oracle_matches_unloading_at_rational_params(script, data):
    # the chart maps have denominators 3, 7 and 9, which the oracle clears
    m = run_script(script)
    g = m.graph()
    d = build_intersection(g)
    hi = tuple(data.draw(st.integers(1, 4)) for _ in range(d.size))
    oracle = DivisorialOracle(m)
    for w in box(zero_vec(d.size), hi, down=True):
        assert oracle.hilbert(w) == unloaded_codim(g, d, w), w


# free points at rational params and corners: host charts of v-degree 11
WIDE_SCRIPT = {
    "steps": [
        {"center": "origin"},
        {"center": {"on": 1, "param": "-5/7"}},
        {"center": {"corner": [1, 2]}},
        {"center": {"on": 3, "param": "2/3"}},
        {"center": {"corner": [3, 4]}},
        {"center": {"corner": [3, 5]}},
        {"center": {"corner": [3, 6]}},
    ]
}


def test_packed_key_width():
    # a key packs (ue, ve) as (ue << s) + ve, with s from max_jet and the
    # largest v-exponent; queries at max(w) == max_jet, where the width is
    # least, agree with a far larger cap and with unloading
    m = run_script(WIDE_SCRIPT)
    g = m.graph()
    d = build_intersection(g)
    s = d.size
    top_v = max(ve for host in m.charts[1::2] for p in (host.xmap, host.ymap) for _, ve in p)
    assert top_v == 11
    points = [w_of_nhat(d, tuple(int(j == i) for j in range(s))) for i in range(s)]
    points += [(3,) * s, (1, 2, 3, 4, 5, 6, 7), (9, 1, 1, 1, 1, 1, 1)]
    for w in points:
        at_cap = DivisorialOracle(m, max_jet=max(w))
        assert at_cap._shift == (max(w) * top_v).bit_length()
        assert at_cap.hilbert(w) == DivisorialOracle(m, max_jet=10**30).hilbert(w), w
        assert at_cap.hilbert(w) == unloaded_codim(g, d, w), w
    # max_jet = 0 answers only at the origin, and refuses any other point
    zero = DivisorialOracle(m, max_jet=0)
    assert zero._shift == top_v.bit_length()
    assert zero.hilbert((0,) * s) == zero.hilbert((-3,) * s) == 0
    with pytest.raises(PrecisionExhausted, match="jet order 1 needed, cap is 0"):
        zero.hilbert((0,) * (s - 1) + (1,))


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(), st.data())
def test_top_down_sweep_matches_fresh_oracles(script, data):
    # the ie sweep reads h on [0, hi + 1] from one elimination at its top
    # line and a restriction for every line below; every point must equal a
    # fresh oracle's single query there.  H on [0, hi] first keeps the bases
    # of a lower box, whose horizon the ie sweep raises, so it ranks afresh
    m = run_script(script)
    s = m.ncomponents
    hi = tuple(data.draw(st.integers(0, 2)) for _ in range(s))
    swept = DivisorialOracle(m)
    series(swept, "H", hi)
    hilbert_ie_series(swept.hilbert, s, hi)
    ranks = by_point(swept._hs)
    for w in box(zero_vec(s), tuple(x + 1 for x in hi)):
        assert ranks[w] == DivisorialOracle(m).hilbert(w), w
    # a line that is not below a kept one is ranked afresh
    far = (max(hi) + 3,) + (0,) * (s - 1)
    assert swept.hilbert(far) == DivisorialOracle(m).hilbert(far)
    # asked large-first or small-first, one oracle gives the same answers
    points = list(box(zero_vec(s), hi))
    rising = DivisorialOracle(m)
    assert [rising.hilbert(w) for w in points] == [swept.hilbert(w) for w in points]


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(max_steps=4), st.data())
def test_divisorial_sweeps_and_scrambled_queries_match_fresh_oracles(script, data):
    # 2-4 components with packed keys: a sweep restricts its top line's basis
    # to every line below it; a scrambled order also raises the horizon, asks
    # lines above every kept one and lines below them
    m = run_script(script)
    s = m.ncomponents
    hi = tuple(data.draw(st.integers(0, 3 if s < 4 else 2)) for _ in range(s))
    points = list(box(zero_vec(s), tuple(x + 1 for x in hi)))
    fresh = {w: DivisorialOracle(m).hilbert(w) for w in points}
    swept = DivisorialOracle(m)
    assert swept._shift > 0
    series(swept, "P", hi)
    ranks = by_point(swept._hs)
    assert {w: ranks[w] for w in points} == fresh
    scrambled = DivisorialOracle(m)
    for w in data.draw(st.permutations(points)):
        assert scrambled.hilbert(w) == fresh[w], w


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(max_steps=4), st.data())
def test_line_reads_match_point_reads_on_random_scripts(script, data):
    m = run_script(script)
    assert_line_reads_match_point_reads(DivisorialOracle(m), DivisorialOracle(m), data)


def test_huge_ie_bound_is_a_budget_error():
    # the sweep asks the top of its box before any axis range is built
    oracle = DivisorialOracle(run_script(CUSP_SCRIPT))
    with pytest.raises(PrecisionExhausted, match="jet order 100000000000000000000 needed"):
        hilbert_ie_series(oracle.hilbert, 3, (99999999999999999999, 1, 1))


def test_center_errors():
    m = Modification.base()
    m1 = m.blow_up("origin")
    with pytest.raises(CenterNotFound):
        m1.blow_up("origin")  # only valid as the first step
    with pytest.raises(CenterNotFound):
        m1.blow_up({"on": 5, "param": "0"})
    with pytest.raises(CenterNotFound):
        m1.blow_up({"corner": [1, 2]})
    m2 = m1.blow_up({"on": 1, "param": "0"})
    with pytest.raises(CenterNotFound):
        m2.blow_up({"on": 1, "param": "0"})  # point already blown up
    cusp = run_script(CUSP_SCRIPT)
    with pytest.raises(CornerAmbiguous):
        # parameter 0 on E3's host chart is its corner with E2
        cusp.blow_up({"on": 3, "param": "0"})


def test_auto_resolve_smooth(smooth_branch):
    _, g, attach = auto_resolve(smooth_branch)
    assert g.self_ints == (-1,)
    assert attach == (0,)


def test_auto_resolve_lines(transverse_lines):
    _, g, attach = auto_resolve(transverse_lines)
    assert g.self_ints == (-1,)
    assert attach == (0, 0)


def test_auto_resolve_cusp(cusp_curve):
    m, g, attach = auto_resolve(cusp_curve)
    assert g.self_ints == (-3, -2, -1)
    assert g.edges == ((0, 2), (1, 2))
    assert attach == (2,)
    # the engine reproduces the scripted modification's multiplicities
    assert m.multiplicity_vector(CUSP_POLY) == (2, 3, 6)


def test_auto_resolve_swapped_cusp():
    curve = Curve(2, [Branch([{3: ONE}, {2: ONE}])])
    _, g, attach = auto_resolve(curve)
    assert g.self_ints == (-3, -2, -1)
    assert g.edges == ((0, 2), (1, 2))


def test_auto_resolve_deeper_branch():
    curve = Curve(2, [Branch([{2: ONE}, {5: ONE}])])
    _, g, attach = auto_resolve(curve)
    assert g.self_ints == (-2, -3, -2, -1)
    assert g.edges == ((0, 1), (1, 3), (2, 3))
    assert attach == (3,)


def test_auto_resolve_tangent_pair():
    curve = Curve(2, [Branch([{1: ONE}, {}]), Branch([{1: ONE}, {2: ONE}])])
    _, g, attach = auto_resolve(curve)
    assert g.self_ints == (-2, -1)
    assert attach == (1, 1)


def test_auto_resolve_branch_order_invariance(transverse_lines):
    _, g1, a1 = auto_resolve(transverse_lines)
    reordered = Curve(2, list(reversed(transverse_lines.branches)))
    _, g2, a2 = auto_resolve(reordered)
    assert g1.self_ints == g2.self_ints and g1.edges == g2.edges
    assert tuple(reversed(a1)) == a2


def test_auto_resolve_rejects_duplicates():
    with pytest.raises(InvalidInput):
        Curve(2, [Branch([{2: ONE}, {3: ONE}]), Branch([{2: ONE}, {3: ONE}])])


def test_auto_resolve_budget_on_nonprimitive_pair():
    from motive_series.errors import PrecisionExhausted

    # distinct parametrizations of one and the same germ never separate
    curve = Curve(2, [Branch([{1: ONE}, {}]), Branch([{2: ONE}, {}])])
    with pytest.raises(PrecisionExhausted):
        auto_resolve(curve, max_steps=12)


def test_auto_resolve_needs_plane_curve(curve_c):
    with pytest.raises(InvalidInput):
        auto_resolve(curve_c)


def test_non_minimal_extension():
    m = run_script(CUSP_SCRIPT)
    bigger = m.blow_up({"on": 3, "param": "2"})
    g = bigger.graph()
    assert g.self_ints == (-3, -2, -2, -1)
    assert g.edges == ((0, 2), (1, 2), (2, 3))
    # certified unimodular tree with positive integral inverse
    build_intersection(g)


def test_every_step_certified():
    # a long free-point script stays a unimodular tree throughout
    m = Modification.base().blow_up("origin")
    for i in range(1, 5):
        m = m.blow_up({"on": i, "param": "1"})
    assert m.graph().self_ints == (-2, -2, -2, -2, -1)


# -- the inverse carried and certified step by step ------------------------------


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(max_steps=9, params=LONG_PARAMS), st.data())
def test_carried_inverse_matches_build_intersection(script, data):
    m = Modification.base()
    for step in script["steps"]:
        m = m.blow_up(step["center"])
        g = m.graph()
        assert m.intersection().M == build_intersection(g).M
        # in any labelling the blow-down replay is the carried M, and elimination's
        old = data.draw(st.permutations(range(g.nvertices)))  # new label k is old vertex old[k]
        new = {v: k for k, v in enumerate(old)}
        h = DualGraph(
            tuple(g.self_ints[v] for v in old),
            tuple(sorted(tuple(sorted((new[i], new[j]))) for i, j in g.edges)),
        )
        want = tuple(tuple(m.M[i][j] for j in old) for i in old)
        assert build_intersection(h).M == eliminated_inverse(h) == want


def _with(m, **fields):
    """A copy of the modification m with some fields replaced."""
    names = ("charts", "self_ints", "corners", "M")
    return Modification(*(fields.get(n, getattr(m, n)) for n in names))


def test_tampered_modification_fails_the_certificate():
    m = run_script(CUSP_SCRIPT)  # self-intersections -3, -2, -1; edges (0, 2), (1, 2)
    tampered = (
        _with(m, self_ints=(-3, -2, -2)),
        _with(m, self_ints=(-2, -2, -1)),
        _with(m, corners={(0, 1): m.corners[(0, 2)], (1, 2): m.corners[(1, 2)]}),
        _with(m, M=m.M[:2] + ((2, 3, 7),)),
    )
    for bad in tampered:
        for center in ({"on": 3, "param": "1"}, {"on": 1, "param": "2"}, {"on": 2, "param": "1"}):
            with pytest.raises((NotUnimodular, NotBlowupGraph)):
                bad.blow_up(center)


def test_blow_ups_from_the_base_check_only_the_rows_they_change(monkeypatch):
    from motive_series import blowup

    checked = []

    def spy(g, M, rows=None):
        checked.append(rows)
        certify_inverse(g, M, rows)

    monkeypatch.setattr(blowup, "certify_inverse", spy)
    m = run_script(CUSP_SCRIPT)
    # origin, then a point of component 1, then the corner of 1 and 2: the
    # components through the centre and the new one
    assert checked == [[0], [0, 1], [0, 1, 2]]
    assert m.blow_up({"on": 3, "param": "1"}).certified
    assert checked[-1] == [2, 3]
    # built by the constructor: the whole certificate, which then certifies it
    out = _with(m).blow_up({"on": 3, "param": "1"})
    assert checked[-1] is None and out.certified and not _with(m).certified


def test_blow_ups_make_no_elimination(monkeypatch):
    from motive_series import blowup, graph

    checked = []

    def spy(g, M, rows=None):
        checked.append(rows)
        certify_inverse(g, M, rows)

    # build_intersection certifies its replay whole (rows None)
    monkeypatch.setattr(blowup, "certify_inverse", spy)
    monkeypatch.setattr(graph, "certify_inverse", spy)
    m = run_script(CUSP_SCRIPT)
    assert len(checked) == 3 and None not in checked
    assert m.intersection().M == ((1, 1, 2), (1, 2, 3), (2, 3, 6))
    assert intersection_matrix(m.graph()) == ((-3, 0, 1), (0, -2, 1), (1, 1, -1))


# -- state read off the charts, self-intersections, corners and M ---------------


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(max_steps=7, params=LONG_PARAMS), st.data())
def test_hosts_edges_and_blown_up_points_read_off_the_charts(script, data):
    m = Modification.base()
    for step in script["steps"]:
        m = m.blow_up(step["center"])
        assert sorted(m.corners) == list(m.graph().edges)
        # step c adds component c, and its host chart 2c + 1 has it as {u = 0}
        assert all(m.charts[2 * c + 1].divisors[c] == "u" for c in range(m.ncomponents))
        for pair, idx in m.corners.items():
            assert [c for c, _ in m.charts[idx].through((ZERO, ZERO))] == list(pair)
    # a free point (no script param is 5) is refused once blown up, and a
    # snapshot taken before still accepts it
    host, point = 2 * data.draw(st.integers(0, m.ncomponents - 1)) + 1, (ZERO, Fraction(5))
    m1 = m.blow_up_at(host, point)
    with pytest.raises(CenterNotFound, match="already blown up"):
        m1.blow_up_at(host, point)
    assert m.blow_up_at(host, point).ncomponents == m1.ncomponents
    # so is a corner chart's origin, once that corner is blown up
    i, j = pair = data.draw(st.sampled_from(sorted(m.corners)))
    m2 = m.blow_up({"corner": [i + 1, j + 1]})
    assert pair not in m2.corners
    with pytest.raises(CenterNotFound, match="already blown up"):
        m2.blow_up_at(m.corners[pair], (ZERO, ZERO))
