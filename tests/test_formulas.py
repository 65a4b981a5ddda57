import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motive_series import Branch, Curve
from motive_series.blowup import auto_resolve, run_script
from motive_series.errors import InternalInconsistency, InvalidInput
from motive_series.formulas import (
    TermIndex,
    _add_into,
    _class_recursion,
    _class_width,
    _codim,
    _codim_lin,
    _nhats,
    _series,
    _subsets,
    curve_poincare_product,
    curve_series,
    divisorial_poincare_product,
    divisorial_poincare_product_edges,
    divisorial_series,
    enumerate_terms,
    hilbert_ie_coeff,
    hilbert_ie_series,
    ie_box,
    nhat_codimension,
    semigroup_class_series,
    term_codimension,
    term_v,
    term_w,
)
from motive_series.graph import (
    DualGraph,
    build_intersection,
    chi_bullet,
    chi_open,
    hoskin_deligne,
)
from motive_series.laurent import LaurentPoly, projective_class, qgeom, sym_power_class
from motive_series.mseries import (
    MSeries,
    box,
    expand_rational,
    first_mismatch,
    vec_add,
    zero_vec,
)
from motive_series.polys import mul, unpack
from motive_series.verify import _naive_curve_terms

ONE = LaurentPoly.one()
L = LaurentPoly.l_power(1)
Q = LaurentPoly.q_power(1)

SINGLE = DualGraph((-1,), ())
TWO_ARROWS = DualGraph((-1,), (), (0, 0))
CUSP_ARROW = DualGraph((-3, -2, -1), ((0, 2), (1, 2)), (2,))
CHAIN = DualGraph((-2, -1), ((0, 1),))
# the cusp graph with a free point of its last component blown up: vertex 2
# has degree 3; two arrows on it, or one on it and one on the new vertex
CUSP_EXTRA_TWO_ARROWS = DualGraph((-3, -2, -2, -1), ((0, 2), (1, 2), (2, 3)), (2, 2))
CUSP_EXTRA_ARROWS = DualGraph((-3, -2, -2, -1), ((0, 2), (1, 2), (2, 3)), (2, 3))


def terms_list(g, hi, mode):
    d = build_intersection(g)
    return list(enumerate_terms(g, d, hi, mode))


def test_enumerate_zero_window():
    assert len(terms_list(SINGLE, (0,), "divisorial")) == 1
    assert len(terms_list(TWO_ARROWS, (0, 0), "curve")) == 1


def test_enumerate_single_divisorial():
    terms = terms_list(SINGLE, (2,), "divisorial")
    assert sorted(t.n for t in terms) == [(0,), (1,), (2,)]


def test_enumerate_two_arrows():
    terms = terms_list(TWO_ARROWS, (2, 1), "curve")
    d = build_intersection(TWO_ARROWS)
    at_21 = [t for t in terms if term_v(t, d, TWO_ARROWS) == (2, 1)]
    assert len(at_21) == 1
    (t,) = at_21
    assert t.arrows == (0,) and t.atilde == (1,) and t.btilde == (1,)
    assert len(terms) == 3


def test_enumerate_each_term_once():
    d = build_intersection(CUSP_ARROW)
    terms = list(enumerate_terms(CUSP_ARROW, d, (8,), "curve"))
    assert len(terms) == len(set(terms))
    for t in terms:
        v = term_v(t, d, CUSP_ARROW)
        assert v[0] <= 8


def test_term_codimension_examples():
    d = build_intersection(TWO_ARROWS)
    zero = TermIndex((), (), (0,), (), (), (), ())
    assert term_codimension(zero, d, TWO_ARROWS) == 0
    contact = TermIndex((), (0,), (0,), (), (), (1,), (1,))
    assert term_codimension(contact, d, TWO_ARROWS) == 3
    for n in range(6):
        t = TermIndex((), (), (n,), (), (), (), ())
        assert term_codimension(t, d, TWO_ARROWS) == n * (n + 3) // 2


def test_exponents_nonnegative():
    d = build_intersection(CUSP_ARROW)
    for t in enumerate_terms(CUSP_ARROW, d, (8,), "curve"):
        assert (
            term_codimension(t, d, CUSP_ARROW)
            - sum(t.n)
            - len(t.edges)
            - len(t.arrows)
            >= 0
        )


def test_curve_series_constant_term():
    assert curve_series(TWO_ARROWS, (3, 3)).coeff((0, 0)) == ONE
    assert curve_series(CUSP_ARROW, (6,)).coeff((0,)) == ONE


def test_curve_series_two_arrows_coefficient():
    s = curve_series(TWO_ARROWS, (2, 1))
    assert s.coeff((2, 1)) == Q ** 2 - Q ** 3


def test_curve_series_cusp_at_one():
    s = curve_series(CUSP_ARROW, (8,)).at_one()
    # value semigroup generated by 2 and 3
    expected = {(n,): ONE for n in [0, 2, 3, 4, 5, 6, 7, 8]}
    assert s.coeffs == expected


def test_curve_series_needs_arrows():
    with pytest.raises(InvalidInput):
        curve_series(SINGLE, (3,))
    with pytest.raises(InvalidInput, match="curve series needs at least one arrow"):
        curve_poincare_product(SINGLE, (3,))


@pytest.mark.parametrize(
    "g, hi",
    [
        (CUSP_ARROW, (0,)),
        (CUSP_ARROW, (12,)),
        (TWO_ARROWS, (4, 3)),
        (CUSP_EXTRA_TWO_ARROWS, (9, 7)),
        (CUSP_EXTRA_ARROWS, (8, 11)),
    ],
)
def test_curve_product_is_curve_series_at_one(g, hi):
    # at L = 1 only the terms with I = K = empty survive
    got, want = curve_poincare_product(g, hi), curve_series(g, hi).at_one()
    assert (got.lo, got.hi, got.exact, got.floored) == (want.lo, want.hi, want.exact, want.floored)
    assert got.coeffs == want.coeffs


def test_divisorial_series_single():
    s = divisorial_series(SINGLE, (4,))
    assert s.coeff((0,)) == ONE
    assert s.coeff((1,)) == Q + Q ** 2
    # coefficient q^h(w) * (1 + q + ... ) pattern: at w the lowest power is
    # q^(w(w+1)/2)
    assert s.coeff((3,)).max_power() == -6


def test_class_series_single():
    s = semigroup_class_series(SINGLE, (4,))
    assert s.coeff((0,)) == ONE
    assert s.coeff((2,)) == ONE + L + L ** 2


def test_product_single():
    s = divisorial_poincare_product(SINGLE, (5,))
    assert s.coeffs == {(n,): LaurentPoly.const(n + 1) for n in range(6)}


def test_product_empty_window():
    s = divisorial_poincare_product(CHAIN, (0, 0))
    assert s.coeffs == {(0, 0): ONE}


def test_product_cusp_drops_valency_two_factor():
    g = DualGraph((-3, -2, -1), ((0, 2), (1, 2)))
    d = build_intersection(g)
    hi = (8, 8, 8)
    direct = expand_rational(
        MSeries.one(3), [(ONE, d.row(0)), (ONE, d.row(1))], hi
    )
    assert first_mismatch(
        divisorial_poincare_product(g, hi), direct, (0, 0, 0), hi
    ) is None


def test_product_forms_agree():
    for g, hi in ((SINGLE, (6,)), (CHAIN, (4, 4)), (CUSP_ARROW, (6, 6, 6))):
        e10 = divisorial_poincare_product(g, hi)
        e11 = divisorial_poincare_product_edges(g, hi)
        assert first_mismatch(e10, e11, (0,) * len(hi), hi) is None


def test_class_series_at_one_matches_product():
    for g, hi in ((SINGLE, (6,)), (CHAIN, (5, 5))):
        t3 = semigroup_class_series(g, hi).at_one()
        e10 = divisorial_poincare_product(g, hi)
        assert first_mismatch(t3, e10, (0,) * len(hi), hi) is None


def test_ie_series_from_hilbert_function():
    # closed form for vanishing order at a smooth point: h(w) = w(w+1)/2
    s = hilbert_ie_series(lambda w: w[0] * (w[0] + 1) // 2, 1, (5,))
    assert first_mismatch(s, divisorial_series(SINGLE, (5,)), (0,), (5,)) is None


def test_ie_coeff_matches_subset_sum_of_qgeoms():
    def h(w):  # nondecreasing in each argument, as Hilbert functions are
        return min(w) + sum(max(x - min(w), 0) for x in w)

    for v in box((0, 0), (4, 4)):
        want = LaurentPoly.zero()
        hfull = h((v[0] + 1, v[1] + 1))
        for S in ((), (0,), (1,), (0, 1)):
            hs = h(tuple(x + (i in S) for i, x in enumerate(v)))
            piece = qgeom(hs, hfull - hs)
            want = want + (piece if len(S) % 2 == 0 else -piece)
        assert hilbert_ie_coeff(h, 2, v) == want


def test_ie_box_matches_the_inclusion_exclusion_sums():
    # P, Pg and Phat at v from the 2^r points v + 1_S, on a box that does
    # not start at 0, for a function nondecreasing in each argument
    def h(w):
        return w[0] * w[1] + min(w[1], w[2]) + 2 * w[2]

    lo, hi = (1, 0, 2), (3, 2, 4)
    got = {kind: ie_box(h, 3, kind, lo, hi) for kind in ("P", "Pg", "Phat", "H")}
    for v in box(lo, hi):
        hfull = h(tuple(x + 1 for x in v))
        want = {"P": LaurentPoly.zero(), "Pg": LaurentPoly.zero(), "Phat": LaurentPoly.zero()}
        for S in _subsets(3):
            hs = h(tuple(x + (i in S) for i, x in enumerate(v)))
            sign = (-1) ** len(S)
            want["P"] = want["P"] - LaurentPoly.const(sign * hs)
            want["Pg"] = want["Pg"] + sign * qgeom(hs, hfull - hs)
            want["Phat"] = want["Phat"] + sign * projective_class(hfull - hs)
        want["H"] = LaurentPoly.const(h(v))
        for kind, c in want.items():
            assert got[kind].get(v, LaurentPoly.zero()) == c, (kind, v)
            assert (v in got[kind]) == bool(c)


def test_ie_coeff_rejects_a_decreasing_function():
    with pytest.raises(InvalidInput):
        hilbert_ie_coeff(lambda w: 5 - sum(w), 1, (0,))
    # nondecreasing along axis 0, decreasing along axis 1 from w[1] = 2 on
    with pytest.raises(InvalidInput, match=r"decreases along axis 1 at \(0, 2\): 2, then 1"):
        hilbert_ie_series(lambda w: w[0] + min(w[1], 4 - w[1]), 2, (3, 3))


def _drops(*at):
    """10 |w|, less 25 for each (axis k, c) of at with w_k >= c: nondecreasing
    along every axis but those k, where it drops from w_k = c - 1 to c."""
    return lambda w: 10 * sum(w) - 25 * sum(w[k] >= c for k, c in at)


@pytest.mark.parametrize("nvars, h, lo, hi, message", (
    (2, _drops((0, 2)), (0, 0), (2, 2), r"axis 0 at \(1, 0\): 10, then -5"),
    (2, _drops((1, 3)), (0, 0), (3, 3), r"axis 1 at \(0, 2\): 20, then 5"),
    (3, _drops((0, 3)), (1, 0, 2), (3, 2, 4), r"axis 0 at \(2, 0, 2\): 40, then 25"),
    (3, _drops((1, 2)), (1, 0, 2), (3, 2, 4), r"axis 1 at \(1, 1, 2\): 40, then 25"),
    (3, _drops((2, 4)), (1, 0, 2), (3, 2, 4), r"axis 2 at \(1, 0, 3\): 40, then 25"),
    # the lowest axis with a decrease is named, though a later axis drops at
    # a point that comes first in lex order
    (3, _drops((1, 2), (2, 3)), (1, 0, 2), (3, 2, 4), r"axis 1 at \(1, 1, 2\): 40, then 25"),
    (3, _drops((0, 2), (2, 3)), (1, 0, 2), (3, 2, 4), r"axis 0 at \(1, 0, 2\): 30, then 15"),
))
def test_ie_box_names_the_first_decrease(nvars, h, lo, hi, message):
    match = "^Hilbert function decreases along " + message + "$"
    for kind in ("Pg", "Phat"):
        with pytest.raises(InvalidInput, match=match):
            ie_box(h, nvars, kind, lo, hi)
    ie_box(h, nvars, "P", lo, hi)  # P = -(Delta h) needs no run of L-powers


def test_ie_series_rejects_a_bound_of_the_wrong_length():
    with pytest.raises(InvalidInput, match="lengths 2 and 1 for 2 variables"):
        hilbert_ie_series(lambda w: sum(w), 2, (3,))


# -- the compressed sums against the term-by-term reference -------------------


def reference_coeffs(g, hi, mode):
    """Sum the paper's summand over every term of enumerate_terms, one by one:
    q^(f-|n|-|I|-|K|) (1-q)^(|I|+|K|) prod_i q^n_i [S^n_i of E_i minus points]."""
    d = build_intersection(g)
    chi = chi_open if mode == "curve" else chi_bullet
    chis = [chi(g, i) for i in range(g.nvertices)]
    exponent = term_v if mode == "curve" else term_w
    coeffs = {}
    for t in enumerate_terms(g, d, hi, mode):
        opened = len(t.edges) + len(t.arrows)
        c = Q ** (term_codimension(t, d, g) - sum(t.n) - opened) * (ONE - Q) ** opened
        for i, ni in enumerate(t.n):
            c = c * Q ** ni * sym_power_class(chis[i], ni)
        e = exponent(t, d, g)
        coeffs[e] = coeffs.get(e, LaurentPoly.zero()) + c
    return {e: c for e, c in coeffs.items() if c}


def assert_matches_reference(g, curve_hi=None, div_hi=None):
    if curve_hi is not None:
        assert curve_series(g, curve_hi).coeffs == reference_coeffs(g, curve_hi, "curve")
    if div_hi is not None:
        assert divisorial_series(g, div_hi).coeffs == reference_coeffs(
            g, div_hi, "divisorial"
        )


SUM_FIXTURES = [
    (SINGLE, None, (7,)),
    (CHAIN, None, (6, 6)),
    (TWO_ARROWS, (6, 5), (6,)),
    (DualGraph((-1,), (), (0, 0, 0)), (3, 4, 3), None),
    (CUSP_ARROW, (16,), (8, 8, 8)),
    (DualGraph((-3, -2, -1), ((0, 2), (1, 2)), (2, 0, 1)), (6, 5, 7), None),
    (CUSP_EXTRA_TWO_ARROWS, (14, 13), (6, 6, 6, 9)),
    (CUSP_EXTRA_ARROWS, (12, 13), (4, 4, 4, 4)),
]


@pytest.mark.parametrize("g, curve_hi, div_hi", SUM_FIXTURES)
def test_compressed_sums_match_reference_on_fixtures(g, curve_hi, div_hi):
    assert_matches_reference(g, curve_hi, div_hi)


def test_compressed_sums_match_reference_on_resolved_fixtures():
    from motive_series import verify

    for name, (curve, hi) in verify.curve_fixtures().items():
        if curve.ambient_dim == 2:
            _, g, _ = verify.resolved(name)
            assert_matches_reference(g, curve_hi=hi)
    for m, hi in verify.modification_fixtures().values():
        assert_matches_reference(m.graph(), div_hi=hi)


def curve_caps(g, hi):
    """The caps on w of a curve window: per arrow vertex, its least bound."""
    caps = {}
    for k, j in enumerate(g.arrows):
        caps[j] = min(hi[k], caps.get(j, hi[k]))
    return caps


def fixture_windows():
    """(graph, caps) of every fixture window above, as curve_series and
    divisorial_series cap w: per arrow vertex, or per vertex."""
    from motive_series import verify

    fixtures = list(SUM_FIXTURES)
    for name, (curve, hi) in verify.curve_fixtures().items():
        if curve.ambient_dim == 2:
            fixtures.append((verify.resolved(name)[1], hi, None))
    fixtures += [(m.graph(), None, hi) for m, hi in verify.modification_fixtures().values()]
    for g, curve_hi, div_hi in fixtures:
        if curve_hi is not None:
            yield g, curve_caps(g, curve_hi)
        if div_hi is not None:
            yield g, dict(enumerate(div_hi))


def test_codimension_from_w_matches_reference_on_fixture_windows():
    # sum m_ij nhat_i nhat_j = nhat.w, so codim is (nhat.w + nhat.lin) / 2
    visited = 0
    for g, caps in fixture_windows():
        d = build_intersection(g)
        lin = _codim_lin(d, g)
        for nhat, w in _nhats(d, caps):
            codim = nhat_codimension(nhat, d, g)
            assert _codim(nhat, w, lin) == codim
            assert hoskin_deligne(d, g, nhat) == codim - sum(nhat)
            visited += 1
    assert visited > 200  # the loop is not vacuous


def test_odd_codimension_names_its_input():
    # lin inconsistent with w = nhat M: the half-sum is odd
    with pytest.raises(InternalInconsistency, match=r"nhat \(1, 2\), w \(3, 5\)"):
        _codim((1, 2), (3, 5), [0, 0])
    assert _codim((1, 2), (3, 5), [1, 0]) == 7


# -- the tree transfer: the dict-kernel reference of the q^codim twist ---------
#
# curve_series and divisorial_series take the sum over the edge sets I from
# the packed class recursion.  The tree transfer below sums it per nhat
# instead, up each tree of the support forest, with kernel dicts: a vertex
# v keeps two sums over its subtree, with its parent edge in I (p = 1) and
# without (p = 0); its children combine by the count k of their edges in
# I, each bringing a factor L - 1, and v's sum is sum_k by_count[k]
# sym_power_class(chi_v + a_v + k + p, nhat_v - a_v - k - p), a_v its
# arrows in K.


@lru_cache(maxsize=4096)
def sym_terms(chi, n):
    """sym_power_class(chi, n) as a kernel dict, {} when n < 0."""
    return sym_power_class(chi, n).terms if n >= 0 else {}


def times_l_minus_one(p):
    return _add_into({e + 1: c for e, c in p.items()}, p, sign=-1)


def support_forest(g, nhat):
    """The forest of the edges inside the support of nhat, as rooted trees:
    each a list of (vertex, parent) pairs, every vertex before its parent
    and the root (parent None) last."""
    nbrs = {i: [] for i, x in enumerate(nhat) if x}
    for i, j in g.edges:
        if nhat[i] and nhat[j]:
            nbrs[i].append(j)
            nbrs[j].append(i)
    trees, parent = [], {}
    for root in nbrs:
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for v in order:
            for u in nbrs[v]:
                if u not in parent:
                    parent[u] = v
                    order.append(u)
        trees.append([(v, parent[v]) for v in reversed(order)])
    return trees


def at_vertex(by_count, chi, n):
    """sum_k by_count[k] sym_power_class(chi + k, n - k); None is [1]."""
    if by_count is None:
        return sym_terms(chi, n)
    out = {}
    for k, c in enumerate(by_count[: n + 1]):
        _add_into(out, mul(c, sym_terms(chi + k, n - k)))
    return out


def with_child(by_count, f0, f1):
    """by_count after one more child, whose edge is out of I (f0) or in it (f1)."""
    if by_count is None:
        return [f0, f1]
    out = [{} for _ in range(len(by_count) + 1)]
    for k, c in enumerate(by_count):
        _add_into(out[k], mul(c, f0))
        _add_into(out[k + 1], mul(c, f1))
    return out


def tree_vertex_sum(trees, chi, nhat, arrows_at):
    """sum over the edge sets I of the forest ``trees`` of (L-1)^(|I|+|K|)
    prod_i sym_power_class(chi_i + r_i, nhat_i - r_i), r_i the edges of I
    at i plus the ``arrows_at[i]`` arrows of K at i; a kernel dict."""
    out = None  # the product over the trees done so far
    for tree in trees:
        by_count = {}
        for v, up in tree:
            below = by_count.pop(v, None)
            a, n = chi[v] + arrows_at[v], nhat[v] - arrows_at[v]
            f0 = at_vertex(below, a, n)
            if up is None:
                out = f0 if out is None else mul(out, f0)
            else:
                f1 = at_vertex(below, a + 1, n - 1)
                by_count[up] = with_child(by_count.get(up), f0, times_l_minus_one(f1))
        if not out:
            return {}
    if out is None:
        out = {0: 1}
    for _ in range(sum(arrows_at)):
        out = times_l_minus_one(out)
    return out


def tree_transfer_curve_series(g, hi):
    """curve_series by the tree transfer, one (nhat, K) summand at a time."""
    d = build_intersection(g)
    s, attach = g.nvertices, g.arrows
    chi = [chi_open(g, i) for i in range(s)]
    coeffs = {}
    for nhat, w in _nhats(d, curve_caps(g, hi)):
        floor = tuple(w[j] for j in attach)
        codim = nhat_codimension(nhat, d, g)
        live = [k for k, j in enumerate(attach) if nhat[j] and floor[k] < hi[k]]
        trees = support_forest(g, nhat)
        for K in _subsets(len(live)):
            K = [live[pos] for pos in K]
            arrows_at = [0] * s
            for k in K:
                arrows_at[attach[k]] += 1
            c = tree_vertex_sum(trees, chi, nhat, arrows_at)
            for bt in product(*(range(1, hi[k] - floor[k] + 1) for k in K)):
                v = list(floor)
                for k, b in zip(K, bt):
                    v[k] += b
                _add_into(coeffs.setdefault(tuple(v), {}), c, -codim - sum(bt))
    return _series(tuple(hi), coeffs, "curve-series", "q")


def tree_transfer_divisorial_series(g, hi):
    """divisorial_series by the tree transfer, one nhat at a time."""
    d = build_intersection(g)
    chi = [chi_bullet(g, i) for i in range(g.nvertices)]
    zeros, coeffs = [0] * g.nvertices, {}
    for nhat, w in _nhats(d, dict(enumerate(hi))):
        c = tree_vertex_sum(support_forest(g, nhat), chi, nhat, zeros)
        coeffs[w] = {e - nhat_codimension(nhat, d, g): x for e, x in c.items()}
    return _series(tuple(hi), coeffs, "divisorial-series", "q")


def reference_vertex_sum(g, chi, nhat, arrows_at):
    """sum over I in the support forest of (L-1)^(|I|+|K|) prod_i
    sym_power_class(chi_i + r_i, nhat_i - r_i), where r_i counts the edges
    of I at i plus the ``arrows_at[i]`` arrows of K at i, one subset I at a
    time."""
    support = [i for i, x in enumerate(nhat) if x]
    forest = [(i, j) for (i, j) in g.edges if nhat[i] and nhat[j]]
    out = LaurentPoly.zero()
    for I in _subsets(len(forest)):
        r = list(arrows_at)
        for pos in I:
            i, j = forest[pos]
            r[i] += 1
            r[j] += 1
        c = (L - ONE) ** (len(I) + sum(arrows_at))
        for i in support:
            n = nhat[i] - r[i]
            c = c * sym_power_class(chi[i] + r[i], n) if n >= 0 else LaurentPoly.zero()
        out = out + c
    return out


@st.composite
def weighted_trees(draw):
    """A tree of 1-9 vertices with 0-3 arrows, nhat with zero entries, and
    arrows_at[i] at most the arrows at vertex i."""
    s = draw(st.integers(1, 9))
    perm = draw(st.permutations(range(s)))
    edges = []
    for v in range(1, s):
        i, j = perm[draw(st.integers(0, v - 1))], perm[v]
        edges.append((min(i, j), max(i, j)))
    arrows = tuple(draw(st.lists(st.integers(0, s - 1), max_size=3)))
    g = DualGraph((-2,) * s, tuple(sorted(edges)), arrows)
    zeros = draw(st.sets(st.integers(0, s - 1), max_size=s // 2))
    nhat = tuple(0 if i in zeros else draw(st.integers(1, 4)) for i in range(s))
    arrows_at = [draw(st.integers(0, g.arrow_count(i))) for i in range(s)]
    return g, nhat, arrows_at


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(weighted_trees())
def test_tree_transfer_matches_subset_enumeration(tree):
    g, nhat, arrows_at = tree
    chi = [chi_open(g, i) for i in range(g.nvertices)]
    got = tree_vertex_sum(support_forest(g, nhat), chi, nhat, arrows_at)
    assert LaurentPoly(got) == reference_vertex_sum(g, chi, nhat, arrows_at)
    if not any(arrows_at):
        chi = [chi_bullet(g, i) for i in range(g.nvertices)]
        got = tree_vertex_sum(support_forest(g, nhat), chi, nhat, arrows_at)
        assert LaurentPoly(got) == reference_vertex_sum(g, chi, nhat, arrows_at)


def test_forest_roots_each_tree_of_the_support():
    # a path 0-1-2-3-4 with nhat_2 = 0: two trees, every vertex before its parent
    g = DualGraph((-2,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    trees = support_forest(g, (1, 1, 0, 2, 1))
    assert sorted(sorted(v for v, _ in t) for t in trees) == [[0, 1], [3, 4]]
    for t in trees:
        assert t[-1][1] is None and all(up is not None for _, up in t[:-1])
        order = [v for v, _ in t]
        assert all(order.index(v) < order.index(up) for v, up in t[:-1])
    assert support_forest(g, (0,) * 5) == []


PARAMS = ("1", "-1", "2", "1/2", "-3")
# enough free points that no component runs out of them within 9 steps
LONG_PARAMS = PARAMS + ("3", "-2", "1/3")
ONE_Q = Fraction(1)


@st.composite
def blowup_scripts(draw, max_steps=5, params=PARAMS):
    """2 to max_steps point blow-ups: each at a corner or at a fresh free
    point, whose param is one of params."""
    nsteps = draw(st.integers(2, max_steps))
    steps = [{"center": "origin"}]
    edges, used = [], set()
    while len(steps) < nsteps:
        new = len(steps) + 1
        if edges and draw(st.booleans()):
            i, j = edges.pop(draw(st.integers(0, len(edges) - 1)))
            steps.append({"center": {"corner": [i, j]}})
            edges += [(i, new), (j, new)]
        else:
            comp = draw(st.integers(1, len(steps)))
            param = draw(st.sampled_from([p for p in params if (comp, p) not in used]))
            used.add((comp, param))
            steps.append({"center": {"on": comp, "param": param}})
            edges.append((comp, new))
    return {"steps": steps}


@st.composite
def plane_branches(draw):
    """(tau^a, tau^b + c tau^(b+1)) with gcd(a, b) = 1, either way round."""
    a = draw(st.integers(1, 3))
    b = draw(st.integers(a + 1, 5).filter(lambda b: gcd(a, b) == 1))
    c = Fraction(draw(st.sampled_from(PARAMS)))
    coords = [{a: ONE_Q}, {b: ONE_Q, b + 1: c}]
    return Branch(coords[::-1] if draw(st.booleans()) else coords)


DIFFERENTIAL = settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@DIFFERENTIAL
@given(blowup_scripts(), st.data())
def test_compressed_sums_match_reference_on_random_scripts(script, data):
    g = run_script(script).graph()
    s = g.nvertices
    div_hi = tuple(data.draw(st.integers(2, 7)) for _ in range(s))
    arrows = tuple(sorted(data.draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=2))))
    curve_hi = tuple(data.draw(st.integers(2, 6)) for _ in arrows)
    assert_matches_reference(g, div_hi=div_hi)
    assert_matches_reference(DualGraph(g.self_ints, g.edges, arrows), curve_hi=curve_hi)


@DIFFERENTIAL
@given(st.lists(plane_branches(), min_size=1, max_size=3, unique=True), st.data())
def test_compressed_sums_match_reference_on_random_curves(branches, data):
    _, g, _ = auto_resolve(Curve(2, branches))
    top = {1: 16, 2: 11, 3: 8}[len(branches)]
    curve_hi = tuple(data.draw(st.integers(3, top)) for _ in branches)
    assert_matches_reference(g, curve_hi=curve_hi)


NAIVE_TUPLES = 2000  # product-space tuples per case of the term-level reference


def naive_space(g, d, hi):
    """How many tuples verify._naive_curve_terms tries for the window hi:
    its sum over edge and arrow subsets of range-length products factors
    into one product over vertices, edges and arrows."""
    caps = [min(h // d.M[i][a] for h, a in zip(hi, g.arrows)) for i in range(g.nvertices)]
    return (
        prod(c + 1 for c in caps)
        * prod(1 + caps[i] * caps[j] for i, j in g.edges)
        * prod(1 + h * caps[a] for h, a in zip(hi, g.arrows))
    )


def distinct_resolved_graphs(count, seed, a_max=3, b_max=5):
    """The resolution graphs of random plane curves of 1-3 branches
    (tau^a, tau^b + c tau^(b+1)), a <= a_max < b <= b_max (by default as
    plane_branches draws them), until count graphs differ in
    self-intersections, edges or arrows."""
    rng, graphs = random.Random(seed), {}
    while len(graphs) < count:
        branches = []
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(1, a_max)
            b = rng.choice([b for b in range(a + 1, b_max + 1) if gcd(a, b) == 1])
            coords = [{a: ONE_Q}, {b: ONE_Q, b + 1: Fraction(rng.choice(PARAMS))}]
            branch = Branch(coords[::-1] if rng.random() < 0.5 else coords)
            if branch not in branches:
                branches.append(branch)
        _, g, _ = auto_resolve(Curve(2, branches))
        graphs.setdefault((g.self_ints, g.edges, g.arrows), g)
    return list(graphs.values())


def reference_windows(g, d):
    """Windows whose product space stays small enough to walk: one grown
    from 1 entry by entry, up to 24; and, where an edge allows it, the
    valuation of its stratum with n' = n'' = 1 and every other variable 0,
    which puts that edge term on the boundary of every window entry."""
    hi, grown = [1] * len(g.arrows), True
    while grown:
        grown = False
        for k in range(len(hi)):
            hi[k] += 1
            if hi[k] > 24 or naive_space(g, d, hi) > NAIVE_TUPLES:
                hi[k] -= 1
            else:
                grown = True
    windows = [tuple(hi)]
    if g.edges:
        edges = (tuple(d.M[i][a] + d.M[j][a] for a in g.arrows) for i, j in g.edges)
        windows.append(min(edges, key=lambda w: naive_space(g, d, w)))
    return [w for w in windows if naive_space(g, d, w) <= NAIVE_TUPLES]


@pytest.mark.parametrize("g", distinct_resolved_graphs(20, seed=23), ids=repr)
def test_enumeration_matches_the_product_space_reference_on_random_curves(g):
    d = build_intersection(g)
    for hi in reference_windows(g, d):
        fast = {
            (t.edges, t.arrows, t.n, t.nprime, t.ndprime, t.atilde, t.btilde)
            for t in enumerate_terms(g, d, hi, "curve")
        }
        assert fast == _naive_curve_terms(g, d, hi), hi


# 1-15 vertices and 1-3 arrows
TWIST_GRAPHS = distinct_resolved_graphs(16, seed=7, a_max=7, b_max=12)


@pytest.mark.parametrize("g", TWIST_GRAPHS, ids=repr)
def test_twisted_class_series_match_the_tree_transfer_on_random_curves(g):
    m = build_intersection(g).M
    hi = tuple(min(2 * m[a][a], 40) for a in g.arrows)
    assert curve_series(g, hi).coeffs == tree_transfer_curve_series(g, hi).coeffs
    div_hi = tuple(3 * m[j][j] for j in range(g.nvertices))
    assert divisorial_series(g, div_hi).coeffs == tree_transfer_divisorial_series(g, div_hi).coeffs
    # and the term-by-term sum over enumerate_terms, which walks all 2^|edges|
    # edge subsets, on the graphs of up to 9 vertices and smaller windows
    if g.nvertices <= 9:
        small = tuple(min(m[a][a], 10) for a in g.arrows)
        assert_matches_reference(g, small, tuple(m[j][j] for j in range(g.nvertices)))


@pytest.mark.parametrize("g", TWIST_GRAPHS, ids=repr)
def test_curve_width_holds_every_arrow_pass(g, monkeypatch):
    # every (nhat, K) coefficient before its q^codim twist is a tree
    # transfer; the width curve_series packs with, one bit per arrow pass
    # more than _class_width's, holds all of its digits with a sign bit and
    # one spare bit left
    from motive_series import formulas

    windows = []
    monkeypatch.setattr(
        formulas, "_class_recursion", lambda *a: windows.append(_class_recursion(*a)) or windows[-1]
    )
    d = build_intersection(g)
    hi = tuple(min(2 * d.M[a][a], 40) for a in g.arrows)
    curve_series(g, hi, d)
    nhats, _, _, _, width = windows.pop()
    caps = curve_caps(g, hi)
    tops = [min(cap // row[j] for j, cap in caps.items()) for row in d.M]
    bound = 2 ** len(g.arrows) * 4 ** len(g.edges) * prod(t + 1 for t in tops)
    assert bound < 2 ** (width - 2)
    chi = [chi_open(g, i) for i in range(g.nvertices)]
    for nhat in nhats:
        trees = support_forest(g, nhat)
        for K in _subsets(len(g.arrows)):
            arrows_at = [0] * g.nvertices
            for k in K:
                arrows_at[g.arrows[k]] += 1
            c = tree_vertex_sum(trees, chi, nhat, arrows_at)
            assert all(abs(x) <= bound for x in c.values())


@settings(max_examples=25, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.lists(plane_branches(), min_size=1, max_size=3, unique=True), st.data())
def test_curve_product_is_curve_series_at_one_on_random_curves(branches, data):
    _, g, _ = auto_resolve(Curve(2, branches))
    top = {1: 16, 2: 11, 3: 8}[len(branches)]
    hi = tuple(data.draw(st.integers(0, top)) for _ in branches)
    assert curve_poincare_product(g, hi).coeffs == curve_series(g, hi).at_one().coeffs


def assert_passes_the_checked_constructor(series):
    # route A builds its series with MSeries._trusted; the public
    # constructor, which checks every coefficient, must build the same one
    checked = MSeries(series.nvars, series.lo, series.hi, series.coeffs, floored=True)
    assert checked == series
    assert (checked.exact, checked.floored) == (series.exact, series.floored) == (False, True)
    assert all(type(e) is tuple for e in series.coeffs)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(), st.data())
def test_trusted_series_pass_the_checked_constructor(script, data):
    g = run_script(script).graph()
    s = g.nvertices
    div_hi = tuple(data.draw(st.integers(0, 7)) for _ in range(s))
    arrows = tuple(sorted(data.draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=2))))
    curve_hi = tuple(data.draw(st.integers(0, 6)) for _ in arrows)
    assert_passes_the_checked_constructor(divisorial_series(g, div_hi))
    assert_passes_the_checked_constructor(semigroup_class_series(g, div_hi))
    curves = DualGraph(g.self_ints, g.edges, arrows)
    assert_passes_the_checked_constructor(curve_series(curves, curve_hi))


# -- the nhat-space Phat and P against their windowed rational expansions ----


def reference_class_series(g, hi):
    """prod_edges (1 - t^m_i - t^m_j + L t^(m_i+m_j))
    / prod_i (1 - t^m_i)(1 - L t^m_i), by windowed series products."""
    d = build_intersection(g)
    s = g.nvertices
    num = MSeries.one(s)
    for (i, j) in g.edges:
        mi, mj = d.row(i), d.row(j)
        num = num * MSeries.polynomial(
            s, {zero_vec(s): ONE, mi: -ONE, mj: -ONE, vec_add(mi, mj): L}
        )
    factors = []
    for i in range(s):
        factors += [(ONE, d.row(i)), (L, d.row(i))]
    return expand_rational(num, factors, hi)


def reference_poincare_product(g, hi):
    """prod_i (1 - t^m_i)^(-chi_i), by windowed series products."""
    d = build_intersection(g)
    s = g.nvertices
    num = MSeries.one(s)
    factors = []
    for i in range(s):
        chi = chi_bullet(g, i)
        one_minus = MSeries.polynomial(s, {zero_vec(s): ONE, d.row(i): -ONE})
        for _ in range(-chi):
            num = num * one_minus
        factors += [(ONE, d.row(i))] * max(chi, 0)
    return expand_rational(num, factors, hi)


def dict_kernel_class_series(g, hi):
    """semigroup_class_series with each coefficient a kernel dict
    {L-power: int}, added into in place: the packed form's reference."""
    d = build_intersection(g)
    s = g.nvertices
    index, ws, coeffs = {}, [], []
    pred = [[] for _ in range(s)]  # pred[i][n]: index of nhat - e_i, or None
    for nhat, w in _nhats(d, dict(enumerate(hi))):
        for i, x in enumerate(nhat):
            pred[i].append(index[nhat[:i] + (x - 1,) + nhat[i + 1:]] if x else None)
        index[nhat] = n = len(ws)
        ws.append(w)
        k = max((i for i, x in enumerate(nhat) if x), default=None)
        if k is None:
            coeffs.append({0: 1})
            continue
        rest = index[nhat[:k] + (0,) * (s - k)]
        coeffs.append(_add_into(dict(coeffs[pred[k][n]]), coeffs[rest], nhat[k]))
    for i, j in g.edges:
        pi, pj = pred[i], pred[j]
        for n in range(len(ws) - 1, -1, -1):
            a, b, c = pi[n], pj[n], coeffs[n]
            if a is not None:
                if b is not None:
                    _add_into(c, coeffs[pj[a]], 1)
                    _add_into(c, coeffs[b], sign=-1)
                _add_into(c, coeffs[a], sign=-1)
            elif b is not None:
                _add_into(c, coeffs[b], sign=-1)
    return _series(tuple(hi), dict(zip(ws, coeffs)), "semigroup-class", "L")


def assert_products_match_reference(g, hi):
    for fast, slow in (
        (semigroup_class_series, reference_class_series),
        (semigroup_class_series, dict_kernel_class_series),
        (divisorial_poincare_product, reference_poincare_product),
    ):
        got, want = fast(g, hi), slow(g, hi)
        assert (got.lo, got.hi) == (want.lo, want.hi)
        assert got.coeffs == want.coeffs


@pytest.mark.parametrize(
    "g, hi",
    [
        (SINGLE, (7,)),
        (CHAIN, (0, 0)),
        (CHAIN, (7, 6)),
        (CUSP_ARROW, (8, 8, 8)),
        (CUSP_ARROW, (6, 9, 12)),
        (CUSP_EXTRA_ARROWS, (6, 6, 6, 9)),
    ],
)
def test_nhat_products_match_reference_on_fixtures(g, hi):
    assert_products_match_reference(g, hi)


def test_nhat_products_match_reference_on_modification_fixtures():
    from motive_series import verify

    for m, hi in verify.modification_fixtures().values():
        assert_products_match_reference(m.graph(), hi)


@DIFFERENTIAL
@given(blowup_scripts(), st.data())
def test_nhat_products_match_reference_on_random_scripts(script, data):
    g = run_script(script).graph()
    hi = tuple(data.draw(st.integers(0, 7)) for _ in range(g.nvertices))
    assert_products_match_reference(g, hi)


@DIFFERENTIAL
@given(blowup_scripts(max_steps=7, params=LONG_PARAMS), st.data())
def test_packed_class_series_matches_the_dict_kernel(script, data):
    g = run_script(script).graph()
    hi = tuple(data.draw(st.integers(0, 12)) for _ in range(g.nvertices))
    got, want = semigroup_class_series(g, hi), dict_kernel_class_series(g, hi)
    assert got.coeffs == want.coeffs
    # the a priori bound of _class_width holds every digit, with a sign
    # bit and one spare bit left in the width
    tops = [min(h // m for h, m in zip(hi, row)) for row in build_intersection(g).M]
    bound = 4 ** len(g.edges)
    for top in tops:
        bound *= top + 1
    assert bound < 2 ** (_class_width(tops, len(g.edges)) - 2)
    assert all(abs(c) <= bound for p in want.coeffs.values() for c in p.terms.values())


@pytest.mark.parametrize("width", [2, 3, 7, 8, 31, 64, 65])
def test_unpack_round_trips_extreme_digits(width):
    top = 2 ** (width - 1) - 1
    rows = [
        [top] * 9,
        [-top] * 9,
        [top, -top] * 5,
        [-top, top, 0, -1, 1, -top, 0, 0, top],
        [0, 0, -(top + 1), top, -(top + 1)],  # the least digit, -2^(width-1), too
        [1],
        [-1],
    ]
    for digits in rows:
        v = sum(c << width * e for e, c in enumerate(digits))
        assert unpack(v, width) == {e: c for e, c in enumerate(digits) if c}
    assert unpack(0, width) == {}


@pytest.mark.parametrize("width", [1, 0])
def test_unpack_refuses_a_width_below_2(width):
    # width 1 has no room for a sign and a digit: unguarded, a positive
    # value never leaves the digit loop
    for v in (0, 1, -1, 5):
        with pytest.raises(InternalInconsistency, match="digit width %d" % width):
            unpack(v, width)


@DIFFERENTIAL
@given(blowup_scripts(), st.data())
def test_nhats_walks_the_window_in_lex_order(script, data):
    g = run_script(script).graph()
    d = build_intersection(g)
    s = g.nvertices
    cols = data.draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=s, unique=True))
    caps = {j: data.draw(st.integers(0, 9)) for j in cols}
    limits = data.draw(
        st.none() | st.lists(st.none() | st.integers(0, 3), min_size=s, max_size=s)
    )
    # the box holds the window: nhat_i * M[i][j] <= w_j for every capped j
    top = tuple(min(cap // d.M[i][j] for j, cap in caps.items()) for i in range(s))
    brute = []
    for nhat in box(zero_vec(s), top):
        w = tuple(sum(nhat[i] * d.M[i][j] for i in range(s)) for j in range(s))
        if all(w[j] <= cap for j, cap in caps.items()) and all(
            limits is None or limits[i] is None or x <= limits[i]
            for i, x in enumerate(nhat)
        ):
            brute.append((nhat, w))
    assert list(_nhats(d, caps, limits)) == brute
