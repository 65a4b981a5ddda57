"""`polys.TaylorSeries`, the lazy power series that carries strict
transforms through `blowup.auto_resolve`.

Each test checks a defining identity with the `polys` kernel: the first K
coefficients of N/D times D are N mod tau^K, and the order of N/D is the
order of N.  The regression tests count coefficients computed, not time.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_series import Branch, Curve
from motive_series.blowup import _BranchState, _lift_state, auto_resolve
from motive_series.errors import PrecisionExhausted
from motive_series.polys import TaylorSeries, add, clean, mul, scale, uorder

K = 12  # coefficients compared
SERIES = settings(max_examples=30, derandomize=True, database=None, deadline=None)

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
polys = st.dictionaries(st.integers(0, 8), coeffs, max_size=5).map(clean)


@st.composite
def units(draw):
    """A polynomial D with D(0) != 0."""
    return {**draw(polys), 0: draw(coeffs.filter(bool))}


@st.composite
def cancelled_pairs(draw):
    """(c, Na, Nb) with ord Nb = c <= ord Na."""
    c = draw(st.integers(0, 3))
    na = {e + c: v for e, v in draw(polys).items()}
    nb = {e + c + 1: v for e, v in draw(polys).items()}
    return c, na, {**nb, c: draw(coeffs.filter(bool))}


def quotient(n, d):
    """N/D as a series: N / D with nothing cancelled."""
    return TaylorSeries.from_poly(n).div_exact(TaylorSeries.from_poly(d), 0)


def terms(s, k=K):
    return clean({i: s.term(i) for i in range(k)})


def below(p, k=K):
    return {e: c for e, c in p.items() if e < k}


def shift_down(p, c):
    return {e - c: v for e, v in p.items()}


def assert_quotient(s, n, d):
    """s is N/D: its terms times D are N mod tau^K, and its order is N's.
    Both fail if a degree bound is too small: `order` would stop short,
    and a series with dd = 0 would drop terms past dn."""
    assert mul(terms(s), dict(sorted(d.items())), bound=K) == below(n)
    assert s.order() == uorder(n)


@SERIES
@given(polys, units())
def test_terms_times_denominator_are_the_numerator(n, d):
    assert_quotient(quotient(n, d), n, d)


@SERIES
@given(polys, units(), coeffs)
def test_sub_const_is_numerator_minus_c_denominator(n, d, c):
    assert_quotient(quotient(n, d).sub_const(c), add(n, scale(d, -c)), d)


@SERIES
@given(cancelled_pairs(), units(), units())
def test_div_exact_is_the_cancelled_quotient(pair, da, db):
    # a = Na/Da and b = Nb/Db: a/b = (Na Db / tau^c) / (Nb Da / tau^c)
    c, na, nb = pair
    q = quotient(na, da).div_exact(quotient(nb, db), c)
    assert_quotient(q, shift_down(mul(na, db), c), shift_down(mul(nb, da), c))


def recurrence(a, b, c, n):
    """The first n coefficients of a / b after cancelling tau^c, for lists a
    and b of Fractions (zero past their ends), by the Fraction recurrence
    s_k = (a_(k+c) - sum_(i<k) s_i b_(k+c-i)) / b_c: the reference that the
    integer sums of div_exact must reproduce exactly."""
    s = []
    for k in range(n):
        top = a[k + c] if k + c < len(a) else Fraction(0)
        products = (s[i] * b[k + c - i] for i in range(max(0, k + c + 1 - len(b)), k))
        s.append((top - sum(products, Fraction(0))) / b[c])
    return s


def coefficients(p):
    return [Fraction(p.get(e, 0)) for e in range(max(p, default=-1) + 1)]


def assert_recurrence(q, a, b, c, n=K):
    want = recurrence(a, b, c, n)
    got = [q.term(k) for k in range(n)]
    assert got == want and all(type(x) is Fraction for x in got)


@SERIES
@given(cancelled_pairs(), units(), units())
def test_div_exact_terms_equal_the_fraction_recurrence(pair, da, db):
    c, na, nb = pair
    a = recurrence(coefficients(na), coefficients(da), 0, K + c)
    b = recurrence(coefficients(nb), coefficients(db), 0, K + c)
    assert_recurrence(quotient(na, da).div_exact(quotient(nb, db), c), a, b, c)


@pytest.mark.parametrize(
    "na, nb, c",
    [
        # a negative lead, and gaps that put zero terms inside every sum
        ({1: 1, 4: "-2/3", 9: "5/7"}, {1: "-3/2", 3: "4/9", 7: -1}, 1),
        ({0: "-5/6", 2: 3}, {0: "-7/4", 4: "1/3"}, 0),
        ({2: "1/2"}, {2: "-1/9", 3: 0, 6: "2/3"}, 2),
    ],
)
def test_div_exact_with_negative_leads_and_zero_terms(na, nb, c):
    na, nb = ({e: Fraction(v) for e, v in p.items()} for p in (na, nb))
    q = TaylorSeries.from_poly(na).div_exact(TaylorSeries.from_poly(clean(nb)), c)
    assert_recurrence(q, coefficients(na), coefficients(nb), c, 30)


@st.composite
def sparse_divisions(draw):
    """(c, Na, Nb, Db): a divisor Nb/Db whose nonzero terms sit up to 40
    apart, with ord Nb = c <= ord Na, and Db = 1 or 1 - d tau^p."""
    c = draw(st.integers(0, 3))
    gaps = st.dictionaries(st.integers(1, 3) | st.integers(4, 40), coeffs.filter(bool), max_size=3)
    na = {e + c: v for e, v in draw(polys).items()}
    nb = {c: draw(coeffs.filter(bool)), **{e + c: v for e, v in draw(gaps).items()}}
    db = {0: Fraction(1)}
    if draw(st.booleans()):
        db[draw(st.integers(5, 30))] = -draw(coeffs.filter(bool))
    return c, na, nb, db


@SERIES
@given(sparse_divisions())
def test_div_exact_by_divisors_with_long_zero_runs_equals_the_fraction_recurrence(case):
    # the quotient walks only the divisor's nonzero terms, so every term past
    # a run of zeros must still meet each earlier nonzero term
    c, na, nb, db = case
    b = recurrence(coefficients(nb), coefficients(db), 0, 90 + c)
    q = TaylorSeries.from_poly(na).div_exact(quotient(nb, db), c)
    assert_recurrence(q, coefficients(na), b, c, 90)


def test_a_chain_of_400_terms_over_mixed_denominators():
    # 1 / prod_d (1 - tau/d), one quotient at a time, each term an lcm of
    # the denominators 3, 5, 7, 9, 11 and their powers
    s, want = TaylorSeries.from_poly({0: Fraction(1)}), [Fraction(1)]
    for d in (3, 5, 7, 9, 11):
        b = [Fraction(1), Fraction(-1, d)]
        s = s.div_exact(TaylorSeries.from_poly(dict(enumerate(b))), 0)
        want = recurrence(want, b, 0, 400)
    assert [s.term(k) for k in range(400)] == want


def test_a_long_chain_of_quotients_needs_no_deep_recursion():
    # 1/(1 - tau)^n, one quotient at a time: tau^k has coefficient C(n + k - 1, k)
    n, s = 3000, TaylorSeries.from_poly({0: Fraction(1)})
    d = TaylorSeries.from_poly({0: Fraction(1), 1: Fraction(-1)})
    for _ in range(n):
        s = s.div_exact(d, 0)
    assert [s.term(k) for k in range(4)] == [comb(n + k - 1, k) for k in range(4)]


@pytest.mark.parametrize(
    "coords, chart, orders",
    [
        # (u order, v order, order of v - v(0)) after blowing up the origin
        (({1: 1}, {}), 1, (1, None, None)),
        (({}, {1: 1}), 2, (None, 1, 1)),
        (({1: 1}, {1: 1}), 1, (1, 0, None)),
        (({1: 1}, {1: 2, 3: 1}), 1, (1, 0, 2)),
    ],
)
def test_order_is_none_exactly_where_a_line_coordinate_vanishes(coords, chart, orders):
    fu, fv = (TaylorSeries.from_poly({e: Fraction(c) for e, c in p.items()}) for p in coords)
    state = _lift_state(_BranchState(0, fu, fv), (Fraction(0), Fraction(0)), 1, 2)
    fu, fv = state.fu, state.fv
    assert state.chart == chart
    assert (fu.order(), fv.order(), fv.sub_const(fv.term(0)).order()) == orders


def test_lines_along_axes_and_slopes_resolve_in_one_step():
    lines = [({1: 1}, {}), ({}, {1: 1}), ({1: 1}, {1: 1}), ({1: 1}, {1: 2, 3: 1})]
    curve = Curve(2, [Branch([{e: Fraction(c) for e, c in p.items()} for p in b]) for b in lines])
    _, g, attach = auto_resolve(curve)
    assert (g.self_ints, g.edges, attach) == ((-1,), (), (0, 0, 0, 0))


def coefficients_computed(monkeypatch, curve, max_steps=64):
    """auto_resolve(curve), and the number of coefficients its series computed."""
    made = []
    init = TaylorSeries.__init__

    def recording(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(TaylorSeries, "__init__", recording)
    try:
        out = auto_resolve(curve, max_steps)
    except PrecisionExhausted as exc:
        out = exc
    return out, sum(len(s._terms) for s in made)


def branch(*coords):
    return Branch([{e: Fraction(c) for e, c in p.items()} for p in coords])


@pytest.mark.parametrize(
    "curve, nvertices, limit",
    [
        # branches whose unreduced rational lifts took seconds (376 and 398 coefficients here)
        (Curve(2, [branch({8: 1, 12: 1, 20: -1, 22: 1, 29: -3, 31: 2}, {8: 1})]), 12, 800),
        (Curve(2, [branch({8: 1}, {12: -1, 16: -1, 26: 2, 28: "1/2", 33: -1})]), 13, 800),
    ],
)
def test_deep_branches_compute_few_coefficients(monkeypatch, curve, nvertices, limit):
    (_, g, attach), computed = coefficients_computed(monkeypatch, curve)
    assert len(g.self_ints) == nvertices and attach == (nvertices - 1,)
    assert computed <= limit


@pytest.mark.parametrize(
    "pair",
    [
        # two parametrizations of one line, the second one of degree 2:
        # 64 blow-ups, each dividing the zero v-coordinate again.  On the
        # axis (135 coefficients here) v is 0/1 throughout; on the slanted
        # line (157 here) it is 0/D with deg D up to 2 and growing, so a
        # quotient of zero that kept asking its operands for terms would
        # compute thousands.
        ((({1: 1}, {}), ({2: 1}, {}))),
        ((({1: 1, 2: 1}, {1: 1, 2: 1}), ({2: 1, 4: 1}, {2: 1, 4: 1}))),
    ],
)
def test_zero_quotients_stay_free_through_the_whole_budget(monkeypatch, pair):
    out, computed = coefficients_computed(monkeypatch, Curve(2, [branch(*b) for b in pair]))
    assert isinstance(out, PrecisionExhausted)
    assert computed <= 300


def test_polynomial_lifts_stop_at_their_degree(monkeypatch):
    # (s^2, s^3 + s^4) with s = tau^2 is never resolved, and every lift of
    # it divides by a monomial, so each series is a polynomial of degree
    # at most dn: 473 coefficients in 32 blow-ups here, 2,273 if the terms
    # past dn were computed by the quotient recurrence
    curve = Curve(2, [branch({4: 1}, {6: 1, 8: 1})])
    out, computed = coefficients_computed(monkeypatch, curve, max_steps=32)
    assert isinstance(out, PrecisionExhausted)
    assert computed <= 1000
