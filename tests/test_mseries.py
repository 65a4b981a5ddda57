import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_series.errors import InvalidInput, NonconvergentFactor, OutsideWindow
from motive_series.laurent import LaurentPoly
from motive_series.mseries import (
    MSeries,
    box,
    expand_rational,
    first_mismatch,
    mseries_mul,
    vec_leq,
    zero_vec,
)

ONE = LaurentPoly.one()
L = LaurentPoly.l_power(1)
Q = LaurentPoly.q_power(1)


def poly1(terms):
    return MSeries.polynomial(1, {(e,): c for e, c in terms.items()})


def test_polynomial_times_polynomial():
    f = poly1({0: ONE, 1: ONE})
    g = poly1({0: ONE, 1: -ONE})
    assert (f * g).coeffs == {(0,): ONE, (2,): -ONE}


def test_windowed_product_of_windowed():
    f = MSeries(1, (0,), (2,), {(0,): ONE, (1,): ONE})
    g = MSeries(1, (0,), (2,), {(0,): ONE, (1,): -ONE})
    prod = mseries_mul(f, g)
    assert prod.hi == (2,)
    assert prod.coeffs == {(0,): ONE, (2,): -ONE}


def test_telescoping_keeps_full_window():
    # (sum_n q^n t^n) * (1 - q t) is exactly 1 on the whole window [0, 3]
    f = MSeries(1, (0,), (3,), {(n,): Q ** n for n in range(4)})
    g = MSeries.polynomial(1, {(0,): ONE, (1,): -Q})
    prod = mseries_mul(f, g)
    assert prod.lo == (0,) and prod.hi == (3,)
    assert prod.coeffs == {(0,): ONE}


def test_product_with_empty_series():
    f = MSeries(1, (0,), (3,), {(n,): Q ** n for n in range(4)})
    assert mseries_mul(f, MSeries.zero(1)).coeffs == {}


def test_window_shrinks_without_floor():
    # an unfloored window [-1, 3] times (t - 1) is only known on [0, 3]
    f = MSeries(
        1, (-1,), (3,), {(n,): ONE for n in range(-1, 4)}, floored=False
    )
    g = MSeries.polynomial(1, {(1,): ONE, (0,): -ONE})
    prod = mseries_mul(f, g)
    assert prod.lo == (0,) and prod.hi == (3,)
    assert prod.coeffs == {}  # telescoping of the all-ones window
    with pytest.raises(OutsideWindow):
        prod.coeff((4,))


def test_windowed_product_requires_floors():
    f = MSeries(1, (-1,), (3,), {(0,): ONE}, floored=False)
    g = MSeries(1, (-1,), (3,), {(0,): ONE}, floored=False)
    with pytest.raises(InvalidInput):
        mseries_mul(f, g)


def test_coeff_outside_window():
    f = MSeries(2, (0, 0), (2, 2), {(1, 1): ONE})
    assert f.coeff((2, 2)) == LaurentPoly.zero()
    assert f.coeff((-1, 5)) == LaurentPoly.zero()  # below the floor
    with pytest.raises(OutsideWindow):
        f.coeff((3, 0))


def test_expand_rational_geometric():
    out = expand_rational(MSeries.one(1), [(ONE, (1,))], (3,))
    assert out.coeffs == {(n,): ONE for n in range(4)}


def test_expand_rational_two_factors():
    out = expand_rational(MSeries.one(1), [(ONE, (1,)), (L, (1,))], (2,))
    assert out.coeffs == {
        (0,): ONE,
        (1,): ONE + L,
        (2,): ONE + L + L ** 2,
    }


def test_expand_rational_cancels():
    num = poly1({0: ONE, 2: -ONE})
    out = expand_rational(num, [(ONE, (1,))], (4,))
    assert out.coeffs == {(0,): ONE, (1,): ONE}


def test_expand_rational_rejects_zero_vector():
    with pytest.raises(NonconvergentFactor):
        expand_rational(MSeries.one(2), [(ONE, (0, 0))], (2, 2))


def test_reexpansion_agrees_on_smaller_window():
    num = MSeries.polynomial(2, {(0, 0): ONE, (1, 1): L})
    factors = [(ONE, (1, 0)), (ONE, (0, 1)), (L, (1, 1))]
    small = expand_rational(num, factors, (3, 3))
    large = expand_rational(num, factors, (6, 6))
    assert first_mismatch(small, large, (0, 0), (3, 3)) is None


def test_expand_rational_needs_a_floored_numerator():
    num = MSeries(1, (-1,), (3,), {(0,): ONE}, floored=False)
    with pytest.raises(InvalidInput):
        expand_rational(num, [(ONE, (1,))], (3,))
    # with no factor nothing is divided: the numerator is only re-windowed
    assert expand_rational(num, [], (3,)).coeffs == {(0,): ONE}


def test_expand_rational_needs_the_numerator_on_the_window():
    short = MSeries(1, (0,), (2,), {(0,): ONE})
    with pytest.raises(OutsideWindow):
        expand_rational(short, [(ONE, (1,))], (3,))
    # support below 0 would reach the window through every factor
    for low in (
        MSeries(1, (-1,), (3,), {(0,): ONE}),
        MSeries.polynomial(1, {(-1,): ONE, (0,): ONE}),
    ):
        with pytest.raises(OutsideWindow):
            expand_rational(low, [(ONE, (1,))], (3,))


def geometric_expansion(numerator, factors, hi):
    """numerator / prod (1 - c t^m) as products with truncated geometric
    series 1 + c t^m + c^2 t^2m + ... on [0, hi], floored * floored."""
    n = numerator.nvars
    out = numerator.restrict(zero_vec(n), hi)
    for c, m in factors:
        kmax = min(h // x for h, x in zip(hi, m) if x)
        geom = {tuple(k * x for x in m): c ** k for k in range(kmax + 1)}
        out = mseries_mul(out, MSeries(n, zero_vec(n), hi, geom))
    return out.restrict(zero_vec(n), hi)


@st.composite
def rational_series(draw):
    n = draw(st.integers(1, 3))
    hi = tuple(draw(st.integers(0, 4)) for _ in range(n))
    exact = draw(st.booleans())
    # an exact numerator may have terms above the window; a floored one
    # is known on a box [0, top] with top >= hi
    top = tuple(h + draw(st.integers(0, 2)) for h in hi)
    exps = st.tuples(*(st.integers(0, t) for t in top))
    coeffs = st.sampled_from([ONE, -ONE, 2 * ONE, L, ONE - L, L * L - 3 * ONE])
    terms = draw(st.dictionaries(exps, coeffs, max_size=6))
    if exact:
        num = MSeries.polynomial(n, terms)
    else:
        num = MSeries(n, zero_vec(n), top, terms)
    vec = st.tuples(*(st.integers(0, 2) for _ in range(n))).filter(any)
    factors = draw(st.lists(st.tuples(st.sampled_from([ONE, L, -ONE]), vec), max_size=3))
    return num, factors, hi


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(rational_series())
def test_expand_rational_matches_geometric_products(case):
    num, factors, hi = case
    got = expand_rational(num, factors, hi)
    want = geometric_expansion(num, factors, hi)
    assert got == want
    assert (got.lo, got.floored, got.exact) == (zero_vec(num.nvars), True, False)


def test_shift_and_restrict():
    f = MSeries(2, (0, 0), (2, 2), {(1, 0): ONE})
    g = f.shift((1, 1))
    assert g.coeff((2, 1)) == ONE
    assert g.coeff((0, 0)) == LaurentPoly.zero()
    h = g.restrict((0, 0), (2, 2))
    assert h.coeffs == {(2, 1): ONE}
    with pytest.raises(OutsideWindow):
        g.restrict((0, 0), (4, 4))


def test_addition_tracks_known_region():
    f = MSeries(1, (0,), (4,), {(0,): ONE})
    g = MSeries(1, (0,), (2,), {(1,): ONE})
    s = f + g
    assert s.hi == (2,)
    assert s.coeff((0,)) == ONE and s.coeff((1,)) == ONE


def test_at_one_specialization():
    f = MSeries(1, (0,), (2,), {(1,): ONE - Q, (2,): Q})
    g = f.at_one()
    assert g.coeffs == {(2,): ONE}


def test_json_round_trip():
    f = MSeries(2, (0, 0), (3, 3), {(1, 2): ONE + L, (0, 0): -ONE})
    doc = f.to_json()
    assert MSeries.from_json(doc) == f
    assert doc["terms"] == sorted(doc["terms"], key=lambda t: t["exp"])


def test_window_must_contain_zero():
    with pytest.raises(InvalidInput):
        MSeries(1, (1,), (3,), {})


def odometer(lo, hi, down=False):
    """The lex-order odometer that `box` replaced, kept as its reference."""
    if not vec_leq(lo, hi):
        return
    first, last, step = (hi, lo, -1) if down else (lo, hi, 1)
    cur = list(first)
    while True:
        yield tuple(cur)
        i = len(lo) - 1
        while i >= 0 and cur[i] == last[i]:
            cur[i] = first[i]
            i -= 1
        if i < 0:
            return
        cur[i] += step


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 3).flatmap(
    lambda n: st.tuples(*(st.tuples(st.integers(-2, 2), st.integers(-3, 3)) for _ in range(n)))
), st.booleans())
def test_box_matches_the_odometer(axes, down):
    # some draws have lo_k > hi_k: an empty box
    lo, hi = tuple(a for a, _ in axes), tuple(b for _, b in axes)
    assert list(box(lo, hi, down)) == list(odometer(lo, hi, down))


def test_box_edge_cases():
    assert list(box((), ())) == list(box((), (), down=True)) == [()]
    assert list(box((0, 3), (5, 2))) == list(box((0, 3), (5, 2), down=True)) == []
    # an empty box builds no range, however long its other axes
    assert list(box((0, 1), (10**30, 0))) == []


def per_point_mismatch(f, g, lo, hi):
    """first_mismatch as one coeff call per series at every point of the box."""
    for e in box(tuple(lo), tuple(hi)):
        a, b = f.coeff(e), g.coeff(e)
        if a != b:
            return e, a, b
    return None


def outcome(compare, *args):
    try:
        return "result", compare(*args)
    except OutsideWindow as exc:
        return "raises", str(exc)


@st.composite
def windowed_pairs(draw):
    """Two series in n <= 2 variables (each exact, floored or unfloored),
    the second a copy of the first with a few terms changed or dropped,
    and a box that may reach past either window on any side."""
    n = draw(st.integers(1, 2))
    coeffs = st.sampled_from([ONE, -ONE, L, Q, ONE - L])

    def series(terms):
        if draw(st.integers(0, 3)) == 0:
            return MSeries.polynomial(n, terms)
        lo = tuple(draw(st.integers(-2, 0)) for _ in range(n))
        hi = tuple(draw(st.integers(0, 3)) for _ in range(n))
        kept = {e: c for e, c in terms.items() if vec_leq(lo, e) and vec_leq(e, hi)}
        return MSeries(n, lo, hi, kept, floored=draw(st.booleans()))

    exps = st.tuples(*(st.integers(-2, 3) for _ in range(n)))
    terms = draw(st.dictionaries(exps, coeffs, max_size=8))
    other = dict(terms)
    for e in draw(st.lists(exps, min_size=1, max_size=2)):
        if draw(st.booleans()):
            other.pop(e, None)
        else:
            other[e] = draw(coeffs)
    lo = tuple(draw(st.integers(-3, 1)) for _ in range(n))
    hi = tuple(draw(st.integers(-1, 4)) for _ in range(n))
    return series(terms), series(other), lo, hi


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(windowed_pairs())
def test_first_mismatch_matches_the_per_point_loop(case):
    f, g, lo, hi = case
    assert outcome(first_mismatch, f, g, lo, hi) == outcome(per_point_mismatch, f, g, lo, hi)


def test_first_mismatch_reads_an_unstored_key_as_zero():
    f = MSeries(1, (0,), (3,), {(0,): ONE, (2,): L})
    g = MSeries(1, (0,), (3,), {(0,): ONE})
    e, a, b = first_mismatch(f, g, (0,), (3,))
    assert (e, a) == ((2,), L)
    assert isinstance(b, LaurentPoly) and b == LaurentPoly.zero()
    assert first_mismatch(g, f, (0,), (3,)) == ((2,), LaurentPoly.zero(), L)


def test_first_mismatch_names_the_first_point_off_a_window():
    f = MSeries(2, (0, 0), (3, 1), {(0, 0): ONE})
    g = MSeries(2, (0, 0), (5, 5), {(0, 0): ONE})
    for pair in ((f, g), (g, f)):
        with pytest.raises(OutsideWindow, match=r"\(0, 2\)"):
            first_mismatch(*pair, (0, 0), (4, 4))
    # a mismatch before the first unknown point is returned, not raised
    h = MSeries(2, (0, 0), (5, 5), {(0, 0): ONE, (0, 1): Q})
    assert first_mismatch(f, h, (0, 0), (4, 4)) == ((0, 1), LaurentPoly.zero(), Q)


def test_first_mismatch_of_an_exact_polynomial_and_a_window():
    exact = MSeries.polynomial(1, {(0,): ONE, (1,): L, (6,): Q})
    windowed = MSeries(1, (0,), (4,), {(0,): ONE, (1,): L, (3,): Q})
    assert first_mismatch(exact, windowed, (0,), (2,)) is None
    assert first_mismatch(exact, windowed, (0,), (4,)) == ((3,), LaurentPoly.zero(), Q)
    # the exact side knows every point; the window's floor covers -1, not 5
    assert first_mismatch(exact, windowed, (-1,), (2,)) is None
    with pytest.raises(OutsideWindow, match=r"\(5,\)"):
        first_mismatch(exact, MSeries(1, (0,), (4,), {(0,): ONE, (1,): L}), (0,), (6,))


def plain_product(f, g):
    """The coefficients of f * g by the pairwise LaurentPoly convolution that
    packed products replaced, kept as their reference."""
    out = {}
    for a, x in f.coeffs.items():
        for b, y in g.coeffs.items():
            e = tuple(i + j for i, j in zip(a, b))
            out[e] = out[e] + x * y if e in out else x * y
    return {e: c for e, c in out.items() if c}


BIG = 2**64


@st.composite
def laurent_coeffs(draw):
    """Laurent polynomials with L-powers in -4..4 and digits up to 2^64."""
    digits = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG)).filter(bool)
    return LaurentPoly(draw(st.dictionaries(st.integers(-4, 4), digits, min_size=1, max_size=4)))


@st.composite
def product_operands(draw):
    """(f, g) in one of the four window cases of `mseries_mul`."""
    n = draw(st.integers(1, 2))
    case = draw(st.sampled_from(["exact*exact", "exact*floored", "exact*unfloored", "windowed*windowed"]))

    def terms(lo, hi):
        exps = st.tuples(*(st.integers(a, b) for a, b in zip(lo, hi)))
        return draw(st.dictionaries(exps, laurent_coeffs(), min_size=1, max_size=6))

    def exact():
        return MSeries.polynomial(n, terms((-2,) * n, (3,) * n))

    def windowed(floored):
        lo = tuple(draw(st.integers(-2, 0)) for _ in range(n))
        hi = tuple(draw(st.integers(1, 4)) for _ in range(n))
        return MSeries(n, lo, hi, terms(lo, hi), floored=floored)

    if case == "exact*exact":
        f, g = exact(), exact()
    elif case == "windowed*windowed":
        f, g = windowed(True), windowed(True)
    else:
        # an unfloored window needs an exact factor whose support lies at or below 0
        f = MSeries.polynomial(n, terms((-2,) * n, (0,) * n)) if case == "exact*unfloored" else exact()
        g = windowed(case == "exact*floored")
    return (f, g) if draw(st.booleans()) else (g, f)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(product_operands())
def test_packed_products_match_the_plain_convolution(ops):
    f, g = ops
    try:
        got = mseries_mul(f, g)
    except (InvalidInput, OutsideWindow):
        return  # a window that is empty or misses 0, as at the plain product
    want = plain_product(f, g)
    if not got.exact:
        want = {e: c for e, c in want.items() if vec_leq(got.lo, e) and vec_leq(e, got.hi)}
    assert got.coeffs == want
    assert all(type(c.terms[k]) is int for c in got.coeffs.values() for k in c.terms)


@pytest.mark.parametrize("sign", [1, -1])
def test_a_product_that_needs_every_bit_of_its_width(monkeypatch, sign):
    # one digit (2^64 - 1)(2^64 + 1) = 2^128 - 1 = l1(f) l1(g): B = 129 bits
    from motive_series import mseries

    f = MSeries.polynomial(1, {(1,): LaurentPoly({-3: sign * (BIG - 1)})})
    g = MSeries(1, (0,), (2,), {(0,): LaurentPoly({5: BIG + 1})})
    want = {(1,): LaurentPoly({2: sign * (BIG * BIG - 1)})}
    assert mseries._product_width(f, g) == 129
    assert mseries_mul(f, g).coeffs == plain_product(f, g) == want
    width = mseries._product_width
    monkeypatch.setattr(mseries, "_product_width", lambda f, g: width(f, g) - 1)
    assert mseries_mul(f, g).coeffs != want


@st.composite
def known_box_pairs(draw):
    """Two series that often both know a box, differing at a few points of
    it (corners included) or only outside it, with the box often equal to
    a window: the cases where `first_mismatch` compares stored terms."""
    n = draw(st.integers(1, 2))
    lo = tuple(draw(st.integers(-2, 0)) for _ in range(n))
    hi = tuple(draw(st.integers(0, 3)) for _ in range(n))
    coeffs = st.sampled_from([ONE, -ONE, L, Q, ONE - L])
    exps = st.tuples(*(st.integers(a - 1, b + 1) for a, b in zip(lo, hi)))
    terms = draw(st.dictionaries(exps, coeffs, max_size=8))
    other = dict(terms)
    corners = st.tuples(*(st.sampled_from([a, b]) for a, b in zip(lo, hi)))
    for e in draw(st.lists(st.one_of(exps, corners), min_size=1, max_size=2)):
        if draw(st.booleans()):
            other.pop(e, None)
        else:
            other[e] = draw(coeffs)

    def series(terms):
        kind = draw(st.sampled_from(["exact", "box", "wider", "narrower"]))
        if kind == "exact":
            return MSeries.polynomial(n, terms)
        grow = {"box": 0, "wider": 1, "narrower": -1}[kind]
        wlo = tuple(min(a - grow, 0) for a in lo)
        whi = tuple(max(b + grow, 0) for b in hi)
        kept = {e: c for e, c in terms.items() if vec_leq(wlo, e) and vec_leq(e, whi)}
        return MSeries(n, wlo, whi, kept, floored=draw(st.booleans()))

    return series(terms), series(other), lo, hi


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(known_box_pairs())
def test_first_mismatch_on_known_boxes_matches_the_per_point_walk(case):
    f, g, lo, hi = case
    assert outcome(first_mismatch, f, g, lo, hi) == outcome(per_point_mismatch, f, g, lo, hi)
    for s in (f, g):
        terms = s.box_terms(lo, hi)
        if terms is not None:
            assert terms == {e: s.coeff(e) for e in box(lo, hi) if s.coeff(e)}
