"""Property tests of the sparse-dict kernel in `polys`.

`umul`, `pmul`, `LaurentPoly` arithmetic and exact `MSeries` products all
run through one convolution loop and one add loop; here they are compared
with dense products over the operands' bounding boxes.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from motive_series.laurent import LaurentPoly
from motive_series.mseries import MSeries, mseries_mul
from motive_series.polys import pmul, umul

KERNEL = settings(max_examples=60, derandomize=True, database=None, deadline=None)

# small ranges, so that products often cancel to zero
coeffs = st.integers(-2, 2).filter(bool)
fractions = st.builds(Fraction, coeffs, st.integers(1, 3))
exponents = st.integers(-3, 4)
laurents = st.dictionaries(exponents, coeffs, max_size=6).map(LaurentPoly)


def tuple_keyed_pairs(values, size):
    """(n, p, q): two sparse dicts keyed by exponent vectors of length n."""

    def pair(n):
        d = st.dictionaries(st.tuples(*[st.integers(-1, 2)] * n), values, max_size=size)
        return st.tuples(st.just(n), d, d)

    return st.integers(1, 3).flatmap(pair)


def dense_product(p, q):
    """p * q by multiplying every pair of exponents of the two bounding
    boxes, zero coefficients included; keys are int tuples."""

    def box(d):
        n = len(next(iter(d)))
        return product(*(range(min(e[i] for e in d), max(e[i] for e in d) + 1) for i in range(n)))

    out = {}
    if p and q:
        for e1 in box(p):
            for e2 in box(q):
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + p.get(e1, 0) * q.get(e2, 0)
    return {e: c for e, c in out.items() if c}


def dense_product_1(p, q):
    """dense_product for int keys."""
    out = dense_product({(e,): c for e, c in p.items()}, {(e,): c for e, c in q.items()})
    return {e: c for (e,), c in out.items()}


def dense_sum(p, q, sign=1):
    out = {e: p.get(e, 0) + sign * q.get(e, 0) for e in set(p) | set(q)}
    return {e: c for e, c in out.items() if c}


def assert_sparse(d, key_type):
    assert all(c for c in d.values())
    assert all(type(e) is key_type for e in d)


def assert_int_terms(p):
    """The invariant that lets arithmetic results skip the constructor."""
    assert_sparse(p.terms, int)
    assert all(type(c) is int for c in p.terms.values())


univariates = st.dictionaries(exponents, fractions, max_size=6)


@KERNEL
@given(univariates, univariates)
def test_umul_matches_dense_product(p, q):
    out = umul(p, q)
    assert out == dense_product_1(p, q)
    assert_sparse(out, int)


@KERNEL
@given(univariates, univariates, st.integers(-7, 9))
def test_bounded_umul_drops_the_keys_at_or_above_the_bound(p, q, bound):
    # the bound needs q's keys ascending; unbounded, any order will do
    ascending = dict(sorted(q.items()))
    out = umul(p, ascending, bound)
    assert out == {e: c for e, c in dense_product_1(p, q).items() if e < bound}
    assert_sparse(out, int)
    assert umul(p, q, None) == umul(p, q) == dense_product_1(p, q)


@KERNEL
@given(tuple_keyed_pairs(fractions, 5))
def test_pmul_matches_dense_product(npq):
    _, p, q = npq
    out = pmul(p, q)
    assert out == dense_product(p, q)
    assert_sparse(out, tuple)


def test_pmul_keeps_large_and_negative_entries_apart():
    p = {(-1000, 7): Fraction(1), (999, -7): Fraction(2)}
    q = {(1000, -7): Fraction(3), (-999, 7): Fraction(1, 2)}
    want = {(0, 0): Fraction(4), (-1999, 14): Fraction(1, 2), (1999, -14): Fraction(6)}
    assert pmul(p, q) == want


@KERNEL
@given(laurents, laurents, st.integers(-3, 3))
def test_laurent_ring_operations_match_dense_reference(a, b, k):
    scaled = {e: c * k for e, c in a.terms.items()} if k else {}
    cases = [
        (a * b, dense_product_1(a.terms, b.terms)),
        (a + b, dense_sum(a.terms, b.terms)),
        (a - b, dense_sum(a.terms, b.terms, -1)),
        (a * k, scaled),
        (k * a, scaled),
        (-a, {e: -c for e, c in a.terms.items()}),
    ]
    for got, want in cases:
        assert got.terms == want
        assert_int_terms(got)


@KERNEL
@given(st.dictionaries(st.integers(-2, 2), coeffs, max_size=3).map(LaurentPoly), st.integers(0, 4))
def test_laurent_power_matches_repeated_dense_product(a, n):
    want = {0: 1}
    for _ in range(n):
        want = dense_product_1(want, a.terms)
    got = a**n
    assert got.terms == want
    assert_int_terms(got)


def test_zero_results_store_nothing():
    p = LaurentPoly({-1: 2, 3: -1})
    assert (p * 0).terms == {}
    assert (p * LaurentPoly.zero()).terms == {}
    assert (p - p).terms == {}
    assert (LaurentPoly.zero() ** 2).terms == {}


@KERNEL
@given(tuple_keyed_pairs(laurents.filter(bool), 4))
def test_exact_mseries_mul_matches_term_by_term_product(npq):
    n, p, q = npq
    f, g = MSeries.polynomial(n, p), MSeries.polynomial(n, q)
    got = mseries_mul(f, g)
    assert got.exact
    sums = {tuple(x + y for x, y in zip(e1, e2)) for e1 in p for e2 in q}
    for e in sums | set(got.coeffs):
        want = LaurentPoly.zero()
        for e1, c1 in p.items():
            want = want + c1 * g.coeff(tuple(x - y for x, y in zip(e, e1)))
        assert got.coeff(e) == want
    assert all(got.coeffs.values())
    total = f + g
    for e in set(p) | set(q):
        assert total.coeff(e) == f.coeff(e) + g.coeff(e)
    assert all(total.coeffs.values())
