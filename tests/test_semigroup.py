"""A third route for plane branches: the value semigroup of Zariski.

For a branch (tau^n, y(tau)) with ord y >= n, let beta_0 = n and let
beta_(i+1) be the least exponent of y not divisible by e_i = gcd(beta_0,
..., beta_i).  With betabar_1 = beta_1 and betabar_(i+1) = (e_(i-1)/e_i)
betabar_i - beta_i + beta_(i+1), the value semigroup is Gamma = <beta_0,
betabar_1, ..., betabar_g>, and then h(v) = #{gamma in Gamma : gamma < v}
and P(t) = sum_{gamma in Gamma} t^gamma.  Neither uses jets or blow-ups,
so it checks route A (auto_resolve + curve_series) and route B (the jet
oracle) on random branches with two or three characteristic exponents,
whose resolutions are deeper than the other generators' and whose
support forests have up to three edges.  Beside a smooth branch, such a
branch also checks route A's M at the two arrows against the order of
contact of the parametrizations, and two of them against Zariski's
intersection multiplicity, one determinant over Z[t].
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from motive_series import Branch, Curve
from motive_series.blowup import auto_resolve
from motive_series.formulas import curve_poincare_product, curve_series
from motive_series.graph import build_intersection
from motive_series.jets import HilbertOracle, series
from motive_series.laurent import LaurentPoly

MAX_BOUND = 100
# e_0 > e_1 > ... > e_g = 1, each dividing the one before
CHAINS = ((4, 2, 1), (6, 2, 1), (6, 3, 1), (8, 4, 1), (9, 3, 1), (8, 4, 2, 1), (12, 6, 2, 1))
COEFFS = tuple(map(Fraction, ("1", "-1", "2", "1/2", "-2/3", "3")))


def semigroup_generators(n, y):
    """beta_0 = n, betabar_1, ..., betabar_g of the branch (tau^n, y)."""
    betas, es = [n], [n]
    for k in sorted(y):
        if k % es[-1]:
            betas.append(k)
            es.append(gcd(es[-1], k))
    bars = [n] + betas[1:2]
    for i in range(1, len(betas) - 1):
        bars.append(es[i - 1] // es[i] * bars[i] - betas[i] + betas[i + 1])
    return bars


def members(gens, top):
    """The elements of <gens> up to top, in increasing order."""
    inside = [True] + [False] * top
    for v in range(1, top + 1):
        inside[v] = any(v >= g and inside[v - g] for g in gens)
    return [v for v in range(top + 1) if inside[v]]


def conductor(gens):
    """The least c with every integer >= c in <gens> (gcd(gens) = 1)."""
    top = gens[0] * max(gens)  # past the Frobenius number of any two coprime generators
    inside = set(members(gens, top))
    return max(v for v in range(top + 1) if v not in inside) + 1


@st.composite
def branches(draw, chains=CHAINS):
    """(n, y, swap): y has characteristic exponents beta_1 < ... < beta_g
    with gcd(e_(i-1), beta_i) = e_i along one of the chains, and one to
    three more terms that keep the semigroup: each at beta_i + m e_i for
    some i >= 0 (beta_0 = e_0 = n) and m in 1..3, a multiple of e_i and
    so of every later e_j.  Coefficients are rational."""
    es = draw(st.sampled_from(chains))
    y, betas = {}, [es[0]]
    for e_prev, e in zip(es, es[1:]):
        lo = betas[-1] // e + 1
        cofactors = [m for m in range(lo, lo + 8) if gcd(e_prev // e, m) == 1]
        betas.append(e * draw(st.sampled_from(cofactors[:4])))
        y[betas[-1]] = draw(st.sampled_from(COEFFS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(es) - 1))
        y[betas[i] + es[i] * draw(st.integers(1, 3))] = draw(st.sampled_from(COEFFS))
    return es[0], y, draw(st.booleans())


def as_curve(n, y, swap):
    coords = [{n: Fraction(1)}, dict(y)]
    return Curve(2, [Branch(coords[::-1] if swap else coords)])


SEMIGROUP = settings(
    max_examples=20,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def test_generators_of_known_branches():
    assert semigroup_generators(4, {6: 1, 7: 1}) == [4, 6, 13]
    assert semigroup_generators(6, {8: 1, 9: 1}) == [6, 8, 25]
    assert semigroup_generators(8, {12: 1, 14: 1, 15: 1}) == [8, 12, 26, 53]
    assert semigroup_generators(2, {3: 1}) == [2, 3]
    assert conductor([4, 6, 13]) == 16 and conductor([2, 3]) == 2


@SEMIGROUP
@given(branches())
def test_generated_semigroups_are_symmetric(branch):
    # a plane branch is Gorenstein: gamma in Gamma iff c - 1 - gamma is not
    n, y, _ = branch
    gens = semigroup_generators(n, y)
    assert len(gens) == len(set(gens)) >= 3
    c = conductor(gens)
    inside = set(members(gens, c))
    assert all((v in inside) != (c - 1 - v in inside) for v in range(c))


@SEMIGROUP
@given(branches())
def test_route_a_and_the_oracle_match_the_semigroup(branch):
    n, y, swap = branch
    gens = semigroup_generators(n, y)
    hi = min(conductor(gens) + n, MAX_BOUND)
    gamma = members(gens, hi + 1)
    curve = as_curve(n, y, swap)
    _, g, _ = auto_resolve(curve)
    got = curve_series(g, (hi,)).at_one()
    assert {e: c.eval_one() for e, c in got.coeffs.items()} == {
        (v,): 1 for v in gamma if v <= hi
    }
    assert curve_poincare_product(g, (hi,)).coeffs == got.coeffs
    oracle = HilbertOracle(curve, max_jet=hi + 1)
    # top-down, so the line is ranked once
    for v in range(hi + 1, -1, -1):
        assert oracle.hilbert((v,)) == sum(1 for x in gamma if x < v), v


@SEMIGROUP
@given(branches())
def test_oracle_series_match_the_semigroup(branch):
    # one branch: P = sum t^gamma, and Pg has q^#{gamma' < gamma} at each
    # gamma in Gamma and 0 off Gamma
    n, y, swap = branch
    gens = semigroup_generators(n, y)
    hi = min(conductor(gens) + n, MAX_BOUND)
    gamma = members(gens, hi)
    oracle = HilbertOracle(as_curve(n, y, swap), max_jet=hi + 1)
    assert series(oracle, "P", (hi,)).coeffs == {(v,): LaurentPoly.one() for v in gamma}
    pg = series(oracle, "Pg", (hi,))
    assert pg.coeffs == {(v,): LaurentPoly.q_power(k) for k, v in enumerate(gamma)}


@SEMIGROUP
@given(branches(), st.data())
def test_arrow_entry_of_m_is_the_intersection_multiplicity(branch, data):
    # a smooth branch (t, y1(t)) meets (t^n, y(t)) with multiplicity
    # ord_t(y(t) - y1(t^n)), which the resolution holds as m_(a_1 a_2); y1
    # copies some of y's terms at multiples of n, so the contact can pass n
    n, y, swap = branch
    shared = [k for k in sorted(y) if k % n == 0]
    y1 = {k // n: y[k] for k in shared[: data.draw(st.integers(0, len(shared)))]}
    if data.draw(st.booleans()):
        y1[data.draw(st.integers(1, 4))] = data.draw(st.sampled_from(COEFFS))
    diff = dict(y)
    for j, c in y1.items():
        diff[j * n] = diff.get(j * n, 0) - c
    contact = min(k for k, c in diff.items() if c)
    smooth = [{1: Fraction(1)}, y1]
    curve = Curve(2, [Branch(smooth[::-1] if swap else smooth), *as_curve(n, y, swap).branches])
    _, g, _ = auto_resolve(curve)
    assert build_intersection(g).M[g.arrows[0]][g.arrows[1]] == contact


@pytest.mark.parametrize(
    "gens", [(3, 4, 5), (3, 5, 7), (4, 5, 6, 7), (5, 7, 9), (6, 7, 8, 9, 10)]
)
def test_monomial_space_curves_count_their_semigroup(gens):
    # (tau^a_1, ..., tau^a_n) has the value semigroup <a_1, ..., a_n>; route A
    # has nothing for space curves, so this is the oracle's one third route.
    # <3, 4, 5> is not symmetric: a non-Gorenstein case.
    top = 50
    gamma = members(gens, top)
    oracle = HilbertOracle(Curve(len(gens), [Branch([{a: Fraction(1)} for a in gens])]))
    for v in range(top - 1, -1, -1):  # top-down, so the line is ranked once
        assert oracle.hilbert((v,)) == sum(1 for x in gamma if x < v), (gens, v)


# -- the contact of two branches, as one determinant over Z[t] -----------------
#
# For branches (t^a, y_1(t)) and (s^n, y_2(s)), let S be the companion
# matrix of s^n - t^a, so that S^n = t^a I and the eigenvalues of S are
# the zeta t^(a/n), zeta^n = 1.  Then det(y_1(t) I - y_2(S)) is the
# Halphen-Zariski product prod_zeta (y_1(t) - y_2(zeta t^(a/n))), that is
# the equation of the second branch on the first, and its order in t is
# the intersection multiplicity.  It is identically 0 when the two
# parametrizations trace one curve.  Scaling y by the common denominator
# D of both branches keeps the contact and makes every entry an integer
# polynomial, a dict {exponent: int}.


def tpoly_sub(p, q, scale=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) - scale * c
    return {e: c for e, c in out.items() if c}


def tpoly_mul(p, q):
    out = {}
    for e, c in p.items():
        for f, d in q.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


def tpoly_div_exact(p, q):
    """p / q for a q that divides p in Z[t], by long division from the top."""
    top, lead = max(q), q[max(q)]
    out = {}
    while p:
        e = max(p)
        c, rest = divmod(p[e], lead)
        assert not rest and e >= top, "q does not divide p"
        out[e - top] = c
        p = tpoly_sub(p, {f + e - top: d for f, d in q.items()}, c)
    return out


def bareiss_det(rows):
    """The determinant of a square matrix over Z[t], fraction-free: each
    step divides exactly by the pivot before it."""
    m, sign, prev = [list(r) for r in rows], 1, {0: 1}
    n = len(m)
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return {}
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                cross = tpoly_sub(tpoly_mul(m[i][j], m[k][k]), tpoly_mul(m[i][k], m[k][j]))
                m[i][j] = tpoly_div_exact(cross, prev)
        prev = m[k][k]
    return {e: sign * c for e, c in m[-1][-1].items()}


def contact_determinant(a, y1, n, y2):
    """det(D y1(t) I - D y2(S)), S the companion matrix of s^n - t^a, D the
    common denominator of y1 and y2: column j of S^k is
    t^(a ((j + k) // n)) e_((j + k) % n)."""
    den = lcm(*(Fraction(c).denominator for c in (*y1.values(), *y2.values())))
    m = [[{} for _ in range(n)] for _ in range(n)]
    for j in range(n):
        m[j][j] = {e: int(c * den) for e, c in y1.items()}
        for k, c in y2.items():
            i = (j + k) % n
            m[i][j] = tpoly_sub(m[i][j], {a * ((j + k) // n): int(c * den)})
    return bareiss_det(m)


def test_contact_determinant_worked_cases():
    one = Fraction(1)
    # the Halphen sum 4 + 3 over the two square roots of t^2
    assert min(contact_determinant(2, {3: one}, 2, {3: one, 4: one})) == 7
    # (t^2, t^3) and (t^2, -t^3) trace one cusp: the determinant is 0
    assert contact_determinant(2, {3: one}, 2, {3: -one}) == {}
    curve = Curve(2, [Branch([{2: one}, {3: one}]), Branch([{2: one}, {3: one, 4: one}])])
    _, g, _ = auto_resolve(curve)
    assert build_intersection(g).M[g.arrows[0]][g.arrows[1]] == 7


# multiplicity at most 8: the determinant is n x n
PAIR_CHAINS = tuple(es for es in CHAINS if es[0] <= 8)


@st.composite
def branch_pairs(draw):
    """Two branches of `branches` along PAIR_CHAINS, drawn apart or the
    second a copy of the first with one coefficient changed, which keeps
    its semigroup (and so primitivity) and raises the contact."""
    n, y, swap = draw(branches(PAIR_CHAINS))
    if draw(st.booleans()):
        n2, y2, _ = draw(branches(PAIR_CHAINS))
    else:
        n2, y2 = n, dict(y)
        k = draw(st.sampled_from(sorted(y)))
        y2[k] = draw(st.sampled_from([c for c in COEFFS if c != y[k]]))
    return (n, y), (n2, y2), swap


@settings(
    max_examples=15,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(branch_pairs())
def test_contact_determinant_is_route_a_arrow_entry(pair):
    (n1, y1), (n2, y2), swap = pair
    det = contact_determinant(n1, y1, n2, y2)
    assume(det)  # distinct branches
    assert min(det) == min(contact_determinant(n2, y2, n1, y1))
    # swapping x and y on both branches keeps their contact
    _, g, _ = auto_resolve(Curve(2, [*as_curve(n1, y1, swap).branches, *as_curve(n2, y2, swap).branches]))
    assert build_intersection(g).M[g.arrows[0]][g.arrows[1]] == min(det)
