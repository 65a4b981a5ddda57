"""Sparse-dict arithmetic, and exact power series in one variable.

Every exact value of the library is a sparse dict {exponent: coefficient}
that stores no zero coefficient: univariate polynomials {int: Fraction}
in a branch parameter, polynomials {tuple: Fraction} in x, y (chart
maps), Laurent polynomials {int: int} in L (`laurent`), and exact
series {tuple: LaurentPoly} (`mseries`).  One kernel serves them all:

* `clean`, `add` and `scale` never look at the keys, and neither do
  `common_denominator` and `as_ints`, which make Fraction coefficients
  ints;
* `mul` is the one convolution loop, for int exponents, truncated on
  request (`umul` is its name for polynomials in the parameter);
* `pmul` packs exponent tuples into ints and calls `mul`;
* `unpack` reads a Laurent coefficient packed as one int at L = 2^B back
  into a dict (`mseries_mul`, and route A's class recursion in `formulas`).

The coefficients only need +, * and truth; the kernel never adds a
coefficient to an int 0, so LaurentPoly coefficients work as well.
Products of box-truncated series are `pmul` of packed ints on a window.

The one exact value that is no dict is `TaylorSeries`: the power series
at tau = 0 of a branch's strict transform, read coefficient by
coefficient as `blowup` needs them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import lshift

# -- the kernel ------------------------------------------------------------


def clean(p):
    return {e: c for e, c in p.items() if c}


def add(p, q):
    """p + q; the one add loop.  A key missing from p takes q's value as
    it is, so no coefficient is ever added to an int 0 default."""
    out = dict(p)
    for e, c in q.items():
        s = out.get(e)
        if s is not None:
            c = s + c
        if c:
            out[e] = c
        else:
            out.pop(e, None)
    return out


def scale(p, c):
    if not c:
        return {}
    return {e: v * c for e, v in p.items()}


def common_denominator(*ps):
    """The lcm of the denominators of the coefficients of ps (int or Fraction)."""
    return lcm(*(c.denominator for p in ps for c in p.values()))


def as_ints(p, d):
    """d p with int coefficients, d a multiple of every denominator of p."""
    return {e: c.numerator * (d // c.denominator) for e, c in p.items()}


def mul(p, q, bound=None):
    """p * q for int exponents; the one convolution loop.  A bound keeps the
    exponents below it: q's keys must then ascend, as each pass over q stops there."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            if bound is not None and e >= bound:
                break
            c = c1 * c2
            s = out.get(e)
            if s is not None:
                c = s + c
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


umul = mul


def pmul(p, q):
    """p * q for exponent tuples of one length, by Kronecker substitution.

    Each exponent vector e is packed into the int sum_i e_i 2^(k i), with
    k bits per entry, enough that no entry of a product exponent can carry
    into its neighbour (entries may be negative: the digits are balanced).
    Packing is a bijection that turns vector addition into int addition,
    so `mul` does the convolution and its keys are unpacked afterwards.
    """
    if not p or not q:
        return {}
    top = max(map(abs, chain.from_iterable(chain(p, q))), default=0)
    k = (2 * top).bit_length() + 1
    shifts = range(0, k * len(next(iter(p))), k)
    half, mask = 1 << (k - 1), (1 << k) - 1
    packed = ({sum(map(lshift, e, shifts)): c for e, c in d.items()} for d in (p, q))
    out = {}
    for key, c in mul(*packed).items():
        e = []
        for _ in shifts:
            x = ((key + half) & mask) - half
            e.append(x)
            key = (key - x) >> k
        out[tuple(e)] = c
    return out


def unpack(v, width, low=0):
    """The kernel dict of L^low p, for the polynomial p with p(2^width) = v
    whose coefficients lie in [-2^(width-1), 2^(width-1)): v's balanced
    digits in base 2^width, lowest first.  A negative digit c leaves v - c
    one more than (v >> width) times 2^width: that is the carry."""
    out, e, mask, half = {}, low, (1 << width) - 1, 1 << (width - 1)
    while v:
        c = v & mask
        if c >= half:
            c -= 1 << width
        if c:
            out[e] = c
        v = (v >> width) + (c < 0)
        e += 1
    return out


def power(powers, k, times):
    """base^k from the cache powers = {0: base^0, 1: base, ...}, which it
    extends: one product from a cached base^(k-1), else square-and-multiply
    over the cached base^(2^i), about 2 log2(k) products for a lone power."""
    if k not in powers:
        if k - 1 in powers:
            powers[k] = times(powers[k - 1], powers[1])
        else:
            out, e = None, 1
            while e <= k:
                if e not in powers:
                    powers[e] = times(powers[e >> 1], powers[e >> 1])
                if k & e:
                    out = powers[e] if out is None else times(out, powers[e])
                e <<= 1
            powers[k] = out
    return powers[k]


# -- univariate polynomials --------------------------------------------------


def uorder(p):
    """Order in the variable; None for the zero polynomial (= infinity)."""
    return min(p) if p else None


def ulead(p):
    o = uorder(p)
    return None if o is None else p[o]


# -- multivariate polynomials --------------------------------------------------


def pcompose_univariate(g, parts):
    """Substitute univariate polynomials parts[j] for the variables of g."""
    powers = [{0: {0: Fraction(1)}, 1: part} for part in parts]
    out = {}
    for expo, c in g.items():
        term = {0: c}
        for j, k in enumerate(expo):
            if k:
                term = umul(term, power(powers[j], k, umul))
        out = add(out, term)
    return out


def poly2_compose(g, xmap, ymap):
    """g(x, y) with x, y replaced by two-variable polynomials."""
    xpows = {0: {(0, 0): Fraction(1)}, 1: xmap}
    ypows = {0: {(0, 0): Fraction(1)}, 1: ymap}
    out = {}
    for (a, b), c in g.items():
        term = pmul(power(xpows, a, pmul), power(ypows, b, pmul))
        out = add(out, scale(term, c))
    return out


def u_order_in_first(p):
    """Order of a two-variable polynomial along {first variable = 0}."""
    return min(e[0] for e in p) if p else None


# -- exact power series in one variable ----------------------------------------


class TaylorSeries:
    """The Taylor series at tau = 0 of a quotient N/D of polynomials with
    D(0) != 0; each coefficient, a Fraction, is computed on first use and
    kept.  A quotient (`div_exact`) sums the products of a term in ints,
    over the lcm of their denominators, and makes one Fraction per term.

    N and D are never built: the series carries only the ints dn >= deg N
    and dd >= deg D.  A nonzero such series has the order of N, at most
    dn, so `order` reads at most dn + 1 coefficients and is exact.  Strict
    transforms of parametrized branches are these series (`blowup`), so
    no blow-up multiplies out a numerator or a denominator.
    """

    __slots__ = ("_terms", "_next", "_ops", "_reach", "dn", "dd")

    def __init__(self, next_term, dn, dd, ops=(), reach=0):
        # next_term(terms) is the coefficient of tau^k, k = len(terms), given
        # the terms before it and those of each series of ops up to k + reach
        self._terms, self._next, self._ops, self._reach = [], next_term, ops, reach
        self.dn, self.dd = dn, dd

    @staticmethod
    def from_poly(p):
        return TaylorSeries(lambda t: Fraction(p.get(len(t), 0)), max(p, default=-1), 0)

    def term(self, k):
        """The coefficient of tau^k.  Operands are filled before the series
        that reads them, from an explicit stack, so a long chain of
        quotients needs no deep recursion."""
        if k < len(self._terms):
            return self._terms[k]
        stack = [(self, k)]
        while stack:
            s, j = stack[-1]
            terms = s._terms
            if len(terms) > j:
                stack.pop()
            elif not s.dd and len(terms) > s.dn:
                terms.append(Fraction(0))  # D is a constant: N/D is a polynomial
            else:
                need = len(terms) + s._reach
                short = [(op, need) for op in s._ops if len(op._terms) <= need]
                if short:
                    stack += short
                else:
                    terms.append(s._next(terms))
        return self._terms[k]

    def order(self):
        """Vanishing order at tau = 0; None for the zero series."""
        terms = self._terms
        for k in range(self.dn + 1):
            if terms[k] if k < len(terms) else self.term(k):
                return k
        return None

    def sub_const(self, c):
        """self - c, which is (N - c D)/D."""
        if not c:
            return self
        a = self._terms
        return TaylorSeries(
            lambda t: a[len(t)] if t else a[0] - c, max(self.dn, self.dd), self.dd, (self,)
        )

    def div_exact(self, other, cancel):
        """self / other after cancelling tau^cancel from both.

        Requires order(self) >= cancel == order(other), so the result is
        again regular at 0; with s the quotient and a, b the operands,
        s_k = (a_(k+c) - sum_(i<k) s_i b_(k+c-i)) / b_c for c = cancel.
        The sum walks only the j = k + c - i with b_j != 0, a list that grows
        with b, so t^N / t costs O(N), not O(N^2).
        The quotient of the zero series is a new zero series that keeps no
        reference to the operands, so nested quotients of zero stay free.
        """
        if self.order() is None:
            return TaylorSeries.from_poly({})
        a, b, c = self._terms, other._terms, cancel
        lead = other.term(c)
        nonzero = []  # the j in (c, k + c] with b_j != 0, ascending

        def next_term(s):
            # called once for each k = len(s) in turn, with b filled to k + c
            k = len(s)
            if k and b[k + c]:
                nonzero.append(k + c)
            x = a[k + c]
            num, den = x.numerator, x.denominator
            for j in nonzero:
                y, z = s[k + c - j], b[j]
                if y:
                    pn, pd = y.numerator * z.numerator, y.denominator * z.denominator
                    g = gcd(den, pd)
                    num, den = num * (pd // g) - pn * (den // g), den // g * pd
            return Fraction(num * lead.denominator, den * lead.numerator)

        dn, dd = self.dn + other.dd - c, other.dn + self.dd - c
        return TaylorSeries(next_term, dn, dd, (self, other), c)
