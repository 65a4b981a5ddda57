"""Sparse-dict arithmetic, and exact rational functions in one variable.

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
* `pmul` packs exponent tuples into ints and calls `mul`.

The coefficients only need +, * and truth; the kernel never adds a
coefficient to an int 0, so LaurentPoly coefficients work as well.
Windowed products of box-truncated series are `pmul` kept on a window.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import lshift

from .errors import InvalidInput

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


def ushift_down(p, k):
    """Divide by tau^k; every exponent must be >= k."""
    if any(e < k for e in p):
        raise InvalidInput("polynomial not divisible by tau^%d" % k)
    return {e - k: c for e, c in p.items()}


def uconst(p):
    return p.get(0, Fraction(0))


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


# -- exact rational functions in one variable ------------------------------


class RatFun:
    """Quotient num/den of univariate polynomials with den(0) != 0.

    All branch-lift arithmetic happens here, so strict transforms of
    polynomial parametrizations stay exact through arbitrarily many
    blow-ups.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = {0: Fraction(1)}
        num = clean(num)
        den = clean(den)
        if uorder(den) != 0:
            raise InvalidInput("rational function denominator vanishes at 0")
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p):
        return RatFun(dict(p))

    def is_zero(self):
        return not self.num

    def order(self):
        """Vanishing order at tau = 0; None for the zero function."""
        return uorder(self.num)

    def value_at_zero(self):
        return uconst(self.num) / uconst(self.den)

    def sub_const(self, c):
        return RatFun(add(self.num, scale(self.den, -c)), dict(self.den))

    def div_exact(self, other, cancel):
        """self / other after cancelling tau^cancel from both.

        Requires order(self) >= cancel and order(other) == cancel, so the
        result is again regular at 0.
        """
        if other.is_zero():
            raise InvalidInput("division by the zero function")
        num = ushift_down(umul(self.num, other.den), cancel)
        den = ushift_down(umul(other.num, self.den), cancel)
        return RatFun(num, den)

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return umul(self.num, other.den) == umul(other.num, self.den)

    __hash__ = None

    def __repr__(self):
        return "RatFun(%r / %r)" % (self.num, self.den)
