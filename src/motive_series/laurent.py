"""Exact Laurent polynomials in the affine-line class symbol L (q = L^-1).

A single coefficient ring serves every series in the library: integer
Laurent polynomials in L.  Series whose natural variable is q are stored
with nonpositive L-powers, so q-expressions and L-expressions can be
compared directly without a change of ring.
"""

from __future__ import annotations

from math import comb

from .errors import InvalidInput
from .polys import add, mul, scale


class LaurentPoly:
    """Integer Laurent polynomial in L, stored as {power: coefficient}.

    Instances are immutable; no stored coefficient is zero.  The results
    of +, -, * and ** are built by `_trusted`, without the conversion pass
    of the constructor: the kernel keeps int keys and values and drops
    zeros.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {int(k): int(v) for k, v in terms.items() if v != 0}

    @staticmethod
    def _trusted(terms):
        """Wrap a dict that already has int keys and nonzero int values."""
        p = object.__new__(LaurentPoly)
        p.terms = terms
        return p

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def one():
        return LaurentPoly({0: 1})

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def l_power(n):
        """L^n (use negative n for powers of q)."""
        return LaurentPoly({n: 1})

    @staticmethod
    def q_power(n):
        """q^n = L^-n."""
        return LaurentPoly({-n: 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._trusted(add(self.terms, other.terms))

    def __neg__(self):
        return LaurentPoly._trusted(scale(self.terms, -1))

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._trusted(scale(self.terms, other))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._trusted(mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise InvalidInput("negative power of a Laurent polynomial")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def eval_one(self):
        """Sum of all coefficients (the value at L = 1, a ring map to Z)."""
        return sum(self.terms.values())

    def max_power(self):
        return max(self.terms) if self.terms else None

    def only_nonneg_powers(self):
        return all(k >= 0 for k in self.terms)

    def only_nonpos_powers(self):
        return all(k <= 0 for k in self.terms)

    def to_json(self):
        """Sorted [[power, coeff-as-string], ...] pairs."""
        return [[k, str(self.terms[k])] for k in sorted(self.terms)]

    @staticmethod
    def from_json(pairs):
        return LaurentPoly({int(k): int(c) for k, c in pairs})

    # -- printing ----------------------------------------------------------

    def format(self, symbol="L"):
        """Render in powers of L (symbol='L') or of q = L^-1 (symbol='q')."""
        if not self.terms:
            return "0"
        flip = -1 if symbol == "q" else 1
        parts = []
        for k in sorted(self.terms, key=lambda p: flip * p):
            c = self.terms[k]
            e = flip * k
            if e == 0:
                body = str(abs(c))
            else:
                var = symbol if e == 1 else "%s^%d" % (symbol, e)
                body = var if abs(c) == 1 else "%d*%s" % (abs(c), var)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % self.format()


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
L = LaurentPoly.l_power(1)


def qgeom(a: int, b: int) -> LaurentPoly:
    """q^a + q^(a+1) + ... + q^(a+b-1); the zero polynomial when b = 0.

    This is the class of the difference of two projectivized subspaces of
    codimensions a and a+b, as a polynomial in q.
    """
    if a < 0 or b < 0:
        raise InvalidInput("qgeom needs nonnegative arguments")
    return LaurentPoly({-(a + j): 1 for j in range(b)})


def projective_class(d: int) -> LaurentPoly:
    """1 + L + ... + L^(d-1), the class of P^(d-1); zero when d = 0."""
    if d < 0:
        raise InvalidInput("projective_class needs a nonnegative dimension")
    return LaurentPoly({j: 1 for j in range(d)})


def sym_power_class(chi: int, n: int) -> LaurentPoly:
    """Class of the n-th symmetric power of P^1 minus (2 - chi) points.

    Coefficient of t^n in (sum_k L^k t^k) * (1-t)^(1-chi).  For chi <= 1
    this is the finite alternating binomial sum; chi = 2 gives the class
    of P^n.  Values chi > 2 are rejected.
    """
    if chi > 2:
        raise InvalidInput("sym_power_class: chi must be at most 2")
    if n < 0:
        raise InvalidInput("sym_power_class needs n >= 0")
    if chi == 2:
        return projective_class(n + 1)
    m = 1 - chi
    return LaurentPoly({n - j: (-1) ** j * comb(m, j) for j in range(min(n, m) + 1)})
