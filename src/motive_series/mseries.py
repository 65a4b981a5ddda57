"""Box-truncated multivariate series with LaurentPoly coefficients.

An MSeries models partial knowledge of a formal series in t_1..t_r:

* ``exact=True``: the stored terms ARE the series (a Laurent polynomial
  in the t-variables); it is known everywhere.
* ``exact=False``: coefficients are exactly known on the box [lo, hi]
  and unknown above it.  When ``floored=True`` the series additionally
  promises to have no support at any exponent with a component below
  ``lo``, so such coefficients are known to vanish.

Multiplication keeps a coefficient only when every pair of exponents
that could contribute to it is exactly known in both operands, and
shrinks the result window accordingly.  All windowed identities in this
library are therefore exact, never approximate.  A product packs each
Laurent coefficient as one int at L = 2^B, convolves with `polys.pmul`
and reads each kept coefficient back once (`polys.unpack`), as route A
does (`formulas`); `expand_rational` divides each factor 1 - c t^m out
of the numerator in place.
"""

from __future__ import annotations

from itertools import product, repeat
from math import prod
from operator import add as add_int, le, sub

from .errors import InvalidInput, NonconvergentFactor, OutsideWindow
from .laurent import LaurentPoly
from .polys import add, pmul, unpack

# -- exponent-vector helpers (plain int tuples) ---------------------------


def vec_add(a, b):
    return tuple(map(add_int, a, b))


def vec_min(a, b):
    return tuple(map(min, a, b))


def vec_max(a, b):
    return tuple(map(max, a, b))


def vec_leq(a, b):
    return all(map(le, a, b))


def vec_clamp0(a):
    return tuple(map(max, a, repeat(0)))


def zero_vec(n):
    return (0,) * n


def unit_vec(n, k):
    return tuple(1 if i == k else 0 for i in range(n))


def box(lo, hi, down=False):
    """Iterate the integer box [lo, hi] in lexicographic order, from hi
    down to lo when down; a nonempty box builds its axis ranges at once."""
    if not vec_leq(lo, hi):
        return iter(())
    return product(*(range(h, l - 1, -1) if down else range(l, h + 1) for l, h in zip(lo, hi)))


class MSeries:
    __slots__ = ("nvars", "lo", "hi", "coeffs", "exact", "floored")

    def __init__(self, nvars, lo, hi, coeffs, exact=False, floored=True):
        self.nvars = nvars
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        if len(self.lo) != nvars or len(self.hi) != nvars:
            raise InvalidInput("window bounds must have length nvars")
        if not vec_leq(self.lo, zero_vec(nvars)) or not vec_leq(zero_vec(nvars), self.hi):
            raise InvalidInput("window must contain the zero exponent")
        self.coeffs = {}
        for e, c in coeffs.items():
            e = tuple(e)
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.const(c)
            if not c:
                continue
            if not (vec_leq(self.lo, e) and vec_leq(e, self.hi)):
                raise InvalidInput("stored exponent %r outside window" % (e,))
            self.coeffs[e] = c
        self.exact = exact
        self.floored = True if exact else floored

    @staticmethod
    def _trusted(hi, coeffs):
        """The floored series on [0, hi] of coeffs, unchecked: hi is a tuple
        >= 0, and coeffs maps tuples in [0, hi] to nonzero LaurentPolys."""
        s = object.__new__(MSeries)
        s.nvars, s.lo, s.hi, s.coeffs = len(hi), zero_vec(len(hi)), hi, coeffs
        s.exact, s.floored = False, True
        return s

    @staticmethod
    def polynomial(nvars, terms):
        """Exact series from {exponent: coefficient}; window hulls the support."""
        lo = zero_vec(nvars)
        hi = zero_vec(nvars)
        for e in terms:
            lo = vec_min(lo, tuple(e))
            hi = vec_max(hi, tuple(e))
        return MSeries(nvars, lo, hi, terms, exact=True)

    @staticmethod
    def one(nvars):
        return MSeries.polynomial(nvars, {zero_vec(nvars): LaurentPoly.one()})

    @staticmethod
    def zero(nvars):
        return MSeries.polynomial(nvars, {})

    # -- knowledge queries --------------------------------------------------

    def knows(self, e):
        """Is the coefficient at e exactly determined?"""
        if self.exact:
            return True
        if vec_leq(self.lo, e) and vec_leq(e, self.hi):
            return True
        return self.floored and not vec_leq(self.lo, e)

    def coeff(self, e):
        e = tuple(e)
        if not self.knows(e):
            raise OutsideWindow("coefficient at %r is not determined" % (e,))
        return self.coeffs.get(e, LaurentPoly.zero())

    def box_terms(self, lo, hi):
        """The stored terms in [lo, hi] if this series knows the whole box,
        else None.  No series stores a term outside its window."""
        if self.lo == lo and self.hi == hi:
            return self.coeffs
        if self.exact or vec_leq(self.lo, lo) and vec_leq(hi, self.hi):
            return {e: c for e, c in self.coeffs.items() if vec_leq(lo, e) and vec_leq(e, hi)}
        return None

    def reader(self, lo, hi):
        """Coefficient lookup for the points of [lo, hi]: a read of the
        stored terms if this series knows the whole box, else `coeff`."""
        terms, zero = self.box_terms(lo, hi), LaurentPoly.zero()
        return self.coeff if terms is None else lambda e: terms.get(e, zero)

    def __eq__(self, other):
        if not isinstance(other, MSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.lo == other.lo
            and self.hi == other.hi
            and self.coeffs == other.coeffs
        )

    # -- linear structure ---------------------------------------------------

    def scale(self, c):
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly.const(c)
        return MSeries(
            self.nvars,
            self.lo,
            self.hi,
            {e: v * c for e, v in self.coeffs.items()},
            exact=self.exact,
            floored=self.floored,
        )

    def __add__(self, other):
        if not isinstance(other, MSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            raise InvalidInput("cannot add series in different variable counts")
        if self.exact and other.exact:
            return MSeries.polynomial(self.nvars, add(self.coeffs, other.coeffs))
        # known region of the sum: intersection of the known boxes, with the
        # below-floor escape only when every operand supplies it there
        lo = vec_max(self.lo, other.lo) if not self.exact and not other.exact else (
            other.lo if self.exact else self.lo
        )
        hi = vec_min(self.hi, other.hi) if not self.exact and not other.exact else (
            other.hi if self.exact else self.hi
        )
        floored = self._floor_covers(lo) and other._floor_covers(lo)
        terms = {
            e: c
            for e, c in add(self.coeffs, other.coeffs).items()
            if vec_leq(lo, e) and vec_leq(e, hi)
        }
        return MSeries(self.nvars, lo, hi, terms, floored=floored)

    def _floor_covers(self, lo):
        """True if this series is known to vanish at every e not >= lo."""
        if self.exact:
            return all(vec_leq(lo, e) for e in self.coeffs)
        return self.floored and vec_leq(lo, self.lo)

    def shift(self, delta):
        """Multiply by t^delta (delta >= 0): exponents move up by delta."""
        delta = tuple(delta)
        if any(d < 0 for d in delta):
            raise InvalidInput("shift requires a nonnegative exponent vector")
        terms = {vec_add(e, delta): c for e, c in self.coeffs.items()}
        if self.exact:
            return MSeries.polynomial(self.nvars, terms)
        raised = vec_add(self.lo, delta)
        if not self.floored and not vec_leq(raised, zero_vec(self.nvars)):
            # without a floor there is nothing known between 0 and lo+delta
            raise OutsideWindow("shift pushes an unfloored window above zero")
        lo = vec_min(raised, zero_vec(self.nvars))
        hi = vec_add(self.hi, delta)
        kept = {e: c for e, c in terms.items() if vec_leq(lo, e)}
        return MSeries(self.nvars, lo, hi, kept, floored=self.floored)

    def restrict(self, lo, hi):
        """Re-window to [lo, hi]; every point of the new box must be known."""
        lo, hi = tuple(lo), tuple(hi)
        if not self.exact:
            if not vec_leq(hi, self.hi):
                raise OutsideWindow("cannot widen window above %r" % (self.hi,))
            if not self.floored and not vec_leq(self.lo, lo):
                raise OutsideWindow("cannot widen window below %r" % (self.lo,))
        terms = {
            e: c for e, c in self.coeffs.items() if vec_leq(lo, e) and vec_leq(e, hi)
        }
        floored = self._floor_covers(lo)
        return MSeries(self.nvars, lo, hi, terms, floored=floored)

    def at_one(self):
        """Specialise every coefficient at L = 1 (integer coefficients)."""
        return MSeries(
            self.nvars,
            self.lo,
            self.hi,
            {e: c.eval_one() for e, c in self.coeffs.items()},
            exact=self.exact,
            floored=self.floored,
        )

    # -- multiplication -------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, MSeries):
            return NotImplemented
        return mseries_mul(self, other)

    __rmul__ = __mul__

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {
            "vars": self.nvars,
            "lo": list(self.lo),
            "hi": list(self.hi),
            "terms": [
                {"exp": list(e), "coeff": self.coeffs[e].to_json()}
                for e in sorted(self.coeffs)
            ],
        }

    @staticmethod
    def from_json(doc):
        coeffs = {
            tuple(t["exp"]): LaurentPoly.from_json(t["coeff"]) for t in doc["terms"]
        }
        return MSeries(doc["vars"], tuple(doc["lo"]), tuple(doc["hi"]), coeffs)

    def __repr__(self):
        kind = "exact" if self.exact else ("floored" if self.floored else "windowed")
        return "MSeries(%d vars, [%s..%s], %d terms, %s)" % (
            self.nvars,
            self.lo,
            self.hi,
            len(self.coeffs),
            kind,
        )


def _product_width(f, g):
    """B of `mseries_mul`: the bit length of l1(f) l1(g), plus a sign bit,
    with l1 the sum of |digit| over all coefficients of one series.  A
    digit of a product coefficient sums products of a digit of f and one of
    g, so l1(f) l1(g) bounds it.  As in `formulas._class_width`, only the
    final digits must fit: the steps in between are ring operations of
    Z[L] at L = 2^B, which hold for any B."""
    l1 = (sum(sum(map(abs, c.terms.values())) for c in s.coeffs.values()) for s in (f, g))
    return prod(l1).bit_length() + 1


def mseries_mul(f: MSeries, g: MSeries) -> MSeries:
    """Product, exact on the largest window the operands allow.

    exact * exact is a plain convolution.  exact * windowed keeps the
    exponents whose every contribution from the exact factor's support
    lands in the windowed factor's known region.  windowed * windowed
    requires both operands floored; the floors bound the contributing
    pairs to a finite box inside both windows.  Each Laurent coefficient,
    divided by its operand's least L-power, is packed as one int at
    L = 2^B (`_product_width`); `pmul` convolves the packed dicts, and each
    product coefficient kept on the window is read back once (`unpack`).
    """
    if f.nvars != g.nvars:
        raise InvalidInput("cannot multiply series in different variable counts")
    n = f.nvars
    lo = None  # the window [lo, hi]; exact * exact has none
    if f.exact != g.exact:
        ex, w = (f, g) if f.exact else (g, f)
        if not ex.coeffs:
            return MSeries.polynomial(n, {})
        smin, smax = (tuple(map(m, zip(*ex.coeffs))) for m in (min, max))
        hi = vec_add(w.hi, smin)
        if w.floored:
            # every lookup at or below w.hi is determined (stored or floor-zero)
            lo = vec_min(vec_add(w.lo, smin), zero_vec(n))
            floored = True
        else:
            # no floor escape: every lookup must land inside the window box
            lo = vec_add(w.lo, smax)
            if not vec_leq(lo, zero_vec(n)):
                raise OutsideWindow(
                    "product of an unfloored window does not determine exponent 0"
                )
            floored = False
    elif not f.exact:
        if not (f.floored and g.floored):
            raise InvalidInput(
                "windowed*windowed product needs support floors on both operands"
            )
        hi = vec_min(vec_add(f.hi, g.lo), vec_add(g.hi, f.lo))
        lo = vec_min(vec_add(f.lo, g.lo), zero_vec(n))
        floored = True
    if lo is not None and not vec_leq(lo, hi):
        raise OutsideWindow("empty safe window in product")
    terms = {}
    if f.coeffs and g.coeffs:
        width = _product_width(f, g)
        lows = [min(min(c.terms) for c in s.coeffs.values()) for s in (f, g)]
        packed = (
            {e: sum(x << width * (k - low) for k, x in c.terms.items()) for e, c in s.coeffs.items()}
            for s, low in zip((f, g), lows)
        )
        for e, v in pmul(*packed).items():
            if lo is None or vec_leq(lo, e) and vec_leq(e, hi):
                terms[e] = LaurentPoly._trusted(unpack(v, width, sum(lows)))
    if lo is None:
        return MSeries.polynomial(n, terms)
    # the constructor checks the window; the kept terms lie in it
    out = MSeries(n, lo, hi, {}, floored=floored)
    out.coeffs = terms
    return out


def expand_rational(numerator: MSeries, denominator_factors, hi) -> MSeries:
    """numerator / prod (1 - c * t^m), exact on [0, hi].

    Each factor is a pair (c, m) with c a LaurentPoly (or int) and m a
    nonnegative, nonzero exponent vector.  The factors are divided out in
    place: dividing g by 1 - c t^m sets g[e] += c * g[e - m] for e in
    box(m, hi), in lex order, so g[e - m] is already divided when read.
    With any factor, the numerator must be exact or floored, and known
    to vanish below 0.
    """
    hi = tuple(hi)
    n = numerator.nvars
    if len(hi) != n or any(h < 0 for h in hi):
        raise InvalidInput("expansion window must be nonnegative, one entry per variable")
    factors = []
    for c, m in denominator_factors:
        m = tuple(m)
        if len(m) != n:
            raise InvalidInput("factor exponent length mismatch")
        if any(x < 0 for x in m):
            raise InvalidInput("factor exponents must be nonnegative")
        if all(x == 0 for x in m):
            raise NonconvergentFactor("factor with zero exponent vector")
        factors.append((c if isinstance(c, LaurentPoly) else LaurentPoly.const(c), m))
    zero = zero_vec(n)
    if factors:
        if not (numerator.exact or numerator.floored):
            raise InvalidInput("expanding a rational series needs a floored numerator")
        if not numerator._floor_covers(zero):
            raise OutsideWindow("numerator may have support below exponent 0")
    out = numerator.restrict(zero, hi)
    g = out.coeffs
    for c, m in factors:
        for e in box(m, hi):
            prev = g.get(tuple(map(sub, e, m)))
            if prev is not None:
                s = g.get(e)
                g[e] = c * prev if s is None else s + c * prev
    return MSeries(n, zero, hi, g, floored=out.floored)


def first_mismatch(f: MSeries, g: MSeries, lo, hi):
    """First exponent in [lo, hi] (lex order) where f and g differ, or None.

    Both series must know every coefficient in the box.  If both know the
    whole box, their stored terms in it are compared with one ==, and the
    box is walked only to name a mismatch.  Else one that knows the box is
    read from its stored terms, any other through `coeff`, which raises
    OutsideWindow at the first point it does not know.  A mismatch is
    (e, f.coeff(e), g.coeff(e)).
    """
    lo, hi = tuple(lo), tuple(hi)
    terms = f.box_terms(lo, hi)
    if terms is not None and terms == g.box_terms(lo, hi):
        return None
    a, b = f.reader(lo, hi), g.reader(lo, hi)
    for e in box(lo, hi):
        if a(e) != b(e):
            return e, f.coeff(e), g.coeff(e)
    return None
