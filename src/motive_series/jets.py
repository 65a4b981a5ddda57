"""Jet-rank Hilbert oracles and direct series of their filtrations.

`JetRankOracle` is the shape both route-B oracles share.  The Hilbert
function h(v) is the rank of the linear map sending a polynomial jet g
to truncated coefficient vectors, one block of conditions per entry of
v.  Only monomials whose image can be nonzero below the truncation
orders enter the matrix.  Every coordinate order is >= 1, so this
candidate set is complete at jet order max(v): its rank is h(v) exactly,
with no search for a stable rank, and `max_jet` caps max(v).
`HilbertOracle` composes g with the branches of a curve;
`blowup.DivisorialOracle` lifts g to the components of a modification.
`series` reads P, Pg, Phat, L, Lg and H off either oracle.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, lt

from . import linalg
from .curves import Curve
from .errors import InvalidInput, PrecisionExhausted
from .formulas import _subsets, hilbert_ie_coeff, ie_ranks
from .laurent import LaurentPoly, projective_class, qgeom, signed_runs
from .mseries import (
    MSeries,
    box,
    expand_rational,
    first_mismatch,
    mseries_mul,
    unit_vec,
    vec_add,
    vec_clamp0,
    zero_vec,
)
from .polys import umul

SERIES_KINDS = ("P", "Pg", "Phat", "L", "Lg", "H")


class JetRankOracle:
    """The shape both jet-rank oracles share.

    `orders[k][j]` is the order of coordinate j on block k (a branch of a
    curve, or a component of a modification); None means identically
    zero.  A subclass gives `_rows(cands, v)`, the coefficient vectors of
    the candidate monomials from one table of truncated images per block
    (see `_table`), `_one`, the image of x^0, and `_blocks`, what its
    blocks are called in error messages.  The hook `_rank(rows)` is the
    dense `linalg.rank` here.  Queries clamp negative components to
    zero, and ranks are kept per clamped point.
    """

    def __init__(self, orders, max_jet: int = 64):
        self.orders = orders
        self.nvars = len(orders)
        self.max_jet = max_jet
        self._ranks = {}
        self._tables = [None] * len(orders)  # block k: alpha -> truncated image of x^alpha
        self._tops = [0] * len(orders)  # the order each table is truncated at

    def _table(self, k, order):
        """(table, its order) of block k with order >= `order`: kept if it is,
        else restarted from x^0 -> `_one` at max(order, twice its order)."""
        if order > self._tops[k]:
            self._tops[k] = max(order, 2 * self._tops[k])
            self._tables[k] = {(0,) * len(self.orders[k]): self._one}
        return self._tables[k], self._tops[k]

    def _candidates(self, v):
        """Monomials whose image can be nonzero, in lex order.

        A monomial x^alpha maps to zero unless its exact order
        sum_j alpha_j orders[k][j] is below v_k for some block k.  Every
        order is at least 1, so the set is finite (of degree below
        max(v)) and down-closed.  Each qualifying prefix is extended one
        exponent at a time; orders only grow along the way, so the first
        failing exponent ends the prefix.
        """
        level = [((), (0,) * self.nvars)]
        for j in range(len(self.orders[0])):
            # an identically-zero coordinate kills block k for good: step by v_k
            step = [v[k] if ords[j] is None else ords[j] for k, ords in enumerate(self.orders)]
            nxt = []
            for alpha, acc in level:
                e = 0
                while any(map(lt, acc, v)):
                    nxt.append((alpha + (e,), acc))
                    e += 1
                    acc = tuple(map(add, acc, step))
            level = nxt
        return [alpha for alpha, _ in level]

    # -- the Hilbert function ------------------------------------------------

    def hilbert(self, v) -> int:
        """h(v): the rank on the candidates, which are complete at jet order max(v)."""
        v = tuple(v)
        if v in self._ranks:
            return self._ranks[v]
        w = vec_clamp0(v)
        if len(w) != self.nvars:
            raise InvalidInput("query length != number of %s" % self._blocks)
        if w not in self._ranks:
            if max(w) > self.max_jet:
                raise PrecisionExhausted("jet order %d needed, cap is %d" % (max(w), self.max_jet))
            self._ranks[w] = self._rank(self._rows(self._candidates(w), w)) if any(w) else 0
        return self._ranks[w]

    def _rank(self, rows):
        return linalg.rank(rows)

    # -- coefficientwise series data ------------------------------------------

    def poincare_coeff(self, v) -> int:
        """- sum over subsets S of (-1)^|S| h(v + 1_S)."""
        return -sum(sign * h for sign, h in ie_ranks(self.hilbert, self.nvars, v)[1])

    def generalized_coeff(self, v) -> LaurentPoly:
        return hilbert_ie_coeff(self.hilbert, self.nvars, v)

    def semigroup_coeff(self, v) -> LaurentPoly:
        """Class of the projectivized fibre over v, by inclusion-exclusion."""
        hfull, ranks = ie_ranks(self.hilbert, self.nvars, v)
        return signed_runs((sign, 0, hfull - h) for sign, h in ranks)  # projective classes


class HilbertOracle(JetRankOracle):
    """Memoizing jet-rank computer for one curve.

    The truncated compositions of monomials with each branch are kept in
    a table per branch across queries (see `_rows`), and ranked densely.
    """

    _blocks = "branches"
    _one = {0: Fraction(1)}
    # a class attribute here too: perfbench/spans.py patches and restores it per class
    hilbert = JetRankOracle.hilbert

    def __init__(self, curve: Curve, max_jet: int = 64):
        orders = [[b.coordinate_order(j) for j in range(curve.ambient_dim)] for b in curve.branches]
        super().__init__(orders, max_jet)
        self.curve = curve

    def _rows(self, cands, v):
        """The candidates' coefficient vectors on the curve, below v_k on branch k.

        Branch k's table holds x^alpha on the branch truncated at an order
        >= v_k (see `_table`).  cands is sorted and down-closed, so
        alpha - e_j (j the last nonzero index of alpha) is in the table
        before alpha, and one product extends it."""
        tables = []
        for k, branch in enumerate(self.curve.branches):
            if not v[k]:
                continue
            table, top = self._table(k, v[k])
            for alpha in cands:
                if alpha not in table:
                    j = len(alpha) - 1
                    while not alpha[j]:
                        j -= 1
                    prev = table[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]]
                    comp = umul(prev, branch.coords[j])
                    table[alpha] = {t: c for t, c in comp.items() if t < top}
            tables.append((table, range(v[k])))
        zero = Fraction(0)
        return [[table[alpha].get(t, zero) for table, ts in tables for t in ts] for alpha in cands]


def series(oracle: JetRankOracle, kind: str, hi) -> MSeries:
    """Windowed series of the requested kind.

    P, Pg, Phat and H live on [0, hi]; L and Lg on [-1, hi] (their
    windows are not support floors: both have terms below every box).
    """
    if kind not in SERIES_KINDS:
        raise InvalidInput("unknown series kind %r" % kind)
    r = oracle.nvars
    hi = tuple(hi)
    if len(hi) != r:
        raise InvalidInput("bound length != number of %s" % oracle._blocks)
    one = (1,) * r
    if kind in ("L", "Lg"):
        lo = (-1,) * r
        coeffs = {}
        for v in box(lo, hi):
            h_v = oracle.hilbert(v)
            h_up = oracle.hilbert(vec_add(v, one))
            if kind == "L":
                c = LaurentPoly.const(h_up - h_v)
            else:
                c = qgeom(h_v, h_up - h_v)
            if c:
                coeffs[v] = c
        return MSeries(r, lo, hi, coeffs, floored=False)
    lo = zero_vec(r)
    coeffs = {}
    for v in box(lo, hi):
        if kind == "P":
            c = LaurentPoly.const(oracle.poincare_coeff(v))
        elif kind == "Pg":
            c = oracle.generalized_coeff(v)
        elif kind == "Phat":
            c = oracle.semigroup_coeff(v)
        else:
            c = LaurentPoly.const(oracle.hilbert(v))
        if c:
            coeffs[v] = c
    return MSeries(r, lo, hi, coeffs, floored=True)


def subsystem_series(curve: Curve, keep, kind: str, hi) -> MSeries:
    """Series of the filtration by the selected branches only.

    Functions vanishing on discarded branches still participate: the
    oracle works on the full ambient ring of the subcurve.
    """
    sub = curve.subcurve(keep)
    return series(HilbertOracle(sub), kind, hi)


def semigroup_members(oracle: JetRankOracle, hi):
    """Value vectors in [0, hi] whose fibre has nonzero class."""
    return {
        v
        for v in box(zero_vec(oracle.nvars), tuple(hi))
        if oracle.semigroup_coeff(v)
    }


# -- windowed rational identities -------------------------------------------


def _tprod_minus_one(r):
    """t_1 ... t_r - 1 as an exact polynomial."""
    return MSeries.polynomial(
        r, {(1,) * r: LaurentPoly.one(), zero_vec(r): LaurentPoly.const(-1)}
    )


def _prod_tk_minus_one(r):
    """prod_k (t_k - 1) as an exact polynomial."""
    out = MSeries.one(r)
    for k in range(r):
        out = out * MSeries.polynomial(
            r,
            {unit_vec(r, k): LaurentPoly.one(), zero_vec(r): LaurentPoly.const(-1)},
        )
    return out


def product_identity_mismatch(oracle: JetRankOracle, kind: str, hi):
    """Check (t_1...t_r - 1) * S = T * prod_k (t_k - 1) on [0, hi].

    kind "P" pairs the classical series with L, "Pg" the generalized
    series with Lg, "Phat" the semigroup class series with the series of
    quotient-space classes.  Returns None or the first mismatch.
    """
    r = oracle.nvars
    hi = tuple(hi)
    one = (1,) * r
    lhs = mseries_mul(series(oracle, kind, hi), _tprod_minus_one(r))
    if kind == "P":
        rhs_series = series(oracle, "L", hi)
    elif kind == "Pg":
        rhs_series = series(oracle, "Lg", hi)
    elif kind == "Phat":
        lo = (-1,) * r
        coeffs = {}
        for v in box(lo, hi):
            c = projective_class(
                oracle.hilbert(vec_add(v, one)) - oracle.hilbert(v)
            )
            if c:
                coeffs[v] = c
        rhs_series = MSeries(r, lo, hi, coeffs, floored=False)
    else:
        raise InvalidInput("no product identity for kind %r" % kind)
    rhs = mseries_mul(rhs_series, _prod_tk_minus_one(r))
    return first_mismatch(lhs, rhs, zero_vec(r), hi)


def _lift_exponents(series_small, positions, r, hi):
    """Embed a series in the variables `positions` into r variables."""
    lifted = {}
    for e, c in series_small.coeffs.items():
        full = [0] * r
        for pos, k in enumerate(positions):
            full[k] = e[pos]
        lifted[tuple(full)] = c
    return MSeries(r, zero_vec(r), tuple(hi), lifted, floored=True)


def octant_jump_series(curve: Curve, keep, hi) -> MSeries:
    """Nonnegative-octant jump series of a branch subsystem, from Poincare
    series only.

    The alternating bracket sum_{J subseteq K} (-1)^(|K|-|J|) P_J *
    (prod_{j in J} t_j - 1) equals the series of quotient dimensions
    dim J(u)/J(u + 1_K) restricted to u >= 0, times prod_{k in K}
    (t_k - 1); dividing geometrically recovers it exactly on the window.
    """
    keep = tuple(keep)
    nk = len(keep)
    hi = tuple(hi)
    bracket = MSeries(nk, zero_vec(nk), hi, {}, floored=True)
    for pos_subset in _subsets(nk):
        if not pos_subset:
            continue  # the empty subsystem contributes P * (1 - 1) = 0
        branches = tuple(keep[p] for p in pos_subset)
        sub_hi = tuple(hi[p] for p in pos_subset)
        ps = subsystem_series(curve, branches, "P", sub_hi)
        ps_k = _lift_exponents(ps, pos_subset, nk, hi)
        poly = MSeries.polynomial(
            nk,
            {
                tuple(1 if p in pos_subset else 0 for p in range(nk)): LaurentPoly.one(),
                zero_vec(nk): LaurentPoly.const(-1),
            },
        )
        piece = mseries_mul(ps_k, poly).restrict(zero_vec(nk), hi)
        bracket = bracket + piece.scale((-1) ** (nk - len(pos_subset)))
    # divide by prod_k (t_k - 1) = (-1)^nk prod (1 - t_k)
    numer = bracket.scale((-1) ** nk)
    factors = [(LaurentPoly.one(), unit_vec(nk, p)) for p in range(nk)]
    return expand_rational(numer, factors, hi)


def hilbert_reconstruction_rhs(curve: Curve, hi) -> MSeries:
    """Hilbert series rebuilt from the subsystem Poincare series alone.

    Values of the Hilbert function are diagonal partial sums of jump
    dimensions; clamping of negative components routes each diagonal
    through the octants of the exponent lattice.  Per nonempty branch
    subset K the octant jump series (from the P_J, J subseteq K) is
    spread constantly into the complementary directions and summed along
    shifted diagonals t^(1 on K+A) / (1 - t^(1 on K+A)); the top layer
    (K = all branches, A empty) is the prefix t_1...t_r/(1 - t_1...t_r)
    applied to the full alternating bracket over prod_k (t_k - 1).
    """
    r = curve.nbranches
    hi = tuple(hi)
    total = MSeries(r, zero_vec(r), hi, {}, floored=True)
    for K in _subsets(r):
        if not K:
            continue
        jumps = octant_jump_series(curve, K, tuple(hi[k] for k in K))
        spread = _lift_exponents(jumps, K, r, hi)
        complement = [k for k in range(r) if k not in K]
        if complement:
            spread = expand_rational(
                spread,
                [(LaurentPoly.one(), unit_vec(r, k)) for k in complement],
                hi,
            )
        for A_mask in _subsets(len(complement)):
            A = tuple(complement[p] for p in A_mask)
            diag = tuple(1 if k in K or k in A else 0 for k in range(r))
            shifted = spread.shift(diag).restrict(zero_vec(r), hi)
            piece = expand_rational(shifted, [(LaurentPoly.one(), diag)], hi)
            total = total + piece.scale((-1) ** len(A))
    return total


def remark_identity_check(curve: Curve, hi):
    """Compare the reconstruction against the directly computed H series.

    Returns (True, None) on agreement, else (False, (exponent, got,
    expected)).
    """
    oracle = HilbertOracle(curve)
    hi = tuple(hi)
    direct = series(oracle, "H", hi)
    rhs = hilbert_reconstruction_rhs(curve, hi)
    mismatch = first_mismatch(rhs, direct, zero_vec(curve.nbranches), hi)
    if mismatch is None:
        return True, None
    return False, mismatch
