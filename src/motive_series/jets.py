"""Jet-rank Hilbert oracle and direct series of curve-valuation filtrations.

The Hilbert function h(v) is the rank of the linear map sending a
polynomial jet g to the truncated coefficient vectors of g composed with
every branch.  Only monomials whose composition can be nonzero below the
truncation orders enter the matrix; since every branch coordinate has
order >= 1 this candidate set saturates once the jet order reaches the
largest component of v, which is how rank stability is certified.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .curves import Curve
from .errors import InvalidInput, PrecisionExhausted
from .formulas import _subsets, hilbert_ie_coeff
from .laurent import LaurentPoly, projective_class, qgeom
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


class HilbertOracle:
    """Memoizing jet-rank computer for one curve.

    Queries clamp negative components to zero; the cache may be filled
    concurrently since recomputation is idempotent.
    """

    def __init__(self, curve: Curve, max_jet: int = 64):
        self.curve = curve
        self.max_jet = max_jet
        self._ranks = {}
        self._powers = [dict() for _ in curve.branches]
        # order of coordinate j on branch k; None means identically zero
        self.orders = [
            [b.coordinate_order(j) for j in range(curve.ambient_dim)]
            for b in curve.branches
        ]

    @property
    def nbranches(self):
        return self.curve.nbranches

    # -- candidate monomials ------------------------------------------------

    def _candidates(self, v, jet_cap):
        """Monomials of degree <= jet_cap whose image can be nonzero.

        A monomial x^alpha maps to zero unless its exact order
        sum_j alpha_j ord_jk is below v_k for some branch k.
        """
        n = self.curve.ambient_dim
        r = self.nbranches
        out = []
        alpha = [0] * n

        def qualifies(acc):
            return any(acc[k] < v[k] for k in range(r))

        def dfs(j, acc, deg):
            if j == n:
                if qualifies(acc):
                    out.append(tuple(alpha))
                return
            dfs(j + 1, acc, deg)  # alpha_j = 0
            ords = [self.orders[k][j] for k in range(r)]
            cur = list(acc)
            d = deg
            while d < jet_cap:
                alpha[j] += 1
                d += 1
                for k in range(r):
                    # an identically-zero coordinate kills branch k for good:
                    # saturate its accumulated order at the bound
                    cur[k] = cur[k] + ords[k] if ords[k] is not None else v[k]
                if not qualifies(cur):
                    break  # orders only grow from here
                dfs(j + 1, tuple(cur), d)
            alpha[j] = 0

        dfs(0, tuple(0 for _ in range(r)), 0)
        return sorted(out)

    def _monomial_row(self, alpha, v):
        """Concatenated truncated coefficient vectors of x^alpha on the curve."""
        row = []
        for k, branch in enumerate(self.curve.branches):
            comp = {0: Fraction(1)}
            for j, e in enumerate(alpha):
                if e:
                    comp = umul(comp, self._coord_power(k, j, e))
            row.extend(comp.get(t, Fraction(0)) for t in range(v[k]))
        return row

    def _coord_power(self, k, j, e):
        cache = self._powers[k]
        key = (j, e)
        if key not in cache:
            if e == 1:
                cache[key] = dict(self.curve.branches[k].coords[j])
            else:
                cache[key] = umul(self._coord_power(k, j, e - 1), self.curve.branches[k].coords[j])
        return cache[key]

    # -- the Hilbert function ------------------------------------------------

    def hilbert(self, v) -> int:
        v = vec_clamp0(tuple(v))
        if len(v) != self.nbranches:
            raise InvalidInput("query length != number of branches")
        if v in self._ranks:
            return self._ranks[v]
        if all(x == 0 for x in v):
            self._ranks[v] = 0
            return 0
        n0 = max(1, max(v))
        if n0 > self.max_jet:
            raise PrecisionExhausted(
                "jet order %d needed, cap is %d" % (n0, self.max_jet)
            )
        cands = self._candidates(v, n0)
        r_prev = linalg.rank([self._monomial_row(a, v) for a in cands])
        stable = 0
        jet = n0
        while stable < 2:
            jet *= 2
            nxt = self._candidates(v, jet)
            if nxt == cands:
                r = r_prev
            else:
                r = linalg.rank([self._monomial_row(a, v) for a in nxt])
            stable = stable + 1 if r == r_prev else 0
            cands, r_prev = nxt, r
            if stable < 2 and jet > self.max_jet:
                raise PrecisionExhausted(
                    "rank not stable within jet cap %d" % self.max_jet
                )
        self._ranks[v] = r_prev
        return r_prev

    # -- coefficientwise series data ------------------------------------------

    def poincare_coeff(self, v) -> int:
        """- sum over subsets S of (-1)^|S| h(v + 1_S)."""
        r = self.nbranches
        out = 0
        for S in _subsets(r):
            bumped = tuple(v[i] + (1 if i in S else 0) for i in range(r))
            out -= (-1) ** len(S) * self.hilbert(bumped)
        return out

    def generalized_coeff(self, v) -> LaurentPoly:
        return hilbert_ie_coeff(self.hilbert, self.nbranches, v)

    def semigroup_coeff(self, v) -> LaurentPoly:
        """Class of the projectivized fibre over v, by inclusion-exclusion."""
        r = self.nbranches
        hfull = self.hilbert(tuple(x + 1 for x in v))
        out = LaurentPoly.zero()
        for S in _subsets(r):
            bumped = tuple(v[i] + (1 if i in S else 0) for i in range(r))
            piece = projective_class(hfull - self.hilbert(bumped))
            out = out + (piece if len(S) % 2 == 0 else -piece)
        return out


def series(oracle: HilbertOracle, kind: str, hi) -> MSeries:
    """Windowed series of the requested kind.

    P, Pg, Phat and H live on [0, hi]; L and Lg on [-1, hi] (their
    windows are not support floors: both have terms below every box).
    """
    if kind not in SERIES_KINDS:
        raise InvalidInput("unknown series kind %r" % kind)
    r = oracle.nbranches
    hi = tuple(hi)
    if len(hi) != r:
        raise InvalidInput("bound length != number of branches")
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


def semigroup_members(oracle: HilbertOracle, hi):
    """Value vectors in [0, hi] whose fibre has nonzero class."""
    return {
        v
        for v in box(zero_vec(oracle.nbranches), tuple(hi))
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


def product_identity_mismatch(oracle: HilbertOracle, kind: str, hi):
    """Check (t_1...t_r - 1) * S = T * prod_k (t_k - 1) on [0, hi].

    kind "P" pairs the classical series with L, "Pg" the generalized
    series with Lg, "Phat" the semigroup class series with the series of
    quotient-space classes.  Returns None or the first mismatch.
    """
    r = oracle.nbranches
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
