"""Jet-rank Hilbert oracles and direct series of their filtrations.

`JetRankOracle` is the shape both route-B oracles share.  The Hilbert
function h(v) is the rank of the linear map sending a polynomial jet g to
truncated coefficient vectors, one block of conditions per entry of v.
Only monomials whose image can be nonzero below the truncation orders
enter the matrix.  Every coordinate order is >= 1, so this candidate set
is complete at jet order max(v): its rank is h(v) exactly, with no search
for a stable rank, and `max_jet` caps max(v).  A curve is a finite
C{x_j}-module for a coordinate x_j that vanishes on no branch, so only
monomials of degree < sum_k ord_k(x_j) in the others need a row (see
`_candidates`).  The base ranks a line with `linalg.rank`, the one exact
kernel, by leading key: the leading term of a monomial's image is the
product of the maps' leading terms, so the candidate walk knows each
row's leading key without building it.  Only the rows of candidates that
share a leading key are built, in one pass over the monomial images on
each block, truncated at that line; a lone candidate joins the echelon
basis unbuilt, and its row is built only if a reduced row lands on its
key.  A subclass gives only the images of the coordinates, as int-keyed
dicts, their least keys, and how a key holds a term's order.  Those maps
are integral: substituting x_j -> D_j x_j, D_j a common denominator of
coordinate j's images on every block, scales the row of x^alpha by
prod_j D_j^alpha_j.  One nonzero factor per row changes no rank and no
prefix of the leading keys, so every h is that of the unscaled rows, and
no row holds a `Fraction`.  One echelon basis gives h along a whole line
up to a horizon, and restricts to any line below it (see `hilbert_line`),
re-keying an unbuilt pivot from its least keys.
`HilbertOracle` composes g with the branches of a curve;
`blowup.DivisorialOracle` lifts g to the components of a modification.
`series` reads P, Pg, Phat, L, Lg and H off a table of h on a box, a list
per line asked top-down, so only the box's top line is ranked: L and Lg
from the pairs (h(v), h(v + 1)), P = -(Delta h), Pg = Delta R(1 - h) and
Phat = L^h(v + 1) (Delta R(-h)) by r difference passes (`formulas.ie_box`;
Delta = prod_k (1 - E_k), E_k the shift by e_k, R(x) = sum_{e < x} L^e).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import count
from math import inf
from operator import add, le

from . import linalg
from .curves import Curve
from .errors import InvalidInput, PrecisionExhausted
from .formulas import _subsets, h_lines, ie_box
from .formulas import hilbert_ie_coeff  # noqa: F401  (perfbench/spans.py patches it here)
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
from .polys import as_ints, common_denominator, umul

SERIES_KINDS = ("P", "Pg", "Phat", "L", "Lg", "H")


def _image(table, maps, alpha, top):
    """The image of x^alpha, truncated at top: that of alpha - e_j, j the
    first nonzero index of alpha, times maps[j], truncated.  The nearest
    prefix in the table is found first, and every image built on the way
    up is kept there."""
    chain, image = [], None
    while image is None:
        j = 0
        while not alpha[j]:
            j += 1
        chain.append((alpha, j))
        alpha = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
        image = table.get(alpha)
    for alpha, j in reversed(chain):
        image = table[alpha] = umul(image, maps[j], top)
    return image


class JetRankOracle:
    """The shape both jet-rank oracles share.

    `leads[k][j]` is the least key of coordinate j's map on block k (a
    branch of a curve, or a component of a modification); None means
    identically zero.  The base ranks a line (see `_rank`) with
    `linalg.rank`.  A subclass gives three hooks: `_blocks`, what its
    blocks are called in error messages; `_maps[k][j]`, the image of
    coordinate j on block k, a dict {int key: int}, keys ascending (a
    truncated product stops early), whose keys add under products, so
    that the image of x^alpha is the `umul` product of maps;
    and `_shift`, which says how a key holds a term's order: the terms of
    order below t are those with keys below t << _shift.  A row keys term
    e of block k by one int, (k << _width) + e, _width the bit length of
    max(max_jet, 1) << _shift: a row is truncated at v_k <= max_jet, so
    block k's keys lie in [k << _width, (k + 1) << _width).  The maps
    are the coordinates' images after one substitution x_j -> D_j x_j for
    every block, which makes them integral: it scales the row of x^alpha
    by prod_j D_j^alpha_j, one nonzero factor, which changes no rank and
    no prefix of the leading keys.  Queries clamp negative components to
    zero, and h is kept as one list per clamped line (`hilbert_line`).
    """

    _shift = 0
    _module = None  # (j, N): keep only a C{x_j}-module generating set (see `_candidates`)

    def __init__(self, leads, max_jet: int = 64):
        self.leads = leads
        self.nvars = len(leads)
        self.max_jet = max_jet
        self._hs = {}  # clamped p -> [h(p, t) for t in 0..top]
        self._width = (max(max_jet, 1) << self._shift).bit_length()
        self._horizon = 0  # the largest last coordinate asked so far
        self._lines = []  # (line, echelon basis), each line <= the one before
        self._build = None  # candidates' rows at _lines[0] (see `_rank`)

    def _candidates(self, v):
        """(cands, keys): the (alpha, acc) of the monomials x^alpha whose
        image can be nonzero, in lex order, and the leading key of each
        one's row, (k << _width) + acc[k], k its first live block.  Block k
        is live when acc[k] < v_k << _shift, exactly when the image there
        is nonzero below v_k, and acc[k] is then that image's least key.

        acc[k] is the running sum_j alpha_j leads[k][j]: the leading term
        of a product of maps is the product of their leading terms (keys
        add, and Z is a domain), and a truncation above it keeps it.  An
        identically-zero coordinate steps by v_k << _shift, so acc[k] is
        past the block's bound once that coordinate enters.  Every order
        is at least 1, so the set is finite (of degree below max(v)) and
        down-closed.  Each qualifying prefix is extended one exponent at a
        time; keys only grow along the way, so the first exponent with no
        live block ends the prefix.

        With `_module` = (j, N) only the x^alpha with sum_{l != j} alpha_l < N
        are kept; they span the same rows.  O is a C{x_j}-submodule of
        prod_k C{t}, free of rank N, so O is free of rank d <= N; the maximal
        ideal of O/x_j O has m^d = 0, and by Nakayama the monomials of degree
        < N in the other coordinates generate O over C{x_j}: each dropped row
        is a finite combination of kept rows x_j^a m.
        """
        r, width = self.nvars, self._width
        cut, cap = self._module or (len(self.leads[0]), inf)
        bounds = [x << self._shift for x in v]
        level, keys = [((), (0,) * r)], []
        for j in range(len(self.leads[0])):
            step = [b if lead[j] is None else lead[j] for b, lead in zip(bounds, self.leads)]
            nxt, keys = [], []
            for alpha, acc in level:
                e, room = 0, inf if j == cut else cap - sum(alpha[:cut]) - sum(alpha[cut + 1:])
                while e < room:
                    k = 0
                    while k < r and acc[k] >= bounds[k]:
                        k += 1
                    if k == r:
                        break
                    nxt.append((alpha + (e,), acc))
                    keys.append((k << width) + acc[k])
                    e += 1
                    acc = tuple(map(add, acc, step))
            level = nxt
        return level, keys

    def _tables(self, v):
        """(k, table, maps, lim, top) for each block k with v_k > 0: its
        images are truncated at top = (k << _width) + lim, lim = v_k << _shift,
        and kept in table, from x^0 = {k << _width: 1}, so every key keeps
        the block's offset."""
        zero, width = (0,) * len(self.leads[0]), self._width
        return [
            (k, {zero: {k << width: 1}}, self._maps[k], x << self._shift, (k << width) + (x << self._shift))
            for k, x in enumerate(v)
            if x
        ]

    @staticmethod
    def _rows(cands, blocks):
        """The dict rows of a lex-sorted list of candidates of a line v:
        their images' terms of order < v_k on every block k where that
        image is nonzero below v_k, built a block at a time in the line's
        tables (blocks, from `_tables(v)`).  In a pass over every candidate
        each image extends its prefix's, built just before; in a pass over
        some of them, a prefix not in the table yet is built on the way
        (`_image`)."""
        rows = [{} for _ in cands]
        for k, table, maps, lim, top in blocks:
            for row, (alpha, acc) in zip(rows, cands):
                if acc[k] < lim:
                    image = table.get(alpha)
                    if image is None:
                        j = 0
                        while not alpha[j]:
                            j += 1
                        prev = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
                        image = table.get(prev)
                        if image is None:
                            image = _image(table, maps, prev, top)
                        image = table[alpha] = umul(image, maps[j], top)
                    row.update(image)
        return rows

    def _rank(self, line):
        """An echelon basis of the candidates' rows at the line, built only
        where two candidates share a leading key, (k << _width) + acc[k], k
        the first live block: a lone candidate joins the basis unbuilt, as
        its (alpha, acc), until a reduced row lands on its key (see
        `linalg.rank`).  The line's image tables are kept: `_build` gives
        the rows of such candidates at this line, for it and the lines
        below it."""
        cands, keys = self._candidates(line)
        lone, shared = dict(zip(keys, cands)), []
        if len(lone) < len(cands):
            count = Counter(keys)
            shared = [cand for cand, key in zip(cands, keys) if count[key] > 1]
            for key, n in count.items():
                if n > 1:
                    del lone[key]
        # the builder holds the tables, not the oracle: no reference cycle
        blocks, rows = self._tables(line), self._rows
        self._build = lambda pivots: rows(sorted(pivots), blocks)
        return linalg.rank(rows(shared, blocks), lone, self._build)

    # -- the Hilbert function ------------------------------------------------

    def hilbert(self, v) -> int:
        """h(v), read off `hilbert_line` (an empty v fails its length check)."""
        *p, t = tuple(v) or (0,) * (self.nvars + 1)
        return self.hilbert_line(p, t, t)[0]

    def hilbert_line(self, p, t0, t1) -> list:
        """[h(p, t) for t in t0..t1], negative entries of p and t read as 0:
        the ranks on the candidates, which are complete at jet order max(p, t1).

        A miss gets an echelon basis at (p, top), top the horizon (the
        largest t1 asked so far), and keeps the list of h(p, t) for every
        t <= top: the number of leading keys below the columns of
        (p, t), those below ((r - 1) << _width) + (t << _shift) (a candidate
        of (p, top) that is none of (p, t) has no term there).  For p' <= p,
        (p', top) drops block k's keys from (k << _width) + (p'_k << _shift)
        on: the basis of the nearest kept line above is restricted
        (`linalg.restrict`), so a sweep from the top of its box ranks once.
        Every kept line lies below the last line ranked afresh, whose image
        tables build (`_build`) the rows of unbuilt pivots that a
        restriction needs."""
        p = vec_clamp0(p)
        if len(p) + 1 != self.nvars:
            raise InvalidInput("query length != number of %s" % self._blocks)
        hs = self._hs.get(p)
        if hs is None or t1 >= len(hs):
            need = max(p + (t1, 0))
            if need > self.max_jet:
                raise PrecisionExhausted("jet order %d needed, cap is %d" % (need, self.max_jet))
            self._horizon = top = max(t1, self._horizon)
            line, lines, shift, width = p + (top,), self._lines, self._shift, self._width
            # the horizon never falls, so a kept line >= line has its top
            while lines and not all(map(le, line, lines[-1][0])):
                lines.pop()
            if lines:
                lims = [(k << width) + (x << shift) for k, x in enumerate(line)]
                basis = linalg.restrict(lines[-1][1], lims, width, self._build)
            else:
                basis = self._rank(line) if any(line) else {}
            lines.append((line, basis))
            keys, last = sorted(basis), (self.nvars - 1) << width
            hs = self._hs[p] = [bisect_left(keys, last + (t << shift)) for t in range(top + 1)]
        # the t < 0 of [t0, t1] read h(p, 0); no slice end below 0
        return [hs[0]] * max(0, min(t1 + 1, 0) - t0) + hs[max(t0, 0):max(t1 + 1, 0)]


class HilbertOracle(JetRankOracle):
    """Memoizing jet-rank computer for one curve.

    Block k is branch k: the image of x^alpha is its composition with the
    branch, a polynomial in the parameter t, keyed by the power of t
    (`_shift` 0), so a map's least key is its coordinate's order.  D_j, the lcm of the denominators of coordinate j over
    all branches, makes every map integral: the map of coordinate j on
    branch k is D_j times that coordinate.
    """

    _blocks = "branches"
    # a class attribute here too: perfbench/spans.py patches and restores it per class
    hilbert = JetRankOracle.hilbert

    def __init__(self, curve: Curve, max_jet: int = 64):
        orders = [[b.coordinate_order(j) for j in range(curve.ambient_dim)] for b in curve.branches]
        super().__init__(orders, max_jet)
        finite = [(sum(col), j) for j, col in enumerate(zip(*orders)) if all(col)]
        self._module = min(finite)[::-1] if finite else None
        dens = [common_denominator(*coord) for coord in zip(*(b.coords for b in curve.branches))]
        self._maps = [[as_ints(x, d) for x, d in zip(b.coords, dens)] for b in curve.branches]


# the coefficient at v of each jump series, from (h(v), h(v + 1)); Lhat, the
# series of quotient-space classes, pairs with Phat in its product identity
_JUMPS = {
    "L": lambda h, up: LaurentPoly.const(up - h),
    "Lg": lambda h, up: qgeom(h, up - h),
    "Lhat": lambda h, up: projective_class(up - h),
}


def _jump_series(oracle: JetRankOracle, coeff, hi) -> MSeries:
    """sum over v in [-1, hi] of coeff(h(v), h(v + 1)) t^v."""
    r = oracle.nvars
    lo, one = (-1,) * r, (1,) * (r - 1)
    h = h_lines(oracle.hilbert_line, lo, vec_add(hi, (1,) * r))
    coeffs = {}
    for p in box(lo[:-1], hi[:-1]):
        for t, x, up in zip(count(-1), h[p], h[vec_add(p, one)][1:]):  # h(v), h(v + 1)
            c = coeff(x, up)
            if c:
                coeffs[p + (t,)] = c
    return MSeries(r, lo, hi, coeffs, floored=False)


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
    if min(hi) < 0:
        raise InvalidInput("window must contain the zero exponent")
    if kind in _JUMPS:
        return _jump_series(oracle, _JUMPS[kind], hi)
    return MSeries._trusted(hi, ie_box(oracle.hilbert, r, kind, zero_vec(r), hi))


def subsystem_series(curve: Curve, keep, kind: str, hi) -> MSeries:
    """Series of the filtration by the selected branches only.

    Functions vanishing on discarded branches still participate: the
    oracle works on the full ambient ring of the subcurve.
    """
    sub = curve.subcurve(keep)
    return series(HilbertOracle(sub), kind, hi)


def semigroup_members(oracle: JetRankOracle, hi):
    """Value vectors in [0, hi] whose fibre has nonzero class: the support of Phat."""
    return set(series(oracle, "Phat", hi).coeffs)


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


def product_identity_mismatch(oracle: JetRankOracle, kind: str, hi, s=None):
    """Check (t_1...t_r - 1) * S = T * prod_k (t_k - 1) on [0, hi].

    kind "P" pairs the classical series with L, "Pg" the generalized
    series with Lg, "Phat" the semigroup class series with the series of
    quotient-space classes.  ``s`` is S, series(oracle, kind, hi), where
    the caller has it already.  Returns None or the first mismatch.
    """
    jumps = {"P": "L", "Pg": "Lg", "Phat": "Lhat"}.get(kind)
    if jumps is None:
        raise InvalidInput("no product identity for kind %r" % kind)
    r = oracle.nvars
    hi = tuple(hi)
    if s is None:
        s = series(oracle, kind, hi)
    lhs = mseries_mul(s, _tprod_minus_one(r))
    rhs = mseries_mul(_jump_series(oracle, _JUMPS[jumps], hi), _prod_tk_minus_one(r))
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
