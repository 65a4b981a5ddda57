"""Closed formulas for filtration series in terms of resolution combinatorics.

The paper writes the curve and divisorial series as finite sums over term
indices: an edge subset I, an arrow subset K, and integer weights
(n, n', n'', a~, b~).  ``enumerate_terms`` lists those terms one by one,
depth-first in a fixed order with componentwise bound pruning; it is the
reference the tests and ``verify`` check against.

``curve_series`` and ``divisorial_series`` do not enumerate terms.  A
summand depends on the weights only through nhat (the total weight on
each vertex), |I|, |K| and b~, and two exact identities collapse the rest:

* q^(f-|n|-|I|-|K|) (1-q)^(|I|+|K|) prod_i q^n_i sym_power_class(chi_i, n_i)
  = q^codim(nhat) q^(sum b~) (L-1)^(|I|+|K|) prod_i sym_power_class(chi_i, n_i),
  where codim(nhat) is term_codimension without its sum b~;
* summing over the ways to split nhat_i into n_i plus r_i parts >= 1
  gives sym_power_class(chi_i + r_i, nhat_i - r_i), and 0 when
  r_i > nhat_i.  r_i counts the edges of I and the arrows of K at i.

``_nhats`` lists w = nhat M with each nhat, and sum_ij m_ij nhat_i nhat_j
= nhat.w, so codim(nhat) = (nhat.w + nhat.lin) / 2, with lin_i = sum_j m_ij
chi_bullet(j) + 1 per graph: O(s) per nhat (``nhat_codimension``, O(s^2),
is the reference).

The sum over I is a coefficient of the class series Phat below, twisted
by q^codim.  sym_power_class(c, n) is [x^n] Z_c(x), with Z_c(x) =
(1 - x)^(1-c) / (1 - L x), and Z_(c+r) = Z_c (1 - x)^(-r).  With chi_i =
chi_bullet(i) = 2 - deg(i), the generating function of sum_I (L-1)^|I|
prod_i sym_power_class(chi_i + r_i, nhat_i - r_i) is therefore
prod_i Z_chi_i(x_i) prod_edges (1 + (L-1) x_i x_j / (1 - x_i)(1 - x_j)),
which is F(x) of Phat.  So the divisorial Pg at w(nhat) is L^-codim(nhat)
times the Phat coefficient c(nhat).  In curve mode chi_open(i) is chi_i
less the arrows at i, and an arrow of K at i brings (L-1) x_i / (1 - x_i):
each arrow at i multiplies F by (L-1) x_i if it is in K and by 1 - x_i
if not.  Per K, ``curve_series`` runs one pass per arrow a over a copy of
the c(nhat), in place and in reverse lex order, c <- (L-1) c(nhat - e_a)
(0 where nhat_a = 0) or c <- c - c(nhat - e_a); then the L^-codim c that
share a floor w(nhat)[attach] are summed and spread over the b~ of K.

The divisorial Phat and P are series F(x) in x_i = t^m_i.  M is
invertible with positive entries, so x^nhat lands at the one w = nhat M,
and the nhat with w in the window form a downward closed set; on it,
with c = 0 off it:

* Phat: F = prod_edges (1 - x_i - x_j + L x_i x_j) / prod_i (1 - x_i)
  (1 - L x_i), so c(nhat) starts at prod_i [P^nhat_i], and each edge
  adds L c(nhat - e_i - e_j) - c(nhat - e_i) - c(nhat - e_j) to it in
  place, in reverse lex order so that the right-hand side is still the
  old c.  Each c is one int, c(2^B) (`_class_width`): every step is a
  ring operation of Z[L] at L = 2^B, a product with L^k a shift by B k
  bits, and the digits are read off once by `polys.unpack`, the reader
  that series products share (`mseries_mul`), shifted by -codim for Pg;
* P: c(nhat) = prod_i [x^nhat_i] (1 - x)^(-chi_i), an integer that is 0
  once nhat_i > -chi_i >= 0.

The curve P is curve_series at L = 1, where (L-1)^(|I|+|K|) leaves only
I = K = empty: the same product with chi_i = chi_open(i), summed at
v = w(nhat)[attach], which is not one-to-one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice, product
from math import comb, prod
from operator import floordiv, gt, mul as mul_ints, sub

from .errors import InternalInconsistency, InvalidInput
from .graph import (
    DualGraph,
    IntersectionData,
    build_intersection,
    chi_bullet,
    chi_open,
    w_of_nhat,
)
from .laurent import ONE, LaurentPoly
from .mseries import MSeries, box, expand_rational, unit_vec, vec_add, vec_leq, zero_vec
from .polys import unpack


@dataclass(frozen=True)
class TermIndex:
    """One summand of the curve/divisorial sums.

    ``edges``/``arrows`` are sorted index tuples into the graph's edge and
    arrow lists; ``nprime``/``ndprime`` run parallel to ``edges`` and
    ``atilde``/``btilde`` parallel to ``arrows``.
    """

    edges: tuple
    arrows: tuple
    n: tuple
    nprime: tuple
    ndprime: tuple
    atilde: tuple
    btilde: tuple

    def nhat(self, g: DualGraph) -> tuple:
        out = list(self.n)
        for pos, sigma in enumerate(self.edges):
            i, j = g.edges[sigma]
            out[i] += self.nprime[pos]
            out[j] += self.ndprime[pos]
        for pos, k in enumerate(self.arrows):
            out[g.arrows[k]] += self.atilde[pos]
        return tuple(out)


def nhat_codimension(nhat, d: IntersectionData, g: DualGraph) -> int:
    """Codimension of the stratum with total vertex weights nhat, before
    the arrow contact orders: (sum m_ij nhat_i nhat_j + sum_i nhat_i
    (sum_j m_ij chi(E_j minus other components) + 1)) / 2.
    """
    s = g.nvertices
    chi_b = [chi_bullet(g, j) for j in range(s)]
    quad = sum(d.M[i][j] * nhat[i] * nhat[j] for i in range(s) for j in range(s))
    lin = sum(
        nhat[i] * (sum(d.M[i][j] * chi_b[j] for j in range(s)) + 1) for i in range(s)
    )
    if (quad + lin) % 2:
        raise InternalInconsistency("codimension half-sum is odd")
    return (quad + lin) // 2


def _codim_lin(d: IntersectionData, g: DualGraph) -> list:
    """lin_i = sum_j m_ij chi_bullet(j) + 1, the linear part of codim."""
    chi_b = [chi_bullet(g, j) for j in range(g.nvertices)]
    return [sum(map(mul_ints, row, chi_b)) + 1 for row in d.M]


def _codim(nhat, w, lin) -> int:
    """nhat_codimension as (nhat.w + nhat.lin) / 2, with w = nhat M."""
    twice = sum(map(mul_ints, nhat, w)) + sum(map(mul_ints, nhat, lin))
    if twice % 2:
        raise InternalInconsistency(
            "codimension half-sum is odd at nhat %r, w %r" % (tuple(nhat), tuple(w))
        )
    return twice // 2


def term_codimension(t: TermIndex, d: IntersectionData, g: DualGraph) -> int:
    """Codimension of the stratum of functions with initial data t:
    nhat_codimension of t's nhat plus the arrow contact orders."""
    return nhat_codimension(t.nhat(g), d, g) + sum(t.btilde)


def term_w(t: TermIndex, d: IntersectionData, g: DualGraph) -> tuple:
    return w_of_nhat(d, t.nhat(g))


def term_v(t: TermIndex, d: IntersectionData, g: DualGraph) -> tuple:
    """Branch-wise valuation vector of the stratum (curve mode)."""
    w = term_w(t, d, g)
    bt = dict(zip(t.arrows, t.btilde))
    return tuple(
        w[g.arrows[k]] + bt.get(k, 0) for k in range(len(g.arrows))
    )


def _subsets(n):
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def _group_terms(g, d, hi, mode, I, K):
    """All terms for a fixed edge subset I and arrow subset K."""
    s = g.nvertices
    hi = tuple(hi)
    attach = g.arrows
    in_k = set(K)

    # value variables in assignment order: arrow contact orders first (they
    # enter the bound directly), then everything that feeds some nhat_i
    variables = []
    for k in K:
        variables.append(("btilde", k, None, 1))
    for k in K:
        variables.append(("atilde", k, attach[k], 1))
    for pos, sigma in enumerate(I):
        i, j = g.edges[sigma]
        variables.append(("nprime", pos, i, 1))
        variables.append(("ndprime", pos, j, 1))
    for i in range(s):
        variables.append(("n", i, i, 0))

    nv = len(variables)
    # suffix_min[t][j]: least possible later contribution to w_j from vars t..
    suffix_min = [zero_vec(s) for _ in range(nv + 1)]
    for t in range(nv - 1, -1, -1):
        _, _, vertex, minval = variables[t]
        contrib = zero_vec(s)
        if vertex is not None and minval:
            contrib = tuple(minval * d.M[vertex][j] for j in range(s))
        suffix_min[t] = vec_add(suffix_min[t + 1], contrib)

    values = [0] * nv

    def feasible(t, w_acc):
        low = vec_add(w_acc, suffix_min[t])
        if mode == "divisorial":
            return all(low[j] <= hi[j] for j in range(s))
        for k in range(len(attach)):
            if k in in_k:
                pos = K.index(k)
                bt = values[pos] if pos < t else 1
            else:
                bt = 0
            if low[attach[k]] + bt > hi[k]:
                return False
        return True

    def assemble():
        btilde = tuple(values[i] for i in range(len(K)))
        base = len(K)
        atilde = tuple(values[base + i] for i in range(len(K)))
        base += len(K)
        nprime = tuple(values[base + 2 * i] for i in range(len(I)))
        ndprime = tuple(values[base + 2 * i + 1] for i in range(len(I)))
        base += 2 * len(I)
        n = tuple(values[base + i] for i in range(s))
        return TermIndex(tuple(I), tuple(K), n, nprime, ndprime, atilde, btilde)

    def dfs(t, w_acc):
        if t == nv:
            yield assemble()
            return
        _, _, vertex, minval = variables[t]
        step = (
            tuple(d.M[vertex][j] for j in range(s)) if vertex is not None else zero_vec(s)
        )
        val = minval
        w = vec_add(w_acc, tuple(minval * x for x in step))
        while True:
            values[t] = val
            if not feasible(t + 1, w):
                break
            yield from dfs(t + 1, w)
            val += 1
            w = vec_add(w, step)

    if feasible(0, zero_vec(s)):
        yield from dfs(0, zero_vec(s))


def _checked_bound(g: DualGraph, hi, mode: str) -> tuple:
    """The window bound as a tuple, with one nonnegative entry per arrow
    (curve mode) or per vertex (divisorial mode)."""
    hi = tuple(hi)
    if any(h < 0 for h in hi):
        raise InvalidInput("window bound must be nonnegative")
    if mode == "curve":
        if len(hi) != len(g.arrows):
            raise InvalidInput(
                "curve-mode bound has %d entries, the graph has %d arrows"
                % (len(hi), len(g.arrows))
            )
    elif len(hi) != g.nvertices:
        raise InvalidInput(
            "divisorial-mode bound has %d entries, the graph has %d vertices"
            % (len(hi), g.nvertices)
        )
    return hi


def enumerate_terms(g: DualGraph, d: IntersectionData, hi, mode: str):
    """Every TermIndex with valuation vector <= hi, each exactly once.

    ``mode`` is "curve" (bound on branch valuations, arrows active) or
    "divisorial" (bound on divisorial multiplicities, arrows ignored).
    """
    if mode not in ("curve", "divisorial"):
        raise InvalidInput("mode must be 'curve' or 'divisorial'")
    hi = _checked_bound(g, hi, mode)
    for I in _subsets(len(g.edges)):
        if mode == "curve":
            for K in _subsets(len(g.arrows)):
                yield from _group_terms(g, d, hi, mode, I, K)
        else:
            yield from _group_terms(g, d, hi, mode, I, ())


def _nhats(d: IntersectionData, caps, limits=None):
    """Every (nhat, w(nhat)) with w[j] <= caps[j] for each capped column j
    and nhat_i <= limits[i] where given, as a list in lex order.  Every
    entry of M is positive, so raising any nhat_i raises every w_j: the
    window is downward closed, and it is built one vertex at a time, a
    prefix with w = w(prefix) taking nhat_i = 0..min_j (caps_j - w_j) // m_ij.
    An uncapped column j is capped by sum_i top_i m_ij, its largest w_j on
    the box nhat_i <= top_i = min_j caps_j // m_ij that holds the window,
    so that cap never binds.
    """
    tops = [min(cap // row[j] for j, cap in caps.items()) for row in d.M]
    capv = [caps.get(j, sum(map(mul_ints, tops, col))) for j, col in enumerate(zip(*d.M))]
    out = [((), zero_vec(d.size))]
    for i, row in enumerate(d.M):
        limit, grown = limits[i] if limits else None, []
        for nhat, w in out:
            top = min(map(floordiv, map(sub, capv, w), row))
            if limit is not None and limit < top:
                top = limit
            grown.append((nhat + (0,), w))
            for x in range(1, top + 1):
                w = vec_add(w, row)
                grown.append((nhat + (x,), w))
        out = grown
    return out


def _add_into(acc, p, k=0, sign=1):
    """acc += sign L^k p, in place, for int kernel dicts p and acc (never
    the same dict); returns acc."""
    get = acc.get
    for e, c in p.items():
        e += k
        c = get(e, 0) + sign * c
        if c:
            acc[e] = c
        else:
            del acc[e]
    return acc


def _series(hi, coeffs, label, symbol):
    """The MSeries on [0, hi] of kernel-dict coefficients, each asserted to
    be a polynomial in ``symbol`` (q: nonpositive L-powers, L: nonnegative).
    The sums keep every exponent in [0, hi], so the series is trusted."""
    out = {}
    for e, c in coeffs.items():
        if not c:
            continue
        if max(c) > 0 if symbol == "q" else min(c) < 0:
            raise InternalInconsistency(
                "%s coefficient at %r is not a polynomial in %s" % (label, e, symbol)
            )
        out[e] = LaurentPoly._trusted(c)
    return MSeries._trusted(hi, out)


def _class_width(tops, nedges: int, narrows: int = 0) -> int:
    """The digit width B of the packed class recursion (`_class_recursion`):
    the bit length of 2^narrows 4^nedges prod_i (top_i + 1), plus 2, where
    top_i is the largest nhat_i of the window.

    That product bounds |c_e| for every L-power e of every coefficient:
    prod_i [P^nhat_i] has nonnegative coefficients summing to
    prod_i (nhat_i + 1); an edge step sums four old coefficients, one
    times L, so it at most quadruples the largest sum of |c_e|; and an
    arrow pass of curve_series sums two, one times L, so it at most
    doubles it.  So |c_e| < 2^(B-2), which leaves a sign bit and one spare
    bit.  Only the final digits must fit, |c_e| < 2^(B-1) (`polys.unpack`): the
    steps are ring operations of Z[L] evaluated at L = 2^B, which hold for
    any B.
    """
    return (prod(t + 1 for t in tops) << 2 * nedges + narrows).bit_length() + 2


def _class_recursion(g: DualGraph, d: IntersectionData, caps, narrows=0):
    """The Phat coefficients c(nhat) on the window of `_nhats(d, caps)`, by
    the edge recursion of the module docstring, each packed as one int
    c(2^B).  Returns the lists nhats, ws and coeffs in lex order, pred
    (pred[i][n]: the index of nhat - e_i, or None) and B =
    `_class_width`, with room for ``narrows`` arrow passes.  Every m_ij is
    positive, so top_i = min_j caps_j // m_ij bounds nhat_i."""
    s = d.size
    tops = [min(cap // row[j] for j, cap in caps.items()) for row in d.M]
    width = _class_width(tops, len(g.edges), narrows)
    # nhat is indexed by its mixed-radix key sum_i nhat_i radix_i, nhat_i <= top_i
    radix = [1] * s
    for i in range(s - 2, -1, -1):
        radix[i] = radix[i + 1] * (tops[i + 1] + 1)
    index, nhats, ws, coeffs = {}, [], [], []
    pred = [[] for _ in range(s)]
    for nhat, w in _nhats(d, caps):
        key = sum(map(mul_ints, nhat, radix))
        index[key] = n = len(ws)
        nhats.append(nhat)
        ws.append(w)
        k = None  # the last i with nhat_i > 0
        for i, x in enumerate(nhat):
            # the window is downward closed and nhat - e_i comes earlier
            if x:
                pred[i].append(index[key - radix[i]])
                k = i
            else:
                pred[i].append(None)
        if k is None:
            coeffs.append(1)
            continue
        # prod_i [P^nhat_i], by [P^m] = [P^(m-1)] + L^m
        rest = index[key - nhat[k] * radix[k]]
        coeffs.append(coeffs[pred[k][n]] + (coeffs[rest] << width * nhat[k]))
    for i, j in g.edges:
        pi, pj = pred[i], pred[j]
        # nhat - e_i, nhat - e_j come later in reverse lex order: still unchanged
        for n in range(len(ws) - 1, -1, -1):
            a, b = pi[n], pj[n]
            if a is not None:
                if b is not None:
                    coeffs[n] += (coeffs[pj[a]] << width) - coeffs[a] - coeffs[b]
                else:
                    coeffs[n] -= coeffs[a]
            elif b is not None:
                coeffs[n] -= coeffs[b]
    return nhats, ws, pred, coeffs, width


def _curve_window(g: DualGraph, hi):
    """The checked curve-mode bound, and the caps on w it sets: at each
    vertex with arrows, the least bound among them."""
    if not g.arrows:
        raise InvalidInput("curve series needs at least one arrow")
    hi = _checked_bound(g, hi, "curve")
    caps = {}
    for k, j in enumerate(g.arrows):
        caps[j] = min(hi[k], caps.get(j, hi[k]))
    return hi, caps


def curve_series(g: DualGraph, hi, data=None) -> MSeries:
    """Generalized Poincare series of the branch filtration, from a resolution.

    The graph must carry one arrow per branch; ``hi`` has one entry per
    arrow.  A term's summand is q^codim(nhat) q^(sum b~) (L-1)^(|I|+|K|)
    prod_i sym_power_class(chi_i, n_i), with chi_i the Euler
    characteristic of E_i minus the edge and arrow points; summed over I
    and the splits of nhat, it is L^-codim(nhat) times the coefficient of
    x^nhat in F(x) prod_(a in K) (L-1) x_a prod_(a not in K) (1 - x_a),
    F that of Phat (module docstring).  The (nhat, K) sum lands at v_k =
    w(nhat)[attach_k] + b~_k with the factor q^(sum b~), for each b~ >= 1
    on K in the window.  Coefficients come out as polynomials in q
    (nonpositive L-powers), which is asserted.
    """
    hi, caps = _curve_window(g, hi)
    d = data if data is not None else build_intersection(g)
    attach = g.arrows
    nhats, ws, pred, base, width = _class_recursion(g, d, caps, len(attach))
    lin = _codim_lin(d, g)
    floors = [tuple(w[j] for j in attach) for w in ws]
    codims = [_codim(nhat, w, lin) for nhat, w in zip(nhats, ws)]
    coeffs = {}
    for K in _subsets(len(attach)):
        c = list(base)  # one K's coefficients at a time
        for k, a in enumerate(attach):
            pa = pred[a]
            # in place, in reverse lex order: c(nhat - e_a) is still the old one
            if k in K:  # (L - 1) x_a
                for n in range(len(c) - 1, -1, -1):
                    p = pa[n]
                    c[n] = 0 if p is None else (c[p] << width) - c[p]
            else:  # 1 - x_a
                for n in range(len(c) - 1, -1, -1):
                    p = pa[n]
                    if p is not None:
                        c[n] -= c[p]
        # the L^-codim c of one floor share their spread over b~ >= 1
        sums = {}
        for x, floor, codim in zip(c, floors, codims):
            if x and all(floor[k] < hi[k] for k in K):
                p = unpack(x, width, -codim)
                if floor in sums:
                    _add_into(sums[floor], p)
                else:
                    sums[floor] = p
        for floor, p in sums.items():
            if not p:
                continue
            for bt in product(*(range(1, hi[k] - floor[k] + 1) for k in K)):
                v = list(floor)
                for k, b in zip(K, bt):
                    v[k] += b
                # q^(sum b~) times the sum, added into the coefficient at v
                _add_into(coeffs.setdefault(tuple(v), {}), p, -sum(bt))
    # cancelled coefficients are empty dicts, which _series drops
    return _series(hi, coeffs, "curve-series", "q")


def divisorial_series(g: DualGraph, hi, data=None) -> MSeries:
    """Generalized Poincare series of the divisorial filtration.

    Arrows on the graph are ignored; the series lives in one t-variable
    per exceptional component, and ``hi`` has one entry per vertex.  As in
    curve_series, the sum over terms (I, n, n', n'') is taken per nhat:
    its coefficient at w(nhat) is q^codim(nhat) sum_I (L-1)^|I|
    prod_i sym_power_class(chi_i + r_i, nhat_i - r_i), with chi_i the
    Euler characteristic of E_i minus the other components and r_i the
    edges of I at i; that is L^-codim(nhat) times the Phat coefficient of
    x^nhat (module docstring).
    """
    hi = _checked_bound(g, hi, "divisorial")
    d = data if data is not None else build_intersection(g)
    nhats, ws, _, coeffs, width = _class_recursion(g, d, dict(enumerate(hi)))
    lin = _codim_lin(d, g)
    # w(nhat) is one-to-one, M being invertible
    out = {
        w: unpack(c, width, -_codim(nhat, w, lin))
        for nhat, w, c in zip(nhats, ws, coeffs)
        if c
    }
    return _series(hi, out, "divisorial-series", "q")


def semigroup_class_series(g: DualGraph, hi, data=None) -> MSeries:
    """Motivic class series of the projectivized extended divisorial semigroup,
    prod_edges (1 - t^m_i - t^m_j + L t^(m_i+m_j)) / prod_i (1 - t^m_i)(1 - L t^m_i),
    computed in nhat space (module docstring), each coefficient packed
    as one int c(2^B) by `_class_recursion` and unpacked once.
    Coefficients are polynomials in L (nonnegative powers), which is
    asserted.
    """
    hi = _checked_bound(g, hi, "divisorial")
    d = data if data is not None else build_intersection(g)
    _, ws, _, coeffs, width = _class_recursion(g, d, dict(enumerate(hi)))
    out = {w: unpack(c, width) for w, c in zip(ws, coeffs)}
    return _series(hi, out, "semigroup-class", "L")


@lru_cache(maxsize=4096)
def _euler_coeff(chi, n):
    """[x^n] (1 - x)^(-chi): sym_power_class(chi, n) at L = 1."""
    return comb(chi + n - 1, n) if chi > 0 else (-1) ** n * comb(-chi, n)


def _euler_products(d: IntersectionData, chi, caps):
    """(w(nhat), prod_i [x^nhat_i] (1 - x)^(-chi_i)) for the nhat of the
    window of `_nhats` whose product is not 0: nhat_i <= -chi_i where
    chi_i <= 0, as (1 - x)^(-chi_i) then has degree -chi_i."""
    limits = [-x if x <= 0 else None for x in chi]
    for nhat, w in _nhats(d, caps, limits):
        yield w, prod(map(_euler_coeff, chi, nhat))


def divisorial_poincare_product(g: DualGraph, hi, data=None) -> MSeries:
    """Classical divisorial Poincare series prod_i (1 - t^m_i)^(-chi_i).

    chi_i is the Euler characteristic of E_i minus the other components;
    negative chi_i contributes polynomial factors, positive chi_i
    geometric ones.  Computed in nhat space (module docstring).
    """
    hi = _checked_bound(g, hi, "divisorial")
    d = data if data is not None else build_intersection(g)
    chi = [chi_bullet(g, i) for i in range(g.nvertices)]
    # w(nhat) is one-to-one and no product in the window is 0
    out = {w: LaurentPoly.const(c) for w, c in _euler_products(d, chi, dict(enumerate(hi)))}
    return MSeries._trusted(hi, out)


def curve_poincare_product(g: DualGraph, hi, data=None) -> MSeries:
    """Classical Poincare series of the branch filtration,
    prod_i (1 - t^v_i)^(-chi_i) with v_i = (m_(i, attach_k))_k and chi_i
    the Euler characteristic of E_i minus the edge and arrow points:
    curve_series(g, hi).at_one(), without the terms that L = 1 sends to 0
    (module docstring).  The products of the nhat with one v are summed.
    """
    hi, caps = _curve_window(g, hi)
    d = data if data is not None else build_intersection(g)
    chi = [chi_open(g, i) for i in range(g.nvertices)]
    sums = {}
    for w, c in _euler_products(d, chi, caps):
        v = tuple(w[j] for j in g.arrows)
        sums[v] = sums.get(v, 0) + c
    return MSeries._trusted(hi, {v: LaurentPoly.const(c) for v, c in sums.items() if c})


def divisorial_poincare_product_edges(g: DualGraph, hi, data=None) -> MSeries:
    """Same series written through edges: prod_edges (1-t^m_i)(1-t^m_j)
    over prod_i (1-t^m_i)^2."""
    hi = _checked_bound(g, hi, "divisorial")
    d = data if data is not None else build_intersection(g)
    s = g.nvertices
    num = MSeries.one(s)
    for (i, j) in g.edges:
        for row in (d.row(i), d.row(j)):
            num = num * MSeries.polynomial(s, {zero_vec(s): ONE, row: -ONE})
    factors = [(ONE, d.row(i)) for i in range(s) for _ in range(2)]
    return expand_rational(num, factors, hi)


# -- series of a Hilbert function, by finite differences on a box -------------


def h_lines(lines, lo, hi):
    """{p: [h(p, t) for t in lo[-1]..hi[-1]]} for p in [lo[:-1], hi[:-1]], by
    the line query `lines`, top line first: a jet-rank oracle ranks only that
    line, and a budget error comes before `box` builds its ranges."""
    if not vec_leq(lo, hi):
        return {}
    p0, t0, t1 = hi[:-1], lo[-1], hi[-1]
    top = {p0: lines(p0, t0, t1)}
    return top | {p: lines(p, t0, t1) for p in islice(box(lo[:-1], p0, down=True), 1, None)}


def ie_box(hfun, nvars, kind, lo, hi):
    """{v: coefficient}, the nonzero ones on [lo, hi], of the series of kind
    "P", "Pg", "Phat" or "H" of a Hilbert function hfun, read a line at a
    time on [lo, hi + 1] ([lo, hi] for H, which is h): by `hilbert_line`
    if hfun is a jet-rank oracle's bound `hilbert`, else point by point.

    With Delta = prod_k (1 - E_k), E_k the shift by e_k, and R(x) the sum
    of L^e over e < x, the inclusion-exclusion sums over the v + 1_S are
    P = -(Delta h), Pg = Delta R(1 - h) and Phat = L^h(v + 1) (Delta R(-h)).
    The difference along the last axis is taken inside each line, one run
    of L-powers per R difference; the pass along each other axis k
    subtracts line p + e_k from line p, in place and in lex order, so that
    the right-hand side is still the old value.
    """
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != nvars or len(hi) != nvars:
        raise InvalidInput(
            "box bounds of lengths %d and %d for %d variables" % (len(lo), len(hi), nvars)
        )
    lines = getattr(getattr(hfun, "__self__", None), "hilbert_line", None) or (
        lambda p, t0, t1: [hfun(p + (t,)) for t in range(t0, t1 + 1)])
    q, t0, top = nvars - 1, lo[-1], hi if kind == "H" else tuple(x + 1 for x in hi)
    h = h_lines(lines, lo, top)
    if kind == "H" or not h:  # H is h; an empty table has no coefficient
        return {p + (t,): LaurentPoly.const(c) for p in h for t, c in enumerate(h[p], t0) if c}
    for k in range(nvars if kind != "P" else 0):  # the runs need h nondecreasing
        e = unit_vec(q, k)  # u and u + e_k for u in [lo, top], u_k <= hi_k, in lex order
        for p in box(lo[:-1], (top[:k] + hi[k:k + 1] + top[k + 1:])[:-1]):
            a, b = (h[p], h[vec_add(p, e)]) if k < q else (h[p][:-1], h[p][1:])
            if any(map(gt, a, b)):
                t, x, y = next(c for c in zip(count(t0), a, b) if c[1] > c[2])
                raise InvalidInput(
                    "Hilbert function decreases along axis %d at %r: %d, then %d"
                    % (k, p + (t,), x, y)
                )
    if kind == "P":  # -(1 - E) h
        d = {p: [{0: y - x} if y != x else {} for x, y in zip(hs, hs[1:])] for p, hs in h.items()}
    else:  # R(x(u)) - R(x(u + e)), for x = 1 - h (Pg) and x = -h (Phat)
        s = kind == "Pg"
        d = {p: [dict.fromkeys(range(s - y, s - x), 1) for x, y in zip(hs, hs[1:])]
             for p, hs in h.items()}
    for k in range(q):
        e = unit_vec(q, k)
        for p in box(lo[:-1], hi[:k + 1] + top[k + 1:q]):
            for x, y in zip(d[p], d[vec_add(p, e)]):
                _add_into(x, y, sign=-1)
    out, one = {}, (1,) * q
    for p in box(lo[:-1], hi[:-1]):
        # Phat's L^h(v + 1) is on the line p + 1, one step further along
        for t, c, up in zip(count(t0), d[p], h[vec_add(p, one)][1:]):
            if c:
                c = {j + up: x for j, x in c.items()} if kind == "Phat" else c
                out[p + (t,)] = LaurentPoly._trusted(c)
    return out


def hilbert_ie_coeff(hfun, nvars, v):
    """The generalized (Pg) coefficient at v of a Hilbert function hfun."""
    return ie_box(hfun, nvars, "Pg", v, v).get(tuple(v), LaurentPoly.zero())


def hilbert_ie_series(hfun, nvars, hi) -> MSeries:
    """Generalized series of a Hilbert function hfun on [0, hi]."""
    lo = zero_vec(nvars)
    return MSeries(nvars, lo, tuple(hi), ie_box(hfun, nvars, "Pg", lo, hi), floored=True)
