"""Dual graphs of modifications of (C^2, 0) and their intersection data.

A dual graph is a tree of exceptional components with negative
self-intersections, plus optional arrows marking where strict transforms
of curve branches attach.  Intersection data is M = -A^{-1}, A the
intersection matrix, whose rows are the exponent vectors driving every
closed formula downstream.  M is made one way only, by the row rule of a
point blow-up (`blown_up`): a blow-up sequence carries it step by step,
and ``build_intersection`` blows a graph down to nothing and replays the
blow-ups.  ``certify_inverse`` certifies an integer M by A M = -I, in
O(s^2) and without an elimination, or in O(s) on the rows that one
blow-up changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .errors import (
    InternalInconsistency, InvalidInput, NotBlowupGraph, NotUnimodular, json_number
)


@dataclass(frozen=True)
class DualGraph:
    """Vertices (self-intersections), tree edges, arrows (0-based attach)."""

    self_ints: tuple
    edges: tuple
    arrows: tuple = ()

    def __post_init__(self):
        s = len(self.self_ints)
        if s == 0:
            raise InvalidInput("graph needs at least one vertex")
        if any(e >= 0 for e in self.self_ints):
            raise InvalidInput("all self-intersections must be negative")
        seen = set()
        parent = list(range(s))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (i, j) in self.edges:
            if not (0 <= i < j < s):
                raise InvalidInput("edge %r out of range or unordered" % ((i, j),))
            if (i, j) in seen:
                raise InvalidInput("duplicate edge %r" % ((i, j),))
            seen.add((i, j))
            ri, rj = find(i), find(j)
            if ri == rj:
                raise InvalidInput("graph has a cycle through %r" % ((i, j),))
            parent[ri] = rj
        if len(self.edges) != s - 1:
            raise InvalidInput("graph is not connected")
        for k in self.arrows:
            if not (0 <= k < s):
                raise InvalidInput("arrow attach %r out of range" % (k,))

    @property
    def nvertices(self):
        return len(self.self_ints)

    def degree(self, i):
        return sum(1 for (a, b) in self.edges if i in (a, b))

    def arrow_count(self, i):
        return sum(1 for k in self.arrows if k == i)

    def to_json(self):
        return {
            "vertices": [{"self_int": e} for e in self.self_ints],
            "edges": [[i + 1, j + 1] for (i, j) in self.edges],
            "arrows": [{"attach": k + 1} for k in self.arrows],
        }

    @staticmethod
    def from_json(doc):
        try:
            self_ints = tuple(json_number(v["self_int"], "self_int") for v in doc["vertices"])
            edges = tuple(
                tuple(sorted(json_number(x, "edge end") - 1 for x in (i, j)))
                for (i, j) in doc.get("edges", [])
            )
            arrows = tuple(json_number(a["attach"], "attach") - 1 for a in doc.get("arrows", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput("malformed graph document: %s" % exc) from exc
        return DualGraph(self_ints, edges, arrows)


class IntersectionData:
    """M = -A^{-1} and its rows m_i, all exact integers."""

    __slots__ = ("M",)

    def __init__(self, M):
        self.M = M

    @property
    def size(self):
        return len(self.M)

    def row(self, i):
        return self.M[i]


def blown_up(M, through) -> tuple:
    """M after one more blow-up, at a point on the components `through`
    (none, one or two), as a tuple of int row tuples.

    A curvette at an old component misses the point: its row stays, and
    its multiplicity on the new component is the sum over `through`.  The
    new row is the sum of the rows in `through`, with
    1 + sum(row[c] for c in through) on the diagonal."""
    row = [sum(col) for col in zip(*(M[c] for c in through))]
    row.append(1 + sum(row[c] for c in through))
    return tuple(map(add, M, zip(row))) + (tuple(row),)  # old + (x,) per row


def _check_positive_symmetric(M, rows=None):
    """Every entry of M positive and M symmetric; with ``rows``, only on
    those rows (and so, by symmetry, on those columns)."""
    rows = range(len(M)) if rows is None else rows
    if any(min(M[i]) <= 0 for i in rows):
        i, j = next((i, j) for i in rows for j, x in enumerate(M[i]) if x <= 0)
        raise NotBlowupGraph("entry m[%d][%d] = %s not positive" % (i, j, M[i][j]))
    if any(M[i] != tuple(row[i] for row in M) for i in rows):
        raise NotBlowupGraph("inverse not symmetric")


def build_intersection(g: DualGraph) -> IntersectionData:
    """M = -A^-1 of a blow-up graph, by blowing it down and up again.

    Castelnuovo's criterion: a -1 vertex of degree at most 2 is contracted
    (each neighbour's self-intersection rises by 1, and two neighbours are
    joined) until nothing is left; a graph that stops before that is no
    modification of (C^2, 0) and raises NotBlowupGraph.  The contractions,
    replayed in reverse as blow-ups (`blown_up`), give M in g's labels,
    which the whole `certify_inverse` then certifies.
    """
    self_ints, nbrs = list(g.self_ints), {i: [] for i in range(g.nvertices)}
    for (i, j) in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    contracted = []  # (vertex, its neighbours when contracted)
    while nbrs:
        v = next((v for v in nbrs if self_ints[v] == -1 and len(nbrs[v]) <= 2), None)
        if v is None:
            raise NotBlowupGraph("graph does not blow down to a point; vertices left: %s"
                                 % ", ".join(str(i + 1) for i in nbrs))
        near = nbrs.pop(v)
        for u in near:  # joined to the other neighbour, if there is one
            nbrs[u] = [w for w in nbrs[u] + near if w not in (u, v)]
            self_ints[u] += 1
        contracted.append((v, near))
    M, pos = (), [None] * g.nvertices  # pos[v]: v's row in the replay
    for k, (v, near) in enumerate(reversed(contracted)):
        M = blown_up(M, [pos[u] for u in near])
        pos[v] = k
    M = tuple(tuple(M[p][q] for q in pos) for p in pos)
    certify_inverse(g, M)
    return IntersectionData(M)


def certify_inverse(g: DualGraph, M, rows=None) -> None:
    """Certify M, a tuple of int row tuples, as -A^-1 for g's A, or raise.

    A M = -I is checked row by row over the sparse rows of A (its
    diagonal and the tree edges), O(s^2) in all; then every entry must be
    positive and M symmetric.  Integer A and M with A M = -I have
    det A det M = (-1)^s, so |det A| = 1, with no elimination.

    With ``rows``, only those rows of A M = -I, and of M for positivity
    and symmetry, are checked: O(s) per row of bounded degree.  That
    certifies M only where every other row is known to hold already, as
    after one blow-up of a certified modification (`blowup.Modification`).
    """
    s = g.nvertices
    if len(M) != s or any(len(row) != s for row in M):
        raise NotUnimodular("M is not %d x %d" % (s, s))
    nbrs = {i: [] for i in (range(s) if rows is None else rows)}  # of checked rows only
    for (i, j) in g.edges:
        if i in nbrs:
            nbrs[i].append(j)
        if j in nbrs:
            nbrs[j].append(i)
    for i, adjacent in nbrs.items():
        row = [g.self_ints[i] * x for x in M[i]]
        for k in adjacent:
            row = list(map(add, row, M[k]))
        row[i] += 1
        if any(row):
            raise NotUnimodular("row %d of A M is not that of -I: M is not -A^-1" % i)
    _check_positive_symmetric(M, rows)


def chi_open(g: DualGraph, i: int) -> int:
    """Euler characteristic of E_i minus edge and arrow attachment points."""
    return 2 - g.degree(i) - g.arrow_count(i)


def chi_bullet(g: DualGraph, i: int) -> int:
    """Euler characteristic of E_i minus the other exceptional components."""
    return 2 - g.degree(i)


def w_of_nhat(d: IntersectionData, nhat) -> tuple:
    """sum_i nhat_i * m_i, the multiplicity vector of the weighted divisor."""
    s = d.size
    if len(nhat) != s:
        raise InvalidInput("nhat must have length %d" % s)
    return tuple(sum(nhat[i] * d.M[i][j] for i in range(s)) for j in range(s))


def hoskin_deligne(d: IntersectionData, g: DualGraph, nhat) -> int:
    """Codimension of the divisorial subspace at the semigroup point w(nhat).

    Computed as -(D.D + D.K)/2 with D = -sum nhat_i E*_i and K the
    canonical divisor, using E*_i . E*_j = -m_ij.  With w = w(nhat) that
    is sum_j w_j (nhat_j + 2 + E_j.E_j) / 2.
    """
    w = w_of_nhat(d, nhat)
    twice = sum(x * (n + 2 + e) for x, n, e in zip(w, nhat, g.self_ints))
    if twice % 2:
        raise InternalInconsistency("half-sum %d/2 is not an integer" % twice)
    if twice < 0:
        raise InternalInconsistency("negative codimension %d" % (twice // 2))
    return twice // 2
