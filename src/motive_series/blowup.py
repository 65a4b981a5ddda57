"""Point blow-ups of (C^2, 0): charts, components, and embedded resolution.

Every blow-up step adds two affine charts, whose maps to the base plane
are computed only on first use (see `Chart`).  Step c adds component c
and the charts 2c + 1 and 2c + 2; the first, charts[2c + 1], is c's host:
c is its axis {u = 0}, and its free points are visible there.  Corners
(pairwise intersections) record a chart in which both components are
coordinate axes through the origin; they are the edges of the dual
graph.  M = -A^-1 is maintained incrementally, and certified after
every step (`graph.certify_inverse`), on the rows the step changes when
the modification was reached from the base.

`DivisorialOracle` is route B for the divisorial filtration: a
`jets.JetRankOracle` whose monomial images are their lifts to the host
charts of the components, so `jets.series` gives its P, Pg and Phat.
Its chart maps are scaled by x -> D_x x, y -> D_y y to int coefficients
(one factor D_x^a D_y^b per row of x^a y^b, which changes no rank), and
packed: u^ue v^ve is the int (ue << s) + ve.  The width s is the bit
length of max(max_jet, 1) V, V the largest v-exponent of the maps: a
candidate has degree below max(v) <= max_jet, so no ve of its lift
reaches 2^s, and int order is (ue, ve) order.

Strict transforms of parametrized branches are carried as exact power
series in the parameter (`polys.TaylorSeries`), each coefficient
computed only when an order or a value at 0 asks for it, so the
resolution loop never loses precision and never multiplies out a
quotient; the step budget exists to convert non-reduced or
non-primitive inputs into a clean error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from operator import add

from .curves import Curve
from .errors import (
    CenterNotFound, CornerAmbiguous, InvalidInput, NonreducedInput, PrecisionExhausted,
    json_number,
)
from .graph import DualGraph, IntersectionData, certify_inverse
from .graph import build_intersection  # noqa: F401  (unused; perfbench/spans.py patches it here)
from .jets import JetRankOracle
from .polys import TaylorSeries, as_ints, clean, common_denominator, u_order_in_first
from .polys import pmul, poly2_compose  # noqa: F401  (unused; perfbench/spans.py patches both here)


def _taylor_shift(p, axis, c):
    """p with variable number `axis` replaced by itself plus c: the power k
    of a term spreads to every i <= k with the factor C(k, i) c^(k - i).
    With c = n/d, the sums are taken in ints over one denominator D d^top;
    C(k, i) is stepped from C(k, i - 1)."""
    den, top = common_denominator(p), max(e[axis] for e in p)
    npow, dpow = ([n**j for j in range(top + 1)] for n in (c.numerator, c.denominator))
    out = {}
    for e, coef in as_ints(p, den).items():
        k = e[axis]
        coef *= dpow[top - k]
        binom = 1
        for i in range(k + 1):
            key = (i, e[1]) if axis == 0 else (e[0], i)
            out[key] = out.get(key, 0) + coef * binom * npow[k - i] * dpow[i]
            binom = binom * (k - i) // (i + 1)
    den *= dpow[top]
    return {key: Fraction(v, den) for key, v in out.items() if v}


class Chart:
    """One affine chart with coordinates (u, v), and its visible axes.

    The base chart's coordinates are (x, y).  Any other chart blows up
    the point (pu, pv) of its parent, whose coordinates it gives as
    (u + pu, uv + pv) when `first`, else (uv + pu, v + pv).  The lift of
    g(x, y) to a chart, keys ascending, is one substitution of its lift to
    the parent (`_substitute`), made on first use and kept per chart; xmap
    and ymap, the chart's map to the base, are the lifts of x and y.
    """

    __slots__ = ("parent", "point", "first", "divisors", "_lifts")

    def __init__(self, parent, point, first, divisors):
        self.parent, self.point, self.first = parent, point, first
        self.divisors = divisors  # component id -> "u" | "v"
        self._lifts = {}  # frozenset of g's items -> lift of g

    xmap = property(lambda self: self.lift({(1, 0): Fraction(1)}))
    ymap = property(lambda self: self.lift({(0, 1): Fraction(1)}))

    def lift(self, g):
        """g(x, y) in this chart's coordinates; g itself on the base chart."""
        key = frozenset(g.items())
        path, chart = [], self
        while chart.parent is not None and key not in chart._lifts:
            path.append(chart)
            chart = chart.parent
        p = g if chart.parent is None else chart._lifts[key]
        for chart in reversed(path):
            p = chart._lifts[key] = chart._substitute(p)
        return p

    def _substitute(self, p):
        """A polynomial on the parent chart, on this one: a Taylor shift by
        (pu, pv), then u^a v^b -> u^(a + b) v^b (first) or u^a v^(a + b)."""
        for axis, c in enumerate(self.point):
            if c:
                p = _taylor_shift(p, axis, c)
        relabel = (lambda a, b: (a + b, b)) if self.first else (lambda a, b: (a, a + b))
        return dict(sorted((relabel(*e), c) for e, c in p.items()))

    def through(self, point):
        """The (component, axis) pairs of the visible axes through the point;
        axis "u" is {u = 0}, axis "v" is {v = 0}."""
        on = {"u": point[0] == 0, "v": point[1] == 0}
        return [(c, axis) for c, axis in sorted(self.divisors.items()) if on[axis]]


class Modification:
    """Immutable snapshot of a blow-up sequence: its charts, the
    self-intersections of its components, its corners {(i, j), i < j: chart
    index} and M = -A^-1 of its dual graph (a tuple of int row tuples).

    Everything else is read off these.  Component c's host chart is
    charts[2c + 1].  The dual graph's edges are the corners' keys.  A point
    of chart i has been blown up exactly when some chart has charts[i] as
    its parent and that point.

    ``certified`` is set only on `base` and on what `blow_up_at` returns:
    a modification reached from the base by blow-ups, each certified.
    Only then does the next step check just the rows it changes."""

    __slots__ = ("charts", "self_ints", "corners", "M", "certified")

    def __init__(self, charts, self_ints, corners, M):
        self.charts = charts
        self.self_ints = self_ints
        self.corners = corners
        self.M = M
        self.certified = False

    @staticmethod
    def base():
        out = Modification((Chart(None, None, None, {}),), (), {}, ())
        out.certified = True  # no component: A and M are empty
        return out

    @property
    def ncomponents(self):
        return len(self.self_ints)

    # -- the single primitive ------------------------------------------------

    def blow_up_at(self, chart_idx, point):
        """Blow up the point of the given chart; returns the new surface."""
        if not (0 <= chart_idx < len(self.charts)):
            raise CenterNotFound("no chart %d" % chart_idx)
        pu, pv = Fraction(point[0]), Fraction(point[1])
        chart = self.charts[chart_idx]
        if any(c.parent is chart and c.point == (pu, pv) for c in self.charts):
            raise CenterNotFound("point already blown up")
        through = chart.through((pu, pv))
        new = self.ncomponents
        chart1 = Chart(chart, (pu, pv), True, {new: "u", **{c: "v" for c, ax in through if ax == "v"}})
        chart2 = Chart(chart, (pu, pv), False, {new: "v", **{c: "u" for c, ax in through if ax == "u"}})
        charts = self.charts + (chart1, chart2)
        idx1, idx2 = len(charts) - 2, len(charts) - 1
        lowered = {c for c, _ in through}
        self_ints = tuple(e - (i in lowered) for i, e in enumerate(self.self_ints)) + (-1,)
        corners = dict(self.corners)
        if len(through) == 2:
            corners.pop(tuple(sorted(lowered)), None)
        for c, axis in through:
            corners[(c, new)] = idx2 if axis == "u" else idx1
        # a curvette at an old component misses the point: its row stays,
        # and its multiplicity on the new component is the sum over through
        row = [sum(col) for col in zip(*(self.M[c] for c, _ in through))]
        row.append(1 + sum(row[c] for c, _ in through))
        M = tuple(map(add, self.M, zip(row))) + (tuple(row),)  # old + (x,) per row
        out = Modification(charts, self_ints, corners, M)
        # a unimodular tree after every step.  The step changes only the
        # rows of A at the centre's components T and at the new one, and
        # keeps every old row of M with one more entry; so on a certified
        # self, the other rows of A M = -I still hold, given the new row:
        # the new column of row i not in T is sum_(c in T) (A M)_ic = 0
        changed = [c for c, _ in through] + [new] if self.certified else None
        certify_inverse(out.graph(), M, changed)
        out.certified = True
        return out

    # -- script-level centers --------------------------------------------------

    def blow_up(self, center):
        """Blow up "origin", {"on": id, "param": q} or {"corner": [i, j]}."""
        if center == "origin":
            if self.ncomponents:
                raise CenterNotFound("origin center is only valid as the first step")
            return self.blow_up_at(0, (Fraction(0), Fraction(0)))
        try:
            on = "on" in center
            if on:
                comp = json_number(center["on"], "component") - 1
                param = json_number(center["param"], "param", rational=True)
            else:
                i, j = center["corner"]
                pair = tuple(sorted(json_number(c, "component") - 1 for c in (i, j)))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput("malformed center %r (%s)" % (center, exc)) from exc
        if on:
            if not (0 <= comp < self.ncomponents):
                raise CenterNotFound("no component %s" % center["on"])
            host = 2 * comp + 1
            for other, axis in self.charts[host].divisors.items():
                if other != comp and axis == "v" and param == 0:
                    raise CornerAmbiguous(
                        "point is the corner of components %d and %d"
                        % (comp + 1, other + 1)
                    )
            return self.blow_up_at(host, (Fraction(0), param))
        if pair not in self.corners:
            raise CenterNotFound("no corner %r" % (center["corner"],))
        return self.blow_up_at(self.corners[pair], (Fraction(0), Fraction(0)))

    # -- queries ---------------------------------------------------------------

    def graph(self, arrows=()) -> DualGraph:
        return DualGraph(self.self_ints, tuple(sorted(self.corners)), tuple(arrows))

    def intersection(self) -> IntersectionData:
        """The certified M of the dual graph, with no elimination."""
        return IntersectionData(self.M)

    def multiplicity(self, comp, g) -> int:
        """Vanishing order of the lift of g along the component."""
        g = clean({tuple(e): Fraction(c) for e, c in g.items()})
        if not g:
            raise InvalidInput("the zero polynomial has no multiplicity")
        if not (0 <= comp < self.ncomponents):
            raise CenterNotFound("no component %d" % (comp + 1))
        # a lift is one injective substitution per chart: nonzero, as g is
        return u_order_in_first(self.charts[2 * comp + 1].lift(g))

    def multiplicity_vector(self, g):
        return tuple(self.multiplicity(i, g) for i in range(self.ncomponents))


def run_script(doc) -> Modification:
    """Execute a blow-up script document {"steps": [{"center": ...}, ...]}."""
    try:
        steps = list(doc["steps"])
    except (TypeError, KeyError) as exc:
        raise InvalidInput("malformed script document: %s" % exc) from exc
    m = Modification.base()
    for entry in steps:
        if not isinstance(entry, dict) or "center" not in entry:
            raise InvalidInput("malformed script step %r" % (entry,))
        m = m.blow_up(entry["center"])
    if m.ncomponents == 0:
        raise InvalidInput("script performed no blow-ups")
    return m


# -- divisorial Hilbert oracle ------------------------------------------------


class DivisorialOracle(JetRankOracle):
    """Jet-rank computer for the divisorial filtration of a modification.

    Conditions for w_i(g) >= w are linear in the jet of g: every
    coefficient of u^j (j < w_i) of the lift to the host chart of E_i
    must vanish.  The orders of block i are (w_i(x), w_i(y)), so a
    monomial x^a y^b is a candidate when its exact lift order
    a w_i(x) + b w_i(y) is below w_i for some i.  The image of x^a y^b on
    block i is its lift to the host chart, truncated in u (exact, as no
    chart map has a negative u exponent).

    D_x and D_y, the lcms of the denominators of every host chart's xmap
    and ymap, make the maps integral: the maps of block i are D_x xmap
    and D_y ymap of its host chart.  A term c u^ue v^ve is stored under
    the key (ue << s) + ve, s = `_shift`.  Chart exponents are
    nonnegative, so as long as every ve is below 2^s, int order is
    (ue, ve) lex order, a product of images adds keys, and the terms of
    u-order below t are the keys below t << s.  A candidate has
    a + b < max(v) <= max_jet, so the ve of its image is at most
    (max_jet - 1) V, V the largest v-exponent of the maps; s is the bit
    length of max(max_jet, 1) V, for the `max_jet` given here.
    """

    _blocks = "components"
    # a class attribute here too: perfbench/spans.py patches and restores it per class
    hilbert = JetRankOracle.hilbert

    def __init__(self, m: Modification, max_jet: int = 64):
        maps = [(host.xmap, host.ymap) for host in m.charts[1::2]]
        top_v = max(ve for pair in maps for p in pair for _, ve in p)
        # before the base, which sizes the key blocks by it
        s = self._shift = (max(max_jet, 1) * top_v).bit_length()
        super().__init__([tuple(map(u_order_in_first, p)) for p in maps], max_jet)
        dx, dy = (common_denominator(*p) for p in zip(*maps))

        def packed(p, d):
            return as_ints({(ue << s) + ve: c for (ue, ve), c in p.items()}, d)

        self._maps = [(packed(xm, dx), packed(ym, dy)) for xm, ym in maps]


# -- embedded resolution of parametrized plane curves ---------------------------


@dataclass
class _BranchState:
    chart: int
    fu: TaylorSeries
    fv: TaylorSeries


def _orders(fu, fv, point):
    """The orders of fu - point[0] and fv - point[1], inf for zero, and
    those two series."""
    a, b = fu.sub_const(point[0]), fv.sub_const(point[1])
    return [inf if o is None else o for o in (a.order(), b.order())], a, b


def _lift_state(state: _BranchState, point, idx1, idx2):
    """Strict-transform coordinates after blowing up the state's point."""
    (alpha, beta), a, b = _orders(state.fu, state.fv, point)
    if alpha == beta == inf:
        raise InvalidInput("branch degenerated to a constant map")
    if alpha <= beta:
        return _BranchState(idx1, a, b.div_exact(a, alpha))
    return _BranchState(idx2, a.div_exact(b, beta), b)


def _classify(m: Modification, state: _BranchState):
    """(point, components through it, multiplicity, contact order with them).

    contact is the maximum vanishing order of a local component equation
    along the branch; 1 means transversal.
    """
    p = (Fraction(0), state.fv.term(0))  # fu(0) = 0 in every chart a branch is lifted to
    through = m.charts[state.chart].through(p)
    (du, dv), _, _ = _orders(state.fu, state.fv, p)
    contact = max((du if axis == "u" else dv for _, axis in through), default=0)
    return p, through, min(du, dv), contact


def auto_resolve(curve: Curve, max_steps: int = 64):
    """Embedded resolution of a parametrized plane curve.

    Repeatedly blows up every point where a branch is singular, meets a
    corner, meets its component non-transversally, or collides with
    another branch; stops when the total transform has normal crossings.
    Returns (modification, dual graph with one arrow per branch, attach
    tuple).
    """
    if curve.ambient_dim != 2:
        raise InvalidInput("resolution needs a plane curve (ambient dimension 2)")
    for i in range(curve.nbranches):
        for j in range(i + 1, curve.nbranches):
            if curve.branches[i] == curve.branches[j]:
                raise NonreducedInput("branches %d and %d coincide" % (i + 1, j + 1))

    m = Modification.base()
    states = [
        _BranchState(0, TaylorSeries.from_poly(b.coords[0]), TaylorSeries.from_poly(b.coords[1]))
        for b in curve.branches
    ]

    infos = [_classify(m, st) for st in states]  # kept until a state is lifted
    steps = 0
    while True:
        # offending centers as (chart, point): off every component or at a
        # corner, singular, tangent, or shared by two branches
        offenders, seen = set(), set()
        for st, (p, through, mult, contact) in zip(states, infos):
            key = (st.chart, p)
            if len(through) != 1 or mult > 1 or contact > 1 or key in seen:
                offenders.add(key)
            seen.add(key)
        if not offenders:
            break
        if steps >= max_steps:
            raise PrecisionExhausted(
                "resolution did not terminate within %d blow-ups "
                "(non-reduced or non-primitive input?)" % max_steps
            )
        center = min(offenders)
        chart_idx, point = center
        m = m.blow_up_at(chart_idx, point)
        idx1, idx2 = len(m.charts) - 2, len(m.charts) - 1
        for i, st in enumerate(states):
            if (st.chart, infos[i][0]) == center:
                states[i] = _lift_state(st, point, idx1, idx2)
                infos[i] = _classify(m, states[i])
        steps += 1

    arrows = tuple(info[1][0][0] for info in infos)  # the one component through each
    return m, m.graph(arrows), arrows
