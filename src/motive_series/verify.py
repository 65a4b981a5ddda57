"""Fixture cross-validation suite.

Every closed formula in the library is checked coefficientwise against an
independent route (jet-rank oracles, direct enumeration, or hand-counted
values) on a fixed set of desk-scale fixtures.  The CLI `verify` command
runs all checks and reports one line per check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import floordiv, mul

from . import blowup, curves, formulas, graph, jets, laurent
from . import mseries as mser
from .errors import MotiveSeriesError
from .polys import pmul

ONE = Fraction(1)

# fixtures and oracles are reused across checks; everything is immutable
# or idempotent, so sharing them only saves recomputation
_CACHE = {}


def _cached(key, build):
    if key not in _CACHE:
        _CACHE[key] = build()
    return _CACHE[key]


def curve_oracle(name):
    return _cached(("curve-oracle", name), lambda: jets.HilbertOracle(curve_fixtures()[name][0]))


def divisorial_oracle(name):
    m, _ = modification_fixtures()[name]
    return _cached(("div-oracle", name), lambda: blowup.DivisorialOracle(m))


def oracle_series(name, kind):
    """jets.series of kind on the named curve fixture's oracle and window."""
    hi = curve_fixtures()[name][1]
    return _cached(("series", name, kind, hi), lambda: jets.series(curve_oracle(name), kind, hi))


def resolved(name):
    return _cached(("resolved", name), lambda: blowup.auto_resolve(curve_fixtures()[name][0]))


# -- fixtures ---------------------------------------------------------------


def _branch(*orders):
    """The branch with coordinates tau^k, one per order k (0: the zero coordinate)."""
    return curves.Branch([{k: ONE} if k else {} for k in orders])


def curve_fixtures():
    """Named curves: (curve, comparison window)."""
    return _cached(
        ("curves",),
        lambda: {
            "smooth-branch": (curves.Curve(2, [_branch(1, 0)]), (6,)),
            "transverse-lines": (curves.Curve(2, [_branch(1, 0), _branch(0, 1)]), (4, 4)),
            "three-lines": (
                curves.Curve(2, [_branch(1, 0), _branch(0, 1), _branch(1, 1)]),
                (3, 3, 3),
            ),
            "cusp": (curves.Curve(2, [_branch(2, 3)]), (8,)),
            "tangent-pair": (curves.Curve(2, [_branch(1, 0), _branch(1, 2)]), (4, 4)),
            "space-curve-C": (
                curves.Curve(5, [_branch(2, 3, 2, 4, 5), _branch(2, 3, 4, 2, 6)]),
                (6, 6),
            ),
            "space-curve-Cprime": (
                curves.Curve(6, [_branch(3, 4, 5, 4, 5, 6), _branch(3, 4, 5, 5, 6, 7)]),
                (6, 6),
            ),
        },
    )


SINGLE_SCRIPT = {"steps": [{"center": "origin"}]}
CHAIN_SCRIPT = {"steps": [{"center": "origin"}, {"center": {"on": 1, "param": "0"}}]}
CUSP_SCRIPT = {
    "steps": [
        {"center": "origin"},
        {"center": {"on": 1, "param": "0"}},
        {"center": {"corner": [1, 2]}},
    ]
}
CUSP_EXTRA_SCRIPT = {
    "steps": CUSP_SCRIPT["steps"] + [{"center": {"on": 3, "param": "2"}}]
}


def modification_fixtures():
    """Named modifications: (modification, divisorial window)."""
    return _cached(
        ("modifications",),
        lambda: {
            "single": (blowup.run_script(SINGLE_SCRIPT), (6,)),
            "chain": (blowup.run_script(CHAIN_SCRIPT), (6, 6)),
            "cusp-mod": (blowup.run_script(CUSP_SCRIPT), (6, 6, 6)),
            "cusp-mod-extra": (blowup.run_script(CUSP_EXTRA_SCRIPT), (4, 4, 4, 4)),
        },
    )


CURVETTES = {
    # modification fixture -> list of (component, polynomial) with w = M row
    "single": [(0, {(1, 0): ONE})],
    "chain": [(0, {(1, 0): ONE}), (1, {(0, 1): ONE, (2, 0): -ONE})],
    "cusp-mod": [
        (0, {(1, 0): ONE}),
        (1, {(0, 1): ONE}),
        (2, {(0, 2): ONE, (3, 0): -ONE}),
    ],
}


# -- individual checks -------------------------------------------------------


def _series_agreement(check, kinds, differ):
    """Per curve fixture, the first v in [0, hi] (lex order) where differ
    holds for the coefficients of the two series kinds."""
    out = []
    for name, (curve, hi) in curve_fixtures().items():
        a, b = (oracle_series(name, kind) for kind in kinds)
        zero = mser.zero_vec(curve.nbranches)
        ca, cb = a.reader(zero, hi), b.reader(zero, hi)
        bad = next((v for v in mser.box(zero, hi) if differ(ca(v), cb(v))), None)
        out.append(("%s/%s" % (check, name), bad is None, "first mismatch %r" % (bad,)))
    return out


def check_specialization():
    """Classical coefficients are the generalized ones at L = 1."""
    return _series_agreement(
        "specialization", ("Pg", "P"), lambda g, p: g.eval_one() != p.eval_one()
    )


def check_fibre_vanishing():
    """Generalized and class coefficients vanish on the same exponents."""
    return _series_agreement("fibre-vanishing", ("Pg", "Phat"), lambda g, c: bool(g) != bool(c))


def check_product_identities():
    """The three windowed rational identities on every curve fixture."""
    out = []
    for name, (curve, hi) in curve_fixtures().items():
        oracle = curve_oracle(name)
        for kind in ("P", "Pg", "Phat"):
            mm = jets.product_identity_mismatch(oracle, kind, hi, oracle_series(name, kind))
            out.append(
                (
                    "product-identity-%s/%s" % (kind, name),
                    mm is None,
                    "first mismatch %r" % (mm,),
                )
            )
    return out


def check_curve_formula_vs_oracle():
    """Resolution-formula curve series equals the jet-oracle series."""
    out = []
    for name, (curve, hi) in curve_fixtures().items():
        if curve.ambient_dim != 2:
            continue
        m, g, _ = resolved(name)
        formula = formulas.curve_series(g, hi, m.intersection())
        oracle = oracle_series(name, "Pg")
        mm = mser.first_mismatch(
            formula, oracle, mser.zero_vec(curve.nbranches), hi
        )
        out.append(
            ("curve-formula/%s" % name, mm is None, "first mismatch %r" % (mm,))
        )
    return out


def check_chain_with_arrow_formula():
    """Non-minimal resolution of a smooth branch: chain graph, same series."""
    g = graph.DualGraph((-2, -1), ((0, 1),), (1,))
    formula = formulas.curve_series(g, (6,))
    expected = {
        (n,): laurent.LaurentPoly.q_power(n) for n in range(7)
    }  # smooth branch: coefficient q^n at t^n
    ok = formula.coeffs == expected
    return [("curve-formula/chain-with-arrow", ok, repr(formula.coeffs))]


def check_divisorial_formula_vs_oracle():
    out = []
    for name, (m, hi) in modification_fixtures().items():
        if name == "cusp-mod-extra":
            continue  # heavier; validated through hoskin-deligne below
        g = m.graph()
        formula = formulas.divisorial_series(g, hi, m.intersection())
        oracle = formulas.hilbert_ie_series(
            divisorial_oracle(name).hilbert, g.nvertices, hi
        )
        mm = mser.first_mismatch(formula, oracle, mser.zero_vec(len(hi)), hi)
        out.append(
            ("divisorial-formula/%s" % name, mm is None, "first mismatch %r" % (mm,))
        )
    return out


def check_class_series_products():
    """Class series at L=1 equals both product forms of the classical series."""
    out = []
    for name, (m, hi) in modification_fixtures().items():
        g, d = m.graph(), m.intersection()
        zero = mser.zero_vec(len(hi))
        t3 = formulas.semigroup_class_series(g, hi, d)
        e10 = formulas.divisorial_poincare_product(g, hi, d)
        e11 = formulas.divisorial_poincare_product_edges(g, hi, d)
        mm1 = mser.first_mismatch(t3.at_one(), e10, zero, hi)
        mm2 = mser.first_mismatch(e10, e11, zero, hi)
        out.append(("class-series-at-1/%s" % name, mm1 is None, repr(mm1)))
        out.append(("product-forms-agree/%s" % name, mm2 is None, repr(mm2)))
    return out


def check_divisorial_at_one():
    """Divisorial series at q=1 equals the component product form."""
    out = []
    for name, (m, hi) in modification_fixtures().items():
        g, d = m.graph(), m.intersection()
        zero = mser.zero_vec(len(hi))
        t2 = formulas.divisorial_series(g, hi, d).at_one()
        e10 = formulas.divisorial_poincare_product(g, hi, d)
        mm = mser.first_mismatch(t2, e10, zero, hi)
        out.append(("divisorial-at-1/%s" % name, mm is None, repr(mm)))
    return out


def check_hoskin_deligne():
    """Closed codimension formula vs the jet-rank divisorial oracle."""
    out = []
    for name, (m, hi) in modification_fixtures().items():
        g, d = m.graph(), m.intersection()
        oracle = divisorial_oracle(name)
        s = g.nvertices
        bad = None
        for term in formulas.enumerate_terms(g, d, hi, "divisorial"):
            if term.edges or any(term.n):
                nhat = term.nhat(g)
                w = graph.w_of_nhat(d, nhat)
                hd = graph.hoskin_deligne(d, g, nhat)
                if hd != oracle.hilbert(w):
                    bad = ("oracle", nhat)
                    break
                fd = formulas.term_codimension(term, d, g)
                if fd != hd + sum(nhat):
                    bad = ("codim-identity", nhat)
                    break
        out.append(("hoskin-deligne/%s" % name, bad is None, repr(bad)))
    return out


def check_curvettes():
    """Multiplicity vectors of curvette polynomials reproduce rows of M."""
    out = []
    mods = modification_fixtures()
    for name, pairs in CURVETTES.items():
        m, _ = mods[name]
        d = graph.build_intersection(m.graph())
        bad = None
        for comp, poly in pairs:
            if m.multiplicity_vector(poly) != d.row(comp):
                bad = comp
                break
        out.append(("curvette-rows/%s" % name, bad is None, "component %r" % (bad,)))
    return out


def check_graph_invariants():
    """Every fixture graph blows down, and its replay gives the carried M."""
    out = []
    for name, (m, _) in modification_fixtures().items():
        try:
            ok = graph.build_intersection(m.graph()).M == m.M
        except MotiveSeriesError:
            ok = False
        out.append(("graph-invariants/%s" % name, ok, ""))
    return out


def check_coefficient_shapes():
    """Generalized series use only q-powers; class series only L-powers."""
    out = []
    m, _ = modification_fixtures()["cusp-mod"]
    cuspg, d = m.graph(), m.intersection()
    t2 = formulas.divisorial_series(cuspg, (6, 6, 6), d)
    ok_q = all(c.only_nonpos_powers() for c in t2.coeffs.values())
    t3 = formulas.semigroup_class_series(cuspg, (6, 6, 6), d)
    ok_l = all(c.only_nonneg_powers() for c in t3.coeffs.values())
    pg = oracle_series("space-curve-C", "Pg")
    ok_q2 = all(c.only_nonpos_powers() for c in pg.coeffs.values())
    ph = oracle_series("space-curve-C", "Phat")
    ok_l2 = all(c.only_nonneg_powers() for c in ph.coeffs.values())
    out.append(("coefficient-shapes/q", ok_q and ok_q2, ""))
    out.append(("coefficient-shapes/L", ok_l and ok_l2, ""))
    return out


def check_exponent_nonnegative():
    """The q-exponent of every enumerated term is nonnegative."""
    out = []
    for name, (m, hi) in modification_fixtures().items():
        g, d = m.graph(), m.intersection()
        bad = None
        for term in formulas.enumerate_terms(g, d, hi, "divisorial"):
            expo = formulas.term_codimension(term, d, g) - sum(term.n) - len(term.edges)
            if expo < 0:
                bad = term
                break
        out.append(("exponent-nonneg/%s" % name, bad is None, repr(bad)))
    return out


def _naive_curve_terms(g, d, hi):
    """Product-space enumeration with a final bound filter.

    Per-variable ranges are capped by the smallest contribution one unit
    makes to some bounded valuation component, which is sound because all
    exponents are monotone in every variable.  The valuation vector v is
    linear in the tuple: a variable of vertex i adds its value times row
    M[i] at the arrow vertices, and b~_k adds its value to v_k.  That
    linear form filters every tuple exactly, and `term_v` re-checks each
    tuple it accepts, so a wrong form can only drop tuples.
    """
    s, arrows = g.nvertices, g.arrows
    r = len(arrows)

    def var(i, low=1):  # the range and the v-coefficients of a vertex-i variable
        row = tuple(d.M[i][a] for a in arrows)
        return range(low, min(map(floordiv, hi, row)) + 1), row

    out = set()
    for emask in formulas._subsets(len(g.edges)):
        for amask in formulas._subsets(r):
            spec = [(range(1, hi[k] + 1), mser.unit_vec(r, k)) for k in amask]  # btilde
            spec += [var(arrows[k]) for k in amask]  # atilde
            spec += [var(i) for sigma in emask for i in g.edges[sigma]]  # n', n''
            spec += [var(i, 0) for i in range(s)]  # n
            ranges, coefs = zip(*spec)
            forms = tuple(zip(zip(*coefs), hi))  # (coefficients of v_k, hi_k)
            nb, ne, accepted = len(amask), len(emask), []
            for vals in itertools.product(*ranges):
                for c, b in forms:
                    if sum(map(mul, vals, c)) > b:
                        break
                else:
                    accepted.append(vals)
            for vals in accepted:
                btilde = vals[:nb]
                atilde = vals[nb : 2 * nb]
                nprime = vals[2 * nb : 2 * nb + 2 * ne : 2]
                ndprime = vals[2 * nb + 1 : 2 * nb + 2 * ne : 2]
                n = vals[2 * nb + 2 * ne :]
                t = formulas.TermIndex(emask, amask, n, nprime, ndprime, atilde, btilde)
                v = formulas.term_v(t, d, g)
                if all(x <= b for x, b in zip(v, hi)):
                    out.add((emask, amask, n, nprime, ndprime, atilde, btilde))
    return out


def check_enumeration_exhaustive():
    """Depth-first enumeration agrees with a naive product-space filter."""
    out = []
    cases = {
        "cusp": (
            graph.DualGraph((-3, -2, -1), ((0, 2), (1, 2)), (2,)),
            (8,),
        ),
        "three-arrows": (
            graph.DualGraph((-1,), (), (0, 0, 0)),
            (2, 3, 2),
        ),
        "chain-two-arrows": (
            graph.DualGraph((-2, -1), ((0, 1),), (1, 1)),
            (4, 4),
        ),
    }
    for name, (ga, hi) in cases.items():
        d = graph.build_intersection(ga)
        fast = set()
        for t in formulas.enumerate_terms(ga, d, hi, "curve"):
            fast.add((t.edges, t.arrows, t.n, t.nprime, t.ndprime, t.atilde, t.btilde))
        naive = _naive_curve_terms(ga, d, hi)
        out.append(
            (
                "enumeration-exhaustive/%s" % name,
                fast == naive,
                "fast %d vs naive %d" % (len(fast), len(naive)),
            )
        )
    return out


def check_valuation_additivity():
    """Divisorial multiplicities are valuations on random polynomial pairs."""
    rng = random.Random(42)
    m, _ = modification_fixtures()["cusp-mod"]
    bad = None
    for _ in range(20):
        def rand_poly():
            p = {}
            for _ in range(rng.randint(1, 4)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                p[e] = Fraction(rng.randint(-3, 3))
            return {k: v for k, v in p.items() if v} or {(1, 0): ONE}

        f, h = rand_poly(), rand_poly()
        fh = pmul(f, h)
        wf = m.multiplicity_vector(f)
        wh = m.multiplicity_vector(h)
        wfh = m.multiplicity_vector(fh)
        if tuple(a + b for a, b in zip(wf, wh)) != wfh:
            bad = (f, h)
            break
    return [("valuation-additivity/cusp-mod", bad is None, repr(bad))]


def check_resolve_reorder():
    """auto_resolve is invariant under branch reordering (up to arrows)."""
    fixtures = curve_fixtures()
    out = []
    for name in ("transverse-lines", "three-lines", "tangent-pair"):
        curve, _ = fixtures[name]
        _, g1, a1 = blowup.auto_resolve(curve)
        rev = curves.Curve(curve.ambient_dim, list(reversed(curve.branches)))
        _, g2, a2 = blowup.auto_resolve(rev)
        ok = (
            g1.self_ints == g2.self_ints
            and g1.edges == g2.edges
            and tuple(reversed(a1)) == a2
        )
        out.append(("resolve-reorder/%s" % name, ok, "%r vs %r" % (g1, g2)))
    return out


def check_hilbert_oracle_properties():
    """Step-by-one jumps, clamping, and monotonicity of the jet oracle."""
    out = []
    for name, (curve, hi) in curve_fixtures().items():
        oracle = curve_oracle(name)
        r = curve.nbranches
        # h top-down, one elimination per box, scanned in lex order so that
        # a failing check names the first point a bottom-up sweep would
        h = formulas.h_lines(oracle.hilbert_line, mser.zero_vec(r), mser.vec_add(hi, (1,) * r))
        jumps = ((v, k, h[u[:-1]][u[-1]] - h[v[:-1]][v[-1]])
                 for v in mser.box(mser.zero_vec(r), hi) for k in range(r)
                 for u in (mser.vec_add(v, mser.unit_vec(r, k)),))
        bad = next((("jump", v, k) for v, k, d in jumps if d not in (0, 1)), None)
        if bad is None:
            if oracle.hilbert((-3,) * r) != oracle.hilbert((0,) * r):
                bad = ("clamp",)
        out.append(("hilbert-oracle/%s" % name, bad is None, repr(bad)))
    return out


def check_remark_reconstruction():
    out = []
    for name in ("smooth-branch", "transverse-lines", "space-curve-C"):
        curve, hi = curve_fixtures()[name]
        hi = tuple(min(x, 5) for x in hi) if name == "smooth-branch" else hi
        ok, mm = jets.remark_identity_check(curve, hi)
        out.append(("hilbert-reconstruction/%s" % name, ok, repr(mm)))
    return out


ALL_CHECKS = (
    check_specialization,
    check_fibre_vanishing,
    check_product_identities,
    check_curve_formula_vs_oracle,
    check_chain_with_arrow_formula,
    check_divisorial_formula_vs_oracle,
    check_class_series_products,
    check_divisorial_at_one,
    check_hoskin_deligne,
    check_curvettes,
    check_graph_invariants,
    check_coefficient_shapes,
    check_exponent_nonnegative,
    check_enumeration_exhaustive,
    check_valuation_additivity,
    check_resolve_reorder,
    check_hilbert_oracle_properties,
    check_remark_reconstruction,
)


def run_all():
    """Run every cross-check; returns a list of (name, ok, detail)."""
    results = []
    for fn in ALL_CHECKS:
        results.extend(fn())
    return results
