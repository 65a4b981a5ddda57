"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` built from a seed and returns
plain JSON-ready documents (curves, blow-up scripts, query points,
polynomial strings).  The program under test only ever sees these
documents, written to files, and command-line arguments.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

# the fixed space curves of the fixture suite, as curve documents
SPACE_CURVES = {
    "space-curve-C": {
        "ambient_dim": 5,
        "branches": [
            {"coords": [[[2, "1"]], [[3, "1"]], [[2, "1"]], [[4, "1"]], [[5, "1"]]]},
            {"coords": [[[2, "1"]], [[3, "1"]], [[4, "1"]], [[2, "1"]], [[6, "1"]]]},
        ],
    },
    "space-curve-Cprime": {
        "ambient_dim": 6,
        "branches": [
            {"coords": [[[3, "1"]], [[4, "1"]], [[5, "1"]], [[4, "1"]], [[5, "1"]], [[6, "1"]]]},
            {"coords": [[[3, "1"]], [[4, "1"]], [[5, "1"]], [[5, "1"]], [[6, "1"]], [[7, "1"]]]},
        ],
    },
}

_COEFFS = ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "3/2")


def _coeff(rng):
    return rng.choice(_COEFFS)


MAX_A, MAX_B = 3, 7  # ranges of the exponents a and b


def plane_branch(rng):
    """(tau^a, tau^b + c tau^(b+1) + ...) with gcd(a, b) = 1, a < b.

    The coordinates are swapped with probability 1/2, so branches are
    tangent to either axis.
    """
    while True:
        a = rng.randint(1, MAX_A)
        b = rng.randint(a + 1, MAX_B)
        if gcd(a, b) == 1:
            break
    y = [[b, "1"], [b + 1, _coeff(rng)]]
    if rng.random() < 0.5:
        y.append([b + 2, _coeff(rng)])
    x = [[a, "1"]]
    coords = [x, y] if rng.random() < 0.5 else [y, x]
    return {"coords": coords}


def plane_curve(rng, nbranches):
    """A plane curve with `nbranches` distinct branches."""
    branches = []
    while len(branches) < nbranches:
        b = plane_branch(rng)
        if b not in branches:
            branches.append(b)
    return {"ambient_dim": 2, "branches": branches}


def blowup_script(rng, nsteps):
    """A valid blow-up script of `nsteps` point blow-ups.

    After the origin, each step blows up either a corner (an edge of the
    dual graph so far) or a free point of a component at a nonzero
    parameter not used before on that component; both are always valid
    centers.
    """
    steps = [{"center": "origin"}]
    ncomp = 1
    edges = set()
    used = set()
    while len(steps) < nsteps:
        new = ncomp + 1
        if edges and rng.random() < 0.4:
            i, j = rng.choice(sorted(edges))
            steps.append({"center": {"corner": [i, j]}})
            edges.discard((i, j))
            edges.update({(i, new), (j, new)})
        else:
            comp = rng.randint(1, ncomp)
            param = str(Fraction(rng.choice(_COEFFS)) * rng.randint(1, 3))
            if (comp, param) in used:
                continue
            used.add((comp, param))
            steps.append({"center": {"on": comp, "param": param}})
            edges.add((comp, new))
        ncomp = new
    return {"steps": steps}


def scatter_point(rng, dim, top):
    """A query point in [0, top]^dim with at least one coordinate >= 1."""
    while True:
        v = [rng.randint(0, top) for _ in range(dim)]
        if any(v):
            return v


def poly_text(rng):
    """A polynomial in x, y written as an expression such as y^2-x^3+2*x*y."""
    monos = set()
    while len(monos) < 3:
        monos.add((rng.randint(0, 6), rng.randint(0, 6)))
    monos.discard((0, 0))
    parts = []
    for a, b in sorted(monos):
        c = rng.choice(("1", "-1", "2", "-3", "1/2"))
        factors = [f for f in ("x^%d" % a if a else "", "y^%d" % b if b else "") if f]
        parts.append("%s*%s" % (c, "*".join(factors)))
    return "+".join(parts).replace("+-", "-") or "x"
