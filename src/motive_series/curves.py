"""Parametrized curve germs and branch-wise valuations.

A branch is an exact polynomial map (C,0) -> (C^n,0); a curve is a
finite union of pairwise distinct branches in a common ambient space.
The valuation of an ambient function along a branch is the vanishing
order of the composition, computed exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .errors import InvalidInput, UndefinedValuation, json_number
from .polys import clean, pcompose_univariate, ulead, uorder


class Branch:
    """Coordinates are univariate polynomials {tau-power: Fraction}, with
    their keys in ascending order."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(clean(dict(sorted(c.items()))) for c in coords)
        if not any(self.coords):
            raise InvalidInput("branch must have a nonzero coordinate")
        for c in self.coords:
            o = uorder(c)
            if o is not None and o < 1:
                raise InvalidInput("branch coordinates must vanish at the origin")

    @property
    def ambient_dim(self):
        return len(self.coords)

    def coordinate_order(self, j):
        """Order of the j-th coordinate; None when it vanishes identically."""
        return uorder(self.coords[j])

    def __eq__(self, other):
        if not isinstance(other, Branch):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(tuple(frozenset(c.items()) for c in self.coords))

    def to_json(self):
        return {
            "coords": [
                [[e, str(c[e])] for e in sorted(c)] for c in self.coords
            ]
        }

    @staticmethod
    def from_json(doc):
        try:
            coords = [
                {json_number(e, "exponent"): json_number(c, "coefficient", rational=True)
                 for e, c in coord}
                for coord in doc["coords"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput("malformed branch document: %s" % exc) from exc
        return Branch(coords)


class Curve:
    __slots__ = ("ambient_dim", "branches")

    def __init__(self, ambient_dim, branches):
        self.ambient_dim = int(ambient_dim)
        self.branches = tuple(branches)
        if not self.branches:
            raise InvalidInput("curve needs at least one branch")
        for b in self.branches:
            if b.ambient_dim != self.ambient_dim:
                raise InvalidInput("branch ambient dimension mismatch")
        for i in range(len(self.branches)):
            for j in range(i + 1, len(self.branches)):
                if self.branches[i] == self.branches[j]:
                    raise InvalidInput("two branches are identical as maps")

    @property
    def nbranches(self):
        return len(self.branches)

    def subcurve(self, keep):
        """Curve on the same ambient space with the selected branches."""
        keep = tuple(keep)
        if not keep:
            raise InvalidInput("subsystem needs at least one branch")
        return Curve(self.ambient_dim, [self.branches[k] for k in keep])

    def to_json(self):
        return {
            "ambient_dim": self.ambient_dim,
            "branches": [b.to_json() for b in self.branches],
        }

    @staticmethod
    def from_json(doc):
        try:
            dim = json_number(doc["ambient_dim"], "ambient_dim")
            branches = [Branch.from_json(b) for b in doc["branches"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput("malformed curve document: %s" % exc) from exc
        return Curve(dim, branches)


def compose_on_branch(g, branch: Branch):
    """The univariate polynomial g(branch coordinates); exact."""
    return pcompose_univariate(g, branch.coords)


def valuation(curve: Curve, g):
    """Orders and leading coefficients of g along every branch.

    g is a multivariate polynomial {exponent tuple: Fraction}.  Returns
    (v, a) where v_k is the vanishing order of the composition (math.inf
    when it is identically zero) and a_k the leading coefficient (None
    at infinite order).
    """
    g = {tuple(e): Fraction(c) for e, c in g.items() if c}
    if not g:
        raise UndefinedValuation("the zero function has no valuation")
    for e in g:
        if len(e) != curve.ambient_dim:
            raise InvalidInput("function exponent length != ambient dimension")
    v = []
    a = []
    for branch in curve.branches:
        comp = compose_on_branch(g, branch)
        o = uorder(comp)
        if o is None:
            v.append(inf)
            a.append(None)
        else:
            v.append(o)
            a.append(ulead(comp))
    return tuple(v), tuple(a)
