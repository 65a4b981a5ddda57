"""Exact Gaussian elimination: rank over Q, in integers.

``rank`` is the one exact elimination, for the rows of both jet-rank
oracles: it eliminates by leading key on sparse dict rows, so it never
touches a zero, and returns its echelon basis {leading key: pivot row}.
It stays in the integers: a rational row is first scaled by the lcm of
its denominators, and rows are reduced fraction-free.  Scaling a row by a
nonzero number changes neither its keys nor the rank of any set of
columns, so the rank and every prefix of the leading keys are those of
the rows as given; the oracles build their rows integral for that
reason (see `jets`).  Each stored pivot is divided by its content, the
gcd of its entries, which limits the growth of the entries.
``restrict`` derives the basis of the same rows on fewer columns.
"""

from __future__ import annotations

from math import gcd

from .polys import as_ints, common_denominator


def _primitive(row):
    """The int row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return row if g == 1 else {k: c // g for k, c in row.items()}


def _live(row, lims, width):
    """The row without its dead keys, key >= lims[key >> width]."""
    return {key: c for key, c in row.items() if key < lims[key >> width]}


def _insert(pivots, row, lims=None, width=0):
    """Reduce the int row against the pivot under its smallest key until
    that key is new, and store it there primitive; a sparser row swaps
    places with the pivot.  A reduction, on a copy, is fraction-free:
    row <- (a/g) row - (b/g) piv, with a = piv[key], b = row[key] and
    g = gcd(a, b); with lims, it drops the dead keys it brings in."""
    while row:
        key = min(row)
        piv = pivots.get(key)
        if piv is None:
            pivots[key] = _primitive(row)
            return
        if len(row) < len(piv):
            piv, row = _primitive(row), piv
            pivots[key] = piv
        a, b = piv[key], row[key]
        g = gcd(a, b)
        a, b = a // g, b // g
        row = {k: a * c for k, c in row.items()} if a != 1 else dict(row)
        for k, c in piv.items():
            c = row.get(k, 0) - b * c
            if c:
                row[k] = c
            else:
                del row[k]
        if lims is not None:
            row = _live(row, lims, width)


def rank(rows) -> dict:
    """An echelon basis {leading key: pivot row} of dict rows {column key:
    int or Fraction}; its size is the rank over Q.

    A row with an entry that is not an int (the sum of its entries is
    then not an int) is first multiplied by the lcm of its denominators.
    Rows are inserted sparsest first (see `_insert`).  The pivots span the
    rows and have distinct smallest keys, so for any column key c the
    rank of the columns below c is the number of leading keys below c
    (the prefix property).  The input rows are never modified."""
    rows = [
        row if type(sum(row.values())) is int else as_ints(row, common_denominator(row))
        for row in rows
    ]
    pivots = {}
    for row in sorted(rows, key=len):
        _insert(pivots, row)
    return pivots


def restrict(pivots, lims, width) -> dict:
    """An echelon basis, as `rank` gives, of the rows that pivots span,
    restricted to the live keys, key < lims[key >> width] (block k's keys
    lie in [k << width, (k + 1) << width)), with no elimination.

    The restricted pivots span the restricted rows.  A pivot led by a live
    key keeps it, with its dead entries, which can never lead.  Only a
    pivot led by a dead key is cleaned and inserted again, sparsest first.
    Dead entries never change live ones, so the result can be restricted
    again by lims no larger.  The input basis is not modified."""
    out, dropped = {}, []
    for key, piv in pivots.items():
        if key < lims[key >> width]:
            out[key] = piv
        else:
            dropped.append(_live(piv, lims, width))
    for row in sorted(dropped, key=len):
        _insert(out, row, lims, width)
    return out
