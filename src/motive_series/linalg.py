"""Exact Gaussian elimination: rank over Q, in integers.

``rank`` is the one exact elimination, for the rows of both jet-rank
oracles: it eliminates by leading key on sparse int dict rows, so it
never touches a zero, and returns its echelon basis {leading key: pivot}.
It takes the keys smallest first: the rows that share a key are reduced,
fraction-free, against one pivot there, and each reduced row leads by a
larger key, so a key's rows are all in when that key comes up.  A row
alone at its key joins the basis untouched, and needs no terms at all: a
pivot can be left *unbuilt*, a tuple whose last entry holds its least key
on each block, and is built (by the caller's ``build``) only if a reduced
row lands on its key.  Scaling a row by a nonzero number changes neither
its keys nor the rank of any set of columns, so the rank and every
prefix of the leading keys are those of the rows over Q; the oracles
build their rows integral for that reason (see `jets`).  A pivot that
reduces is first divided by its content, the gcd of its entries, which
limits the growth of the entries.
``restrict`` derives the basis of the same rows on fewer columns; it
re-keys an unbuilt pivot from its least keys, without building it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd


def _primitive(row):
    """The int row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return row if g == 1 else {k: c // g for k, c in row.items()}


def _live(row, lims, width):
    """The row without its dead keys, key >= lims[key >> width]."""
    return {key: c for key, c in row.items() if key < lims[key >> width]}


def _eliminate(basis, rows, build, lims=None, width=0):
    """Land each row at its smallest key, then reduce by key, smallest
    first.  A row lands as the pivot of a free key, or waits there.  At a
    key with rows waiting, the sparsest of them and the pivot there (built
    if unbuilt; with lims, cleaned of its dead keys) becomes the primitive
    pivot, and each other row lands again, reduced: row <- (a/g) row -
    (b/g) piv, with a = piv[key], b = row[key] and g = gcd(a, b).  A row
    given here is reduced on a copy, and a row made here in place.  Rows
    are clean of dead keys, so a reduced row is too."""
    waiting, heap, given = {}, [], set(map(id, rows))  # the rows given stay alive
    while True:
        for row in rows:
            if not row:
                continue
            key = min(row)
            if key in waiting:
                waiting[key].append(row)
            elif key in basis:
                waiting[key] = [row]
                heappush(heap, key)
            else:
                basis[key] = row
        if not heap:
            return basis
        key = heappop(heap)
        group, piv = waiting.pop(key), basis[key]
        if type(piv) is not dict:
            piv = build([piv])[0]
        if lims is not None:
            piv = _live(piv, lims, width)
        group.append(piv)
        group.sort(key=len)
        piv = basis[key] = _primitive(group[0])
        a, rows = piv[key], group[1:]
        for i, row in enumerate(rows):
            b = row[key]
            g = gcd(a, b)
            a_g, b = a // g, b // g
            if id(row) in given:
                row = rows[i] = {k: a_g * c for k, c in row.items()} if a_g != 1 else dict(row)
            elif a_g != 1:
                for k in row:
                    row[k] *= a_g
            for k, c in piv.items():
                c = row.get(k, 0) - b * c
                if c:
                    row[k] = c
                else:
                    del row[k]


def rank(rows, unbuilt=(), build=None) -> dict:
    """An echelon basis {leading key: pivot} of the int dict rows {column
    key: int}, and of the unbuilt pivots {leading key: pivot}, each alone
    at its key; its size is the rank over Q.  build(pivots) gives the rows
    of a list of unbuilt pivots.

    The pivots span the rows and have distinct smallest keys, so for any
    column key c the rank of the columns below c is the number of leading
    keys below c (the prefix property).  The input rows are never
    modified."""
    return _eliminate(dict(unbuilt), rows, build)


def restrict(pivots, lims, width, build=None) -> dict:
    """An echelon basis, as `rank` gives, of the rows that pivots span,
    restricted to the live keys, key < lims[key >> width] (block k's keys
    lie in [k << width, (k + 1) << width)); build(pivots) gives unbuilt
    pivots' rows at a line at or above this one, cleaned here.

    The restricted pivots span the restricted rows.  A pivot led by a live
    key keeps it, with its dead entries, which can never lead; they are
    cleaned away only if it reduces a row.  A built pivot led by a dead
    key is cleaned and lands again (see `_eliminate`).  An unbuilt pivot
    led by a dead key is re-keyed at its first live block, from its least
    keys, and stays unbuilt unless that key is taken (those are built
    together); with no live block its row is zero.  Dead entries never
    change live ones, so the result can be restricted again by lims no
    larger.  The input basis is not modified."""
    out, dropped, rows = {}, [], []
    for key, piv in pivots.items():
        if key < lims[key >> width]:
            out[key] = piv
        elif type(piv) is dict:
            rows.append(_live(piv, lims, width))
        else:
            dropped.append((key >> width, piv))
    taken = []
    for k, piv in dropped:  # once every kept pivot is in out
        acc = piv[-1]
        for k in range(k + 1, len(lims)):
            key = (k << width) + acc[k]
            if key < lims[k]:
                if key in out:
                    taken.append(piv)
                else:
                    out[key] = piv
                break
    if taken:
        rows += [_live(row, lims, width) for row in build(taken)]
    return _eliminate(out, rows, build, lims, width) if rows else out
