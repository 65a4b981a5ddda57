"""Exact Gaussian elimination: rank over Q, determinant and adjugate over Z.

``rank`` is the one exact rank kernel, for the rows of both jet-rank
oracles: it eliminates by leading key on sparse dict rows, so it never
touches a zero, and returns the leading keys of its echelon basis.
``det_and_adjugate`` never leaves the integers.
"""

from __future__ import annotations


def rank(rows) -> list:
    """Sorted leading keys of an echelon basis of dict rows {column key:
    Fraction}; their count is the rank over Q.

    Rows are taken sparsest first.  Each is reduced against the pivot row
    stored under its smallest key until that key is new (the row becomes
    the pivot there) or the row is empty; a row sparser than the stored
    pivot swaps places with it.  The pivots span the rows and have
    distinct smallest keys, so for any column key c the rank of the
    columns below c is the number of returned keys below c (the prefix
    property).  The reductions work on copies: the input rows are never
    modified."""
    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            key = min(row)
            piv = pivots.get(key)
            if piv is None:
                pivots[key] = row
                break
            if len(row) < len(piv):
                pivots[key], row, piv = row, piv, row
            factor, row = row[key] / piv[key], dict(row)
            for k, c in piv.items():
                row[k] = row.get(k, 0) - factor * c
                if not row[k]:
                    del row[k]
    return sorted(pivots)


def det_and_adjugate(matrix):
    """(determinant, adjugate) of a square integer matrix, in integers.

    Fraction-free Gauss-Jordan elimination (Bareiss's method) on [A | I]:
    each step replaces every other row r by (p r - r[k] row_k) / prev,
    with p the new pivot and prev the one before it.  Every entry is then
    a minor of [A | I] up to sign, so each division is exact.  At the end
    the left half is p I and the right half p A^-1, with p = det A after
    the row swaps, so the adjugate det(A) A^-1 is the right half times
    the sign of the swaps.  Returns (0, None) when A is singular.
    """
    n = len(matrix)
    rows = [[int(x) for x in r] + [int(i == j) for j in range(n)] for i, r in enumerate(matrix)]
    sign, prev = 1, 1
    for k in range(n):
        best = next((i for i in range(k, n) if rows[i][k]), None)
        if best is None:
            return 0, None
        if best != k:
            rows[k], rows[best] = rows[best], rows[k]
            sign = -sign
        pivot_row, p = rows[k], rows[k][k]
        for i in range(n):
            if i != k:
                row, f = rows[i], rows[i][k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in rows]
