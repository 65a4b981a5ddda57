"""Exact Gaussian elimination: rank over Q, determinant and adjugate over Z.

``rank``, the dense kernel for the curve oracle's rows, picks pivots of
least numerator plus denominator bit-length, then fewest nonzeros, to
keep fractions small and fill-in low.  ``sparse_rank``, the leading-key
kernel for the divisorial oracle's dict rows (under 1 % nonzero), never
touches a zero.  ``det_and_adjugate`` never leaves the integers.
"""

from __future__ import annotations

from fractions import Fraction


def _pivot_weight(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def rank(rows) -> int:
    """Rank of a matrix given as a list of equal-length Fraction rows.

    Rows below the pivot are updated only on the pivot row's nonzero
    columns right of the pivot, listed when a row first needs them."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r, nnz = 0, [None] * len(rows)  # nnz: nonzeros from the column counted at, None if stale
    for col in range(ncols):
        best = None
        for i in range(r, len(rows)):
            x = rows[i][col]
            if x:
                w = _pivot_weight(x)
                if best is None or w < best_w:
                    best, best_w = i, w
                elif w == best_w:  # the tie goes to the sparser row
                    for k in (best, i):
                        if nnz[k] is None:
                            nnz[k] = sum(map(bool, rows[k][col:]))
                    if nnz[i] < nnz[best]:
                        best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        nnz[r], nnz[best] = nnz[best], nnz[r]
        row_r = rows[r]
        piv, support = row_r[col], None
        for i in range(r + 1, len(rows)):
            row_i = rows[i]
            x = row_i[col]
            if x:
                if support is None:
                    support = [j for j in range(col + 1, ncols) if row_r[j]]
                factor = x / piv
                for j in support:
                    row_i[j] -= factor * row_r[j]
                nnz[i] = None
        r += 1
        if r == len(rows):
            break
    return r


def sparse_rank(rows) -> int:
    """Rank of a matrix given as dict rows {column key: Fraction}.

    Rows are taken sparsest first.  Each is reduced against the pivot row
    stored under its smallest key until that key is new (the row becomes
    the pivot there) or the row is empty; a row sparser than the stored
    pivot swaps places with it.  The rank is the number of pivots.  The
    reductions work on copies: the input rows are never modified."""
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
    return len(pivots)


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
