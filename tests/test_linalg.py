"""`linalg.rank` against a plain dense elimination over Fraction.

`rank` reduces dict rows by leading key and returns the sorted leading
keys; the reference takes the first nonzero pivot of dense rows and
updates every column.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from motive_series.linalg import rank


def dense_rank(rows):
    """Rank by Gaussian elimination on every column of every row."""
    rows = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# mostly zeros, so that rows are sparse and pivot rows have gaps
entries = st.sampled_from([Fraction(0)] * 5) | st.fractions(-9, 9, max_denominator=7)
multipliers = st.fractions(-4, 4, max_denominator=5)


@st.composite
def sparse_matrices(draw):
    """1-6 by 1-6 matrices, with up to three rows that are combinations
    of two rows before them, and zero rows."""
    ncols = draw(st.integers(1, 6))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        a, b = draw(multipliers), draw(multipliers)
        combo = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    return rows


def dict_rows(rows):
    """Dense rows as dict rows {(0, column): entry}, zeros left out."""
    return [{(0, j): x for j, x in enumerate(r) if x} for r in rows]


def check_rank(rows):
    sparse = dict_rows(rows)
    before = [dict(r) for r in sparse]
    keys = rank(sparse)
    assert len(keys) == dense_rank(rows)
    assert keys == sorted(set(keys))
    assert sparse == before  # the input is not modified


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(sparse_matrices())
@example([])
@example([[Fraction(0)]])
@example([[Fraction(3)]])
@example([[Fraction(0)], [Fraction(2, 3)], [Fraction(-1)]])
@example([[Fraction(0), Fraction(0), Fraction(5), Fraction(0), Fraction(1, 2)]])
@example([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(0)]])
def test_rank_matches_dense_elimination(rows):
    check_rank(rows)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(sparse_matrices())
@example([])
@example([[Fraction(0)] * 3, [Fraction(0)] * 3])
@example([[Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)]])
# the second row, reduced by the first, becomes the pivot at column 1 with
# four entries; the third row, with three, shares that key: the two swap
@example([[Fraction(x) for x in r] for r in ("1110000", "1001100", "0100011")])
def test_sparse_rank_matches_dense_elimination(rows):
    """Rows that share a leading key after reduction, and all-zero rows."""
    check_rank(rows)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(sparse_matrices())
@example([[Fraction(0)] * 3, [Fraction(0)] * 3])
@example([[Fraction(0), Fraction(0), Fraction(5), Fraction(0), Fraction(1, 2)]])
@example([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(0)]])
@example([[Fraction(x) for x in r] for r in ("1110000", "1001100", "0100011")])
@example([[Fraction(x) for x in r] for r in ("0011", "0110", "0101", "0000")])
def test_leading_keys_give_the_rank_of_every_column_prefix(rows):
    """The prefix property: for each column key c, the leading keys below c
    count the rank of the columns below c, shared leading keys and all-zero
    rows included."""
    keys = rank(dict_rows(rows))
    for j in range(len(rows[0]) + 1):
        below = sum(key < (0, j) for key in keys)
        assert below == dense_rank([r[:j] for r in rows]), j
