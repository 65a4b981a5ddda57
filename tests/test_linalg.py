"""`linalg.rank` and `linalg.restrict` against a plain dense elimination
over Fraction.

`rank` reduces dict rows by leading key and returns its echelon basis
{leading key: pivot row}; `restrict` derives the basis of the same rows
with a suffix of each block's columns dropped.  The reference takes the
first nonzero pivot of dense rows and updates every column.
"""

from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from motive_series.linalg import rank, restrict


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


def leading_keys(rows):
    return sorted(rank(dict_rows(rows)))


def check_rank(rows):
    sparse = dict_rows(rows)
    before = [dict(r) for r in sparse]
    basis = rank(sparse)
    assert len(basis) == dense_rank(rows)
    assert all(min(row) == key for key, row in basis.items())
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


# -- integer rows, mixed rows and row scalings ---------------------------------

FEW = settings(max_examples=30, derandomize=True, database=None, deadline=None)
big_entries = st.sampled_from([0] * 4) | st.integers(-(2**64), 2**64)
big_multipliers = st.integers(-(2**64), 2**64)


@st.composite
def integer_matrices(draw):
    """1-6 by 1-6 int matrices with entries up to 2^64 in size, with up to
    three rows that are integer combinations of two rows before them."""
    ncols = draw(st.integers(1, 6))
    rows = [[draw(big_entries) for _ in range(ncols)] for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        a, b = draw(big_multipliers), draw(big_multipliers)
        rows.insert(draw(st.integers(0, len(rows))), [a * x + b * y for x, y in zip(rows[i], rows[j])])
    return rows


@FEW
@given(integer_matrices())
@example([[2**64, 2**64 - 1], [2**64 + 1, 2**64]])  # determinant 1
@example([[2**64, 3 * 2**63], [2**65, 3 * 2**64]])  # rank 1, content 2^63
def test_integer_rows_with_large_entries(rows):
    check_rank(rows)
    assert leading_keys(rows) == leading_keys([[Fraction(x) for x in r] for r in rows])


@FEW
@given(sparse_matrices())
@example([[Fraction(1, 2), Fraction(3)], [Fraction(1), Fraction(6)]])
@example([[Fraction(2), Fraction(4)], [Fraction(3), Fraction(6)]])
def test_rows_of_mixed_ints_and_fractions(rows):
    """Every other entry with an integral value becomes an int."""
    mixed = [
        [int(x) if x.denominator == 1 and (i + j) % 2 else x for j, x in enumerate(r)]
        for i, r in enumerate(rows)
    ]
    check_rank(mixed)
    assert leading_keys(mixed) == leading_keys(rows)


@FEW
@given(sparse_matrices(), st.data())
def test_scaling_a_row_keeps_the_leading_keys(rows, data):
    """A nonzero rational multiple of any row gives the same leading keys."""
    keys = leading_keys(rows)
    i = data.draw(st.integers(0, len(rows) - 1))
    q = data.draw(st.fractions(-50, 50, max_denominator=9).filter(bool))
    scaled = [[q * x for x in r] if k == i else r for k, r in enumerate(rows)]
    assert leading_keys(scaled) == keys
    # and so does each row times the lcm of its denominators, as ints
    integral = [[int(x * lcm(*(y.denominator for y in r))) for x in r] for r in scaled]
    assert leading_keys(integral) == keys


# -- restricting an echelon basis ------------------------------------------------

small_entries = st.sampled_from([0] * 4) | st.integers(-3, 3)


@st.composite
def blocks_and_limits(draw):
    """1-3 blocks of 1-4 columns each, keyed (block, column); 1-7 int rows
    with up to three combinations of two rows before them; and a chain of
    1-4 per-block limits, each no larger than the one before."""
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    cols = [(k, e) for k, n in enumerate(widths) for e in range(n)]
    rows = [[draw(small_entries) for _ in cols] for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 3))):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.insert(draw(st.integers(0, len(rows))), [a * x + b * y for x, y in zip(rows[i], rows[j])])
    chain, lims = [], widths
    for _ in range(draw(st.integers(1, 4))):
        lims = [draw(st.integers(0, n)) for n in lims]
        chain.append(lims)
    return cols, rows, chain


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(blocks_and_limits())
# the pivots lead at (0, 1) and (1, 0); with (0, 1) and (1, 1) dead, the
# first, cleaned to {(1, 0): 1}, swaps with the second, whose leftover
# (1, 1) is dead and must be cleaned away: the restricted rank is 1
@example(([(0, 0), (0, 1), (1, 0), (1, 1)], [[0, 0, 1, 1], [0, 1, 1, 2]], [[1, 1]]))
# both pivots lead in the dropped block 0, and their live parts are parallel
@example(([(0, 0), (0, 1), (1, 0)], [[1, 0, 2], [0, 1, 4]], [[0, 1], [0, 1]]))
def test_restrict_matches_dense_elimination_of_the_live_columns(case):
    """Each basis of a chain of restrictions has the dense rank of the rows
    on the live columns, its leading keys are live and count the rank of
    every prefix up to each key (last block, t) of those columns, and the
    basis it came from is not modified.  Column (k, e) is the int key
    (k << width) + e, and a limit is absolute, as the oracles key them."""
    cols, rows, chain = case
    width = 2  # the tightest: every column e and every limit is at most 4 = 1 << width
    keys = [(k << width) + e for k, e in cols]
    basis = rank([{c: x for c, x in zip(keys, r) if x} for r in rows])
    last = len(chain[0]) - 1
    for lims in chain:
        before = {key: dict(row) for key, row in basis.items()}
        old, basis = basis, restrict(basis, [(k << width) + x for k, x in enumerate(lims)], width)
        assert {key: dict(row) for key, row in old.items()} == before
        live = [i for i, (k, e) in enumerate(cols) if e < lims[k]]
        dense = [[r[i] for i in live] for r in rows]
        assert len(basis) == dense_rank(dense)
        assert all(min(row) == key and key % (1 << width) < lims[key >> width] for key, row in basis.items())
        for t in range(lims[last] + 1):
            below = sum(1 for i in live if cols[i] < (last, t))
            prefix = dense_rank([r[:below] for r in dense])
            assert sum(key < (last << width) + t for key in basis) == prefix, t
