from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motive_series.errors import InvalidInput, NotBlowupGraph, NotUnimodular
from motive_series.graph import (
    DualGraph,
    build_intersection,
    certify_inverse,
    chi_bullet,
    chi_open,
    hoskin_deligne,
    intersection_matrix,
    w_of_nhat,
)
from motive_series.linalg import det_and_adjugate

SINGLE = DualGraph((-1,), ())
CHAIN = DualGraph((-2, -1), ((0, 1),))
CUSP = DualGraph((-3, -2, -1), ((0, 2), (1, 2)), (2,))


def test_single_vertex():
    d = build_intersection(SINGLE)
    assert intersection_matrix(SINGLE) == ((-1,),)
    assert d.M == ((1,),)


def test_chain():
    d = build_intersection(CHAIN)
    assert intersection_matrix(CHAIN) == ((-2, 1), (1, -1))
    assert d.M == ((1, 1), (1, 2))


def test_cusp_rows():
    d = build_intersection(CUSP)
    assert d.M == ((1, 1, 2), (1, 2, 3), (2, 3, 6))


def test_not_unimodular():
    with pytest.raises(NotUnimodular):
        build_intersection(DualGraph((-2,), ()))
    with pytest.raises(NotUnimodular):
        # determinant 0
        build_intersection(DualGraph((-1, -1), ((0, 1),)))


def test_not_blowup_graph():
    # unimodular tree whose inverse has a zero entry
    with pytest.raises(NotBlowupGraph):
        build_intersection(DualGraph((-1, -1, -1), ((0, 1), (1, 2))))


def test_graph_validation():
    with pytest.raises(InvalidInput):
        DualGraph((-1, -2), ())  # disconnected
    with pytest.raises(InvalidInput):
        DualGraph((1,), ())  # nonnegative self-intersection
    with pytest.raises(InvalidInput):
        DualGraph((-1, -1, -1), ((0, 1), (1, 2), (0, 2)))  # cycle
    with pytest.raises(InvalidInput):
        DualGraph((-1, -1), ((0, 1), (0, 1)))  # duplicate edge


def test_chi_counts():
    assert chi_open(CUSP, 2) == -1  # two edges and the arrow
    assert chi_bullet(CUSP, 2) == 0
    assert chi_bullet(CUSP, 0) == 1
    assert chi_open(SINGLE, 0) == 2
    two_arrows = DualGraph((-1,), (), (0, 0))
    assert chi_open(two_arrows, 0) == 0


def test_w_of_nhat():
    d = build_intersection(CUSP)
    assert w_of_nhat(d, (0, 0, 0)) == (0, 0, 0)
    assert w_of_nhat(d, (0, 0, 1)) == (2, 3, 6)
    ds = build_intersection(SINGLE)
    assert w_of_nhat(ds, (3,)) == (3,)


def test_hoskin_deligne_values():
    ds = build_intersection(SINGLE)
    assert hoskin_deligne(ds, SINGLE, (0,)) == 0
    # vanishing-order-n conditions at a smooth point cut n(n+1)/2 dimensions
    for n in range(7):
        assert hoskin_deligne(ds, SINGLE, (n,)) == n * (n + 1) // 2
    dc = build_intersection(CHAIN)
    assert hoskin_deligne(dc, CHAIN, (0, 1)) == 2


def test_hoskin_deligne_monotone():
    d = build_intersection(CUSP)
    for i in range(3):
        for nhat in [(0, 0, 0), (1, 0, 1), (2, 1, 0)]:
            bumped = tuple(x + (1 if j == i else 0) for j, x in enumerate(nhat))
            assert hoskin_deligne(d, CUSP, bumped) > hoskin_deligne(d, CUSP, nhat)


def test_codimension_shift_identity():
    # the term codimension exceeds the divisorial codimension by sum(nhat);
    # algebraically M A 1 = -1
    from motive_series.formulas import TermIndex, term_codimension

    for g in (SINGLE, CHAIN, CUSP):
        d = build_intersection(g)
        s = g.nvertices
        for nhat in [(1,) * s, tuple(range(1, s + 1)), (2,) * s]:
            t = TermIndex((), (), nhat, (), (), (), ())
            assert term_codimension(t, d, g) == hoskin_deligne(d, g, nhat) + sum(nhat)


def test_chi_ordering():
    for g in (SINGLE, CHAIN, CUSP):
        for i in range(g.nvertices):
            assert chi_open(g, i) <= chi_bullet(g, i) <= 2


def test_json_round_trip():
    doc = CUSP.to_json()
    assert doc["edges"] == [[1, 3], [2, 3]]
    assert DualGraph.from_json(doc) == CUSP
    with pytest.raises(InvalidInput):
        DualGraph.from_json({"vertices": "nope"})


# -- the integer certificate against a Fraction inverse ------------------------


def det_and_inverse(matrix):
    """Reference: (determinant, inverse) by Gauss-Jordan elimination over
    Fraction, pivoting on the first nonzero entry; (0, None) if singular."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        best = next((i for i in range(col, n) if a[i][col]), None)
        if best is None:
            return Fraction(0), None
        if best != col:
            a[col], a[best] = a[best], a[col]
            det = -det
        piv = a[col][col]
        det *= piv
        a[col] = [x / piv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det, [row[n:] for row in a]


@st.composite
def integer_matrices(draw):
    """Square integer matrices up to 8x8; in about half of them one row is a
    combination of two others, so singular matrices come up often."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        others = [i for i in range(n) if i != k]
        i, j = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(integer_matrices())
@example([[0, 1], [1, 0]])  # needs a row swap: det -1
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
@example([[1, 2], [2, 4]])  # singular
@example([[0, 1], [0, 1]])  # singular, no pivot in column 0
def test_det_and_adjugate_matches_fraction_inverse(rows):
    det, adj = det_and_adjugate(rows)
    ref_det, inv = det_and_inverse(rows)
    assert type(det) is int and det == ref_det
    if inv is None:
        assert adj is None
    else:
        assert adj == [[ref_det * x for x in row] for row in inv]
        assert all(type(x) is int for row in adj for x in row)


def test_intersection_inverse_is_certified():
    # A M = -I on the fixtures, M from the adjugate
    for g in (SINGLE, CHAIN, CUSP):
        A, M, s = intersection_matrix(g), build_intersection(g).M, g.nvertices
        for i in range(s):
            for j in range(s):
                assert sum(A[i][k] * M[k][j] for k in range(s)) == -(i == j)


def test_certify_inverse_accepts_build_intersection():
    for g in (SINGLE, CHAIN, CUSP):
        certify_inverse(g, build_intersection(g).M)


def test_certify_inverse_on_given_rows():
    M = build_intersection(CUSP).M
    for rows in ([0], [2], [0, 1, 2]):
        certify_inverse(CUSP, M, rows)
    with pytest.raises(NotUnimodular):  # row 0 of A M sees M[2] through the edge (0, 2)
        certify_inverse(CUSP, M[:2] + ((2, 3, 5),), [0])
    # the true inverse of a unimodular tree, with an entry <= 0 in every row
    g = DualGraph((-1, -1, -1), ((0, 1), (1, 2)))
    det, adj = det_and_adjugate([[-1, 1, 0], [1, -1, 1], [0, 1, -1]])
    for i in range(3):
        with pytest.raises(NotBlowupGraph):
            certify_inverse(g, tuple(tuple(-det * x for x in row) for row in adj), [i])


def test_certify_inverse_on_given_rows_finds_a_wrong_entry_in_them():
    # a chain -2, -2, -2, -1: rows i and i + 2 (mod 4) are never adjacent, so
    # checking row i + 2 first passes and row i must then fail on its own
    g = DualGraph((-2, -2, -2, -1), ((0, 1), (1, 2), (2, 3)))
    M = build_intersection(g).M
    for i in range(4):
        for j in range(4):
            bad = tuple(
                tuple(x + (r == i and c == j) for c, x in enumerate(row)) for r, row in enumerate(M)
            )
            for rows in ([i], [i, (i + 1) % 4], [(i + 2) % 4, i]):
                certify_inverse(g, M, rows)
                with pytest.raises(NotUnimodular, match="row %d of A M" % i):
                    certify_inverse(g, bad, rows)


def test_certify_inverse_rejects():
    M = build_intersection(CUSP).M
    with pytest.raises(NotUnimodular):  # one entry off: A M is not -I
        certify_inverse(CUSP, M[:2] + ((2, 3, 5),))
    with pytest.raises(NotUnimodular):  # the wrong graph for M
        certify_inverse(DualGraph((-3, -1, -2), ((0, 2), (1, 2))), M)
    with pytest.raises(NotUnimodular):  # the wrong shape
        certify_inverse(CUSP, M[:2])
    # a unimodular tree whose true inverse has a zero entry
    g = DualGraph((-1, -1, -1), ((0, 1), (1, 2)))
    det, adj = det_and_adjugate([[-1, 1, 0], [1, -1, 1], [0, 1, -1]])
    with pytest.raises(NotBlowupGraph):
        certify_inverse(g, tuple(tuple(-det * x for x in row) for row in adj))
