import json
import weakref
from fractions import Fraction
from itertools import product
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_series import Branch, Curve, cli, linalg, valuation
from motive_series.blowup import DivisorialOracle, run_script
from motive_series.errors import InvalidInput, PrecisionExhausted, UndefinedValuation
from motive_series.formulas import h_lines
from motive_series.jets import (
    HilbertOracle,
    JetRankOracle,
    remark_identity_check,
    semigroup_members,
    series,
    subsystem_series,
)
from motive_series.laurent import LaurentPoly
from motive_series.mseries import box
from test_formulas import blowup_scripts

ONE = Fraction(1)
UNIT = LaurentPoly.one()
Q = LaurentPoly.q_power(1)


def by_point(lines):
    """{v: h(v)} of a line table {p: [h(p, 0), h(p, 1), ...]}, such as an
    oracle's kept lines `_hs`."""
    return {p + (t,): x for p, hs in lines.items() for t, x in enumerate(hs)}


def x(i, n):
    return {tuple(1 if j == i else 0 for j in range(n)): ONE}


def test_valuation_on_paper_curve(curve_c):
    v, a = valuation(curve_c, x(0, 5))
    assert v == (2, 2)
    assert a == (ONE, ONE)
    v, _ = valuation(curve_c, {(0, 0, 0, 0, 0): ONE})
    assert v == (0, 0)
    g = {(1, 0, 0, 0, 0): ONE, (0, 0, 1, 0, 0): -ONE}  # x1 - x3
    v, a = valuation(curve_c, g)
    assert v == (inf, 2)
    assert a[0] is None


def test_valuation_of_zero_rejected(curve_c):
    with pytest.raises(UndefinedValuation):
        valuation(curve_c, {})


def test_branch_validation():
    with pytest.raises(InvalidInput):
        Branch([{}, {}])  # all coordinates zero
    with pytest.raises(InvalidInput):
        Branch([{0: ONE}, {}])  # does not pass through the origin
    with pytest.raises(InvalidInput):
        Curve(2, [Branch([{1: ONE}, {}]), Branch([{1: ONE}, {}])])


def test_hilbert_values(curve_c, curve_cprime):
    assert HilbertOracle(curve_c).hilbert((3, 3)) == 3
    assert HilbertOracle(curve_cprime).hilbert((3, 3)) == 1
    assert HilbertOracle(curve_c).hilbert((0, 0)) == 0


def test_hilbert_clamps_negative(curve_c):
    oracle = HilbertOracle(curve_c)
    assert oracle.hilbert((-2, 3)) == oracle.hilbert((0, 3))


def test_hilbert_jumps_by_at_most_one(transverse_lines):
    oracle = HilbertOracle(transverse_lines)
    for v in box((0, 0), (4, 4)):
        h = oracle.hilbert(v)
        for k in range(2):
            up = tuple(x + (1 if i == k else 0) for i, x in enumerate(v))
            assert oracle.hilbert(up) - h in (0, 1)


def test_precision_cap():
    curve = Curve(2, [Branch([{1: ONE}, {}])])
    with pytest.raises(PrecisionExhausted):
        HilbertOracle(curve, max_jet=4).hilbert((9,))


def test_jet_cap_is_exact(cusp_curve):
    assert HilbertOracle(cusp_curve, max_jet=9).hilbert((9,)) == 8  # values 0, 2, 3, ..., 8
    with pytest.raises(PrecisionExhausted, match="jet order 10 needed, cap is 9"):
        HilbertOracle(cusp_curve, max_jet=9).hilbert((10,))


@st.composite
def orders_and_point(draw):
    """1-3 blocks of 1-3 coordinate orders in 1..5 or None, and a point."""
    n = draw(st.integers(1, 3))
    coords = st.lists(st.none() | st.integers(1, 5), min_size=n, max_size=n)
    orders = draw(st.lists(coords, min_size=1, max_size=3))
    v = draw(st.lists(st.integers(0, 7), min_size=len(orders), max_size=len(orders)))
    return orders, tuple(v)


def _exact_order(ords, alpha):
    return sum(0 if not a else inf if o is None else a * o for o, a in zip(ords, alpha))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(orders_and_point())
def test_candidates_match_brute_force(case):
    orders, v = case
    # every order is >= 1, so each exponent of a candidate is below max(v)
    want = [
        alpha
        for alpha in product(range(max(v)), repeat=len(orders[0]))
        if any(_exact_order(ords, alpha) < vk for ords, vk in zip(orders, v))
    ]
    cands, keys = JetRankOracle(orders)._candidates(v)
    assert [alpha for alpha, _ in cands] == want
    # the running orders filter each block exactly, None coordinates included,
    # and a row leads by its exact order on its first live block
    width = JetRankOracle(orders)._width
    for (alpha, acc), key in zip(cands, keys):
        for k, ords in enumerate(orders):
            assert (acc[k] < v[k]) == (_exact_order(ords, alpha) < v[k])
        k = next(k for k, ords in enumerate(orders) if _exact_order(ords, alpha) < v[k])
        assert key == (k << width) + _exact_order(orders[k], alpha)
    assert len(keys) == len(cands)
    assert JetRankOracle(orders)._candidates((0,) * len(orders)) == ([], [])
    # a module generating set (j, N) keeps the x^alpha with sum_{l != j}
    # alpha_l < N, in the same lex order and with the same exact orders
    for j, cap in product(range(len(orders[0])), (1, 2, 4)):
        oracle = JetRankOracle(orders)
        oracle._module = (j, cap)
        capped, _ = oracle._candidates(v)
        assert [alpha for alpha, _ in capped] == [alpha for alpha in want if sum(alpha) - alpha[j] < cap]
        for alpha, acc in capped:
            for k, ords in enumerate(orders):
                assert (acc[k] < v[k]) == (_exact_order(ords, alpha) < v[k])


@st.composite
def curves_with_zero_coordinates(draw):
    """1-3 distinct branches in 2 or 3 coordinates, each coordinate
    identically zero or c tau^a + tau^(a + 1), a in 1..4, not all zero."""
    n = draw(st.integers(2, 3))
    coord = st.none() | st.tuples(st.integers(1, 4), st.sampled_from((1, -1, 2)))
    rows = st.lists(coord, min_size=n, max_size=n).filter(any)
    branches = draw(st.lists(rows, min_size=1, max_size=3, unique_by=tuple))
    return Curve(n, [
        Branch([{} if c is None else {c[0]: Fraction(c[1]), c[0] + 1: ONE} for c in cs])
        for cs in branches
    ])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(curves_with_zero_coordinates(), st.data())
def test_swept_tables_match_fresh_oracles_on_random_curves(curve, data):
    # H on [0, hi] keeps the bases of its lines; the sweep of [0, hi + 1]
    # raises the horizon, ranks its top line and restricts it to every line below
    r = curve.nbranches
    hi = tuple(data.draw(st.integers(0, {1: 5, 2: 3, 3: 2}[r])) for _ in range(r))
    swept = HilbertOracle(curve)
    series(swept, "H", hi)
    h = by_point(h_lines(swept.hilbert_line, (0,) * r, tuple(x + 1 for x in hi)))
    for v, value in h.items():
        assert value == HilbertOracle(curve).hilbert(v), v


def assert_line_reads_match_point_reads(oracle, points, data):
    """oracle.hilbert_line(p, t0, t1) against points.hilbert at each point
    of the line, points another oracle of the same curve or modification:
    p with negative entries, lines from t0 = -1, lines wholly below 0
    (t1 < -1) and an empty one, asked before and after the horizon rises."""
    def prefix():
        return tuple(data.draw(st.integers(-2, 2)) for _ in range(oracle.nvars - 1))

    neg = (-1,) + prefix()[1:] if oracle.nvars > 1 else ()
    for horizon, cases in (
        (3, [(neg, -1, 2), (prefix(), -3, -2), (prefix(), 1, 3), (prefix(), -1, -1)]),
        (6, [(prefix(), 4, 6), (neg, -1, 5), (prefix(), -4, -2), (prefix(), 3, 2),
             (prefix(), -2, 6)]),
    ):
        for p, t0, t1 in cases:
            want = [points.hilbert(p + (t,)) for t in range(t0, t1 + 1)]
            assert oracle.hilbert_line(p, t0, t1) == want, (p, t0, t1)
        assert oracle._horizon == horizon


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(curves_with_zero_coordinates(), st.data())
def test_line_reads_match_point_reads_on_random_curves(curve, data):
    assert_line_reads_match_point_reads(HilbertOracle(curve), HilbertOracle(curve), data)


def _pruned_and_full(curve, hi):
    """(sorted leading keys at the line hi + 1, h on [0, hi + 1]) for an
    oracle that ranks a C{x_j}-module generating set, and for one that
    ranks every candidate."""
    top = tuple(x + 1 for x in hi)
    out = []
    for prune in (True, False):
        oracle = HilbertOracle(curve)
        with pytest.MonkeyPatch.context() as mp:
            if not prune:
                mp.setattr(oracle, "_module", None)
            keys = sorted(linalg.rank(oracle._rows(oracle._candidates(top)[0], oracle._tables(top))))
            out.append((keys, h_lines(oracle.hilbert_line, (0,) * len(hi), top)))
    return out


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(curves_with_zero_coordinates(), st.data())
def test_pruned_candidates_span_the_full_rows(curve, data):
    r = curve.nbranches
    hi = tuple(data.draw(st.integers(0, {1: 6, 2: 3, 3: 2}[r])) for _ in range(r))
    pruned, full = _pruned_and_full(curve, hi)
    assert pruned == full


@pytest.mark.parametrize("branches", (
    [[{3: ONE}, {4: ONE}, {5: ONE}]],  # the monomial space curve <3, 4, 5>
    [[{2: ONE}, {4: ONE}]],  # a branch parametrized twice over
    [[{1: ONE}, {}], [{2: ONE}, {}]],  # (t, 0), (t^2, 0): rank 1 over C{x}, N = 3
))
def test_pruned_candidates_span_the_full_rows_on_special_curves(branches):
    curve = Curve(len(branches[0]), [Branch(b) for b in branches])
    hi = (9,) * len(branches)
    pruned, full = _pruned_and_full(curve, hi)
    assert pruned == full


def test_cusp_ranks_a_module_generating_set():
    # (t^2, t^3) is free over C{x} on 1, y: only x^a y^b with b < 2 is a row
    oracle = HilbertOracle(Curve(2, [Branch([{2: ONE}, {3: ONE}])]))
    assert oracle._module == (0, 2)
    cands, _ = oracle._candidates((40,))
    assert len(cands) == sum(1 for a, b in product(range(40), range(2)) if 2 * a + 3 * b < 40)
    assert oracle.hilbert((40,)) == 39  # the values 0, 2, 3, ..., 39 of <2, 3>


def _assert_keys_in_their_blocks(oracle, v):
    """_width is the bit length of max_jet << _shift, and every key of a
    row built on block k alone lies in [k << _width, (k + 1) << _width)."""
    width, (cands, _) = oracle._width, oracle._candidates(v)
    assert width == (oracle.max_jet << oracle._shift).bit_length()
    for k in range(oracle.nvars):
        only = tuple(x if i == k else 0 for i, x in enumerate(v))
        keys = [key for row in oracle._rows(cands, oracle._tables(only)) for key in row]
        assert keys and all(key >> width == k for key in keys), k


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(max_steps=4), st.data())
def test_divisorial_keys_stay_in_their_blocks(script, data):
    m = run_script(script)
    cap = data.draw(st.integers(2, 7))
    oracle = DivisorialOracle(m, max_jet=cap)
    s = m.ncomponents
    # a query below the cap, then one at it: rows truncated at the cap
    for top in (cap - 1, cap):
        v = tuple(data.draw(st.integers(1, top)) for _ in range(s - 1)) + (top,)
        assert oracle.hilbert(v) == DivisorialOracle(m).hilbert(v)
        _assert_keys_in_their_blocks(oracle, v)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(curves_with_zero_coordinates(), st.integers(2, 12))
def test_curve_keys_stay_in_their_blocks_at_the_jet_cap(curve, cap):
    # asked just below the cap, then at it: the rows of the line at the cap
    # reach order cap - 1 on every branch, and stay in their blocks
    oracle = HilbertOracle(curve, max_jet=cap)
    for top in (cap - 1, cap):
        v = (top,) * curve.nbranches
        assert oracle.hilbert(v) == HilbertOracle(curve).hilbert(v)
    _assert_keys_in_their_blocks(oracle, v)


def test_branch_terms_in_any_order():
    # the oracle truncates each product as it forms it, which needs every
    # map's keys ascending; a branch sorts its coordinates' terms
    terms = {7: ONE, 4: -ONE, 3: ONE}
    down, up = (Curve(2, [Branch([{2: ONE}, dict(sorted(terms.items(), reverse=r))])]) for r in (1, 0))
    assert list(down.branches[0].coords[1]) == [3, 4, 7]
    for v in ((6,), (9,), (14,)):
        # a cusp: the values below v[0] of the semigroup <2, 3>
        assert HilbertOracle(down).hilbert(v) == HilbertOracle(up).hilbert(v) == v[0] - 1, v


# -- leading keys, and rows built only where two of them meet ---------------


def assert_running_keys_exact(oracle, v):
    """Each candidate's running key on each block is the least key of its
    image there, built on that block alone, exactly when the block is
    live; and the leading keys are those of the full rows."""
    cands, keys = oracle._candidates(v)
    width, shift = oracle._width, oracle._shift
    for k in range(oracle.nvars):
        only = tuple(x if i == k else 0 for i, x in enumerate(v))
        for (alpha, acc), row in zip(cands, oracle._rows(cands, oracle._tables(only))):
            assert bool(row) == (acc[k] < v[k] << shift), (alpha, k)
            if row:
                assert min(row) == (k << width) + acc[k], (alpha, k)
    assert [min(row) for row in oracle._rows(cands, oracle._tables(v))] == keys


@st.composite
def curves_with_unsorted_terms(draw):
    """1-3 distinct branches in 2 or 3 coordinates, each coordinate zero or
    1-3 terms tau^a, a in 1..7, with coefficients that are not all 1,
    written with their exponents descending."""
    n = draw(st.integers(2, 3))
    terms = st.lists(
        st.tuples(st.integers(1, 7), st.sampled_from((1, -1, 3, Fraction(1, 2), Fraction(-2, 3)))),
        max_size=3,
        unique_by=lambda term: term[0],
    )
    rows = st.lists(terms, min_size=n, max_size=n).filter(any)
    branches = draw(st.lists(rows, min_size=1, max_size=3, unique_by=lambda cs: tuple(map(tuple, cs))))
    return Curve(n, [
        Branch([{a: Fraction(c) for a, c in sorted(cs, reverse=True)} for cs in coords])
        for coords in branches
    ])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(curves_with_zero_coordinates() | curves_with_unsorted_terms(), st.data())
def test_running_keys_are_exact_on_random_curves(curve, data):
    v = tuple(data.draw(st.integers(1, 9)) for _ in range(curve.nbranches))
    assert_running_keys_exact(HilbertOracle(curve), v)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(max_steps=4), st.data())
def test_running_keys_are_exact_on_random_scripts(script, data):
    # packed keys (ue << _shift) + ve: a leading term's ve carries into
    # the sum, so an exact running key tells (ue, ve) apart
    oracle = DivisorialOracle(run_script(script))
    v = tuple(data.draw(st.integers(1, 7)) for _ in range(oracle.nvars))
    assert_running_keys_exact(oracle, v)


def test_running_keys_are_exact_on_packed_keys():
    # E1, E2 through a free point, E3 at their corner: least keys u^ue v^ve
    # with ve > 0 on E1 and E3
    oracle = DivisorialOracle(run_script(HSCRIPT00))
    assert [[lead % (1 << oracle._shift) for lead in pair] for pair in oracle.leads] == [[0, 1], [0, 0], [1, 1]]
    for v in ((9, 2, 3), (4, 4, 4), (1, 1, 7)):
        assert_running_keys_exact(oracle, v)


def assert_new_line_matches_eager(oracle):
    """The newest kept line has the leading keys of the eager elimination of
    every row of `_candidates` at it.  A built pivot leads by its key among
    its live entries; an unbuilt one, (alpha, acc), at its first live block,
    as its row at that line does.  Returns the number of unbuilt pivots."""
    line, basis = oracle._lines[-1]
    cands, _ = oracle._candidates(line)
    assert sorted(basis) == sorted(linalg.rank(oracle._rows(cands, oracle._tables(line)))), line
    width = oracle._width
    lims = [(k << width) + (x << oracle._shift) for k, x in enumerate(line)]
    unbuilt = [piv for piv in basis.values() if type(piv) is not dict]
    for key, piv in basis.items():
        if type(piv) is dict:
            assert min(k for k in piv if k < lims[k >> width]) == key
        else:
            alpha, acc = piv
            k = next(k for k, lim in enumerate(lims) if (k << width) + acc[k] < lim)
            assert (k << width) + acc[k] == key == min(oracle._rows([piv], oracle._tables(line))[0])
    return len(unbuilt)


def ask_box_in_order(oracle, points):
    """Ask the points in order, checking each line the oracle ranks or
    restricts (`assert_new_line_matches_eager`); returns the unbuilt
    pivots counted on fresh lines and on restricted lines."""
    unbuilt = [0, 0]
    for v in points:
        newest = oracle._lines[-1] if oracle._lines else None
        oracle.hilbert(v)
        if oracle._lines[-1] is not newest:
            unbuilt[len(oracle._lines) > 1] += assert_new_line_matches_eager(oracle)
    return unbuilt


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(curves_with_zero_coordinates(), st.data())
def test_lazy_lines_match_eager_elimination_on_random_curves(curve, data):
    r = curve.nbranches
    hi = tuple(data.draw(st.integers(0, {1: 8, 2: 4, 3: 2}[r])) for _ in range(r))
    ask_box_in_order(HilbertOracle(curve), data.draw(st.permutations(list(box((0,) * r, hi)))))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(blowup_scripts(max_steps=4), st.data())
def test_lazy_lines_match_eager_elimination_on_random_scripts(script, data):
    oracle = DivisorialOracle(run_script(script))
    s = oracle.nvars
    hi = tuple(data.draw(st.integers(0, {2: 4, 3: 3, 4: 2}[s])) for _ in range(s))
    ask_box_in_order(oracle, data.draw(st.permutations(list(box((0,) * s, hi)))))


def test_fresh_and_restricted_lines_hold_unbuilt_pivots():
    # a scrambled box: the horizon rises, so lines are ranked afresh, and
    # the lines below them are restricted, each keeping unbuilt pivots
    points = sorted(box((0, 0, 0), (5, 4, 4)), key=lambda v: (v[0] * 7 + v[1] * 3 + v[2] * 5) % 13)
    fresh, restricted = ask_box_in_order(DivisorialOracle(run_script(HSCRIPT00)), points)
    assert fresh > 0 and restricted > 0


@pytest.mark.parametrize("make", (
    lambda: HilbertOracle(Curve(2, [Branch([{2: ONE}, {3: ONE}]), Branch([{1: ONE}, {}])])),
    lambda: DivisorialOracle(run_script(HSCRIPT00)),
))
def test_an_oracle_is_freed_with_its_last_reference(make):
    # its kept line tables and bases hold no reference back to it, so it
    # goes at once, not at the next run of the cycle collector
    oracle = make()
    series(oracle, "P", (3,) * oracle.nvars)
    assert oracle._build is not None and len(oracle._lines) > 1
    ref = weakref.ref(oracle)
    del oracle
    assert ref() is None


HSCRIPT00 = {"steps": [{"center": "origin"}, {"center": {"on": 1, "param": "-4"}}, {"center": {"corner": [1, 2]}}]}


@pytest.mark.parametrize("script, at, cands, built, h", (
    # led by E1: every candidate leads alone, and no row is built
    (HSCRIPT00, (47, 4, 8), 1128, 0, 1128),
    (
        {"steps": [{"center": "origin"}, {"center": {"on": 1, "param": "9/2"}}, {"center": {"on": 1, "param": "6"}}]},
        (25, 10, 26), 351, 26, 326,
    ),
))
def test_cold_query_builds_only_rows_that_share_a_key(monkeypatch, tmp_path, capsys, script, at, cands, built, h):
    # the rows built (in one pass, or later for a lone pivot that a reduced
    # row lands on) are counted at the builder, from the CLI
    rows, count = JetRankOracle._rows, [0]

    def counted_rows(cands, blocks):
        count[0] += len(cands)
        return rows(cands, blocks)

    monkeypatch.setattr(JetRankOracle, "_rows", staticmethod(counted_rows))
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    argv = ["hilbert", "--script", str(path), "--at", ",".join(map(str, at)), "--max-jet", "128"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"value": h}
    assert len(DivisorialOracle(run_script(script), max_jet=128)._candidates(at)[0]) == cands
    assert count[0] == built < cands


def test_kept_compositions_match_fresh_oracles(curve_c, transverse_lines):
    # one oracle asked in a scrambled order, so that it ranks lines above
    # the kept ones afresh and restricts kept bases to the lines below them
    for curve, hi in ((curve_c, (9, 9)), (transverse_lines, (6, 6))):
        kept = HilbertOracle(curve)
        points = sorted(box((0, 0), hi), key=lambda v: (v[0] * 7 + v[1] * 3) % 11)
        for v in points:
            assert kept.hilbert(v) == HilbertOracle(curve).hilbert(v), v


def count_eliminations(monkeypatch):
    """{"rank": fresh eliminations, "restrict": lines derived from a kept basis}."""
    calls = {"rank": 0, "restrict": 0}
    for name in calls:
        def counted(*args, name=name, f=getattr(linalg, name)):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(linalg, name, counted)
    return calls


@pytest.mark.parametrize(
    "fixture, hi",
    (("curve_c", (5, 5)), ("curve_cprime", (4, 4)), ("transverse_lines", (4, 4)), ("cusp_curve", (9,))),
)
def test_top_down_sweep_ranks_each_box_once(request, monkeypatch, fixture, hi):
    # P on [0, hi] reads h on [0, hi + 1]: one elimination at the top line of
    # that box, every other line restricted from a kept basis, and every
    # point the same as a fresh oracle's single query
    curve = request.getfixturevalue(fixture)
    calls = count_eliminations(monkeypatch)
    swept = HilbertOracle(curve)
    series(swept, "P", hi)
    up = tuple(x + 1 for x in hi)
    assert calls == {"rank": 1, "restrict": len(list(box((0,) * (len(hi) - 1), up[:-1]))) - 1}
    monkeypatch.undo()
    ranks = by_point(swept._hs)
    for v in box((0,) * len(hi), up):
        assert ranks[v] == HilbertOracle(curve).hilbert(v), v


@pytest.mark.parametrize("fixture, hi", (("smooth_branch", (5,)), ("transverse_lines", (4, 4))))
def test_series_at_the_jet_cap(request, fixture, hi):
    # H reads h on [0, hi] only; the others need h at hi + 1, past the cap
    curve = request.getfixturevalue(fixture)
    cap = max(hi)
    h = series(HilbertOracle(curve, max_jet=cap), "H", hi)
    assert h == series(HilbertOracle(curve), "H", hi)
    assert hi in h.coeffs
    for kind in ("P", "Pg", "Phat", "L", "Lg"):
        with pytest.raises(PrecisionExhausted, match="jet order %d needed, cap is %d" % (cap + 1, cap)):
            series(HilbertOracle(curve, max_jet=cap), kind, hi)


@pytest.mark.parametrize("fixture", ("transverse_lines", "curve_c"))
@pytest.mark.parametrize("kind, lines", (("P", 6), ("Pg", 6), ("Phat", 6), ("L", 6), ("Lg", 6), ("H", 5)))
def test_one_elimination_per_series(request, monkeypatch, fixture, kind, lines):
    # bound (4, 4): the lines of [0, (5, 5)], or of [0, (4, 4)] for H; L and
    # Lg also ask the line -1, which clamps to the line 0
    curve = request.getfixturevalue(fixture)
    calls = count_eliminations(monkeypatch)
    series(HilbertOracle(curve), kind, (4, 4))
    assert calls == {"rank": 1, "restrict": lines - 1}


def test_large_first_and_small_first_queries_agree(curve_c, transverse_lines):
    for curve, hi in ((curve_c, (6, 6)), (transverse_lines, (5, 5))):
        points = list(box((0, 0), hi))
        rising, falling = HilbertOracle(curve), HilbertOracle(curve)
        small_first = [rising.hilbert(v) for v in points]
        large_first = [falling.hilbert(v) for v in reversed(points)]
        assert small_first == large_first[::-1]


def test_query_past_the_cap_leaves_the_horizon(curve_c):
    oracle = HilbertOracle(curve_c, max_jet=9)
    assert oracle.hilbert((2, 5)) == HilbertOracle(curve_c).hilbert((2, 5))
    with pytest.raises(PrecisionExhausted, match="jet order 10 needed, cap is 9"):
        oracle.hilbert((1, 10))
    assert oracle._horizon == 5
    # the next line is ranked up to the old horizon only
    assert oracle.hilbert((3, 1)) == HilbertOracle(curve_c).hilbert((3, 1))
    ranks = by_point(oracle._hs)
    assert (3, 5) in ranks and (3, 6) not in ranks


def test_poincare_coeff_lines(transverse_lines):
    p = series(HilbertOracle(transverse_lines), "P", (1, 1))
    assert p.coeff((0, 0)) == 1
    assert p.coeff((1, 1)) == 0


def test_poincare_coeff_smooth(smooth_branch):
    p = series(HilbertOracle(smooth_branch), "P", (5,))
    for v in range(6):
        assert p.coeff((v,)) == 1


def test_generalized_coeff_examples(smooth_branch, transverse_lines, curve_c):
    smooth = series(HilbertOracle(smooth_branch), "Pg", (4,))
    for n in range(5):
        assert smooth.coeff((n,)) == Q ** n
    lines = series(HilbertOracle(transverse_lines), "Pg", (1, 1))
    assert lines.coeff((1, 1)) == Q - Q ** 2
    gap = series(HilbertOracle(curve_c), "Pg", (1, 0))
    assert gap.coeff((1, 0)) == LaurentPoly.zero()


def test_semigroup_coeff_examples(smooth_branch, transverse_lines, curve_c):
    smooth = series(HilbertOracle(smooth_branch), "Phat", (4,))
    for n in range(5):
        assert smooth.coeff((n,)) == UNIT
    lines = series(HilbertOracle(transverse_lines), "Phat", (0, 0))
    assert lines.coeff((0, 0)) == UNIT
    assert series(HilbertOracle(curve_c), "Phat", (1, 0)).coeff((1, 0)) == LaurentPoly.zero()


def test_series_p_for_both_space_curves(curve_c, curve_cprime):
    for curve in (curve_c, curve_cprime):
        p = series(HilbertOracle(curve), "P", (6, 6))
        assert p.coeffs == {(0, 0): UNIT, (3, 3): UNIT}


def test_series_pg_smooth(smooth_branch):
    pg = series(HilbertOracle(smooth_branch), "Pg", (5,))
    assert pg.coeffs == {(n,): Q ** n for n in range(6)}


def test_series_h(smooth_branch):
    h = series(HilbertOracle(smooth_branch), "H", (5,))
    assert h.coeffs == {(n,): LaurentPoly.const(n) for n in range(1, 6)}


def test_series_l_window(smooth_branch):
    ell = series(HilbertOracle(smooth_branch), "L", (4,))
    assert ell.lo == (-1,) and not ell.floored
    assert ell.coeffs == {(n,): UNIT for n in range(5)}  # nothing at -1


def test_semigroup_members(curve_c, curve_cprime, smooth_branch):
    got = semigroup_members(HilbertOracle(curve_c), (6, 6))
    expected = (
        {(0, 0), (3, 3)}
        | {(2, k) for k in range(2, 7)}
        | {(l, 2) for l in range(3, 7)}
        | {(r, s) for r in range(4, 7) for s in range(4, 7)}
    )
    assert got == expected
    gotp = semigroup_members(HilbertOracle(curve_cprime), (6, 6))
    assert gotp == {(0, 0), (3, 3)} | {
        (r, s) for r in range(4, 7) for s in range(4, 7)
    }
    assert semigroup_members(HilbertOracle(smooth_branch), (5,)) == {
        (n,) for n in range(6)
    }


def test_subsystem_full_equals_p(curve_c):
    full = subsystem_series(curve_c, (0, 1), "P", (6, 6))
    assert full == series(HilbertOracle(curve_c), "P", (6, 6))


def test_subsystem_single_branch(curve_c, transverse_lines):
    pk = subsystem_series(curve_c, (0,), "P", (6,))
    assert pk.coeffs == {(n,): UNIT for n in [0, 2, 3, 4, 5, 6]}
    pl = subsystem_series(transverse_lines, (0,), "P", (5,))
    assert pl.coeffs == {(n,): UNIT for n in range(6)}


def test_remark_identity(smooth_branch, transverse_lines, curve_c):
    ok, mismatch = remark_identity_check(smooth_branch, (5,))
    assert ok, mismatch
    ok, mismatch = remark_identity_check(transverse_lines, (4, 4))
    assert ok, mismatch
    ok, mismatch = remark_identity_check(curve_c, (6, 6))
    assert ok, mismatch


def test_curve_json_round_trip(curve_c):
    doc = curve_c.to_json()
    back = Curve.from_json(doc)
    assert back.to_json() == doc
    v1, _ = valuation(back, x(0, 5))
    assert v1 == (2, 2)
