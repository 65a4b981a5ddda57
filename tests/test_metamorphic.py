"""Metamorphic laws of the curve oracle, and route A against route B on
random plane curves.

Each law reads h along lines in a different coordinate order: permuting
branches moves the line direction to another branch, jumps step every
coordinate, Pg and P sweep the same box for two series kinds, and the
Hilbert series is rebuilt from the P series of every branch subsystem.
Scaling a coordinate is an automorphism of the ambient ring, so it keeps
every valuation; it changes the denominators the curve oracle clears.
The curves are 1-3 distinct branches (tau^a, tau^b + c tau^(b+1)) with
gcd(a, b) = 1, and the bounds are small.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motive_series import Branch, Curve
from motive_series.blowup import auto_resolve
from motive_series.formulas import curve_series
from motive_series.jets import HilbertOracle, remark_identity_check, series
from motive_series.mseries import box, first_mismatch, unit_vec, vec_add, zero_vec
from test_formulas import plane_branches

SMALL = settings(
    max_examples=20,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TOP = {1: 8, 2: 5, 3: 3}  # bound per coordinate, by number of branches

curves = st.lists(plane_branches(), min_size=1, max_size=3, unique=True).map(
    lambda branches: Curve(2, branches)
)


@SMALL
@given(curves, st.data())
def test_permuting_branches_permutes_the_variables(curve, data):
    r = curve.nbranches
    perm = data.draw(st.permutations(range(r)))
    moved = Curve(2, [curve.branches[k] for k in perm])
    hi = tuple(data.draw(st.integers(1, TOP[r])) for _ in range(r))
    moved_hi = tuple(hi[k] for k in perm)
    for kind in ("P", "Pg"):
        got = series(HilbertOracle(curve), kind, hi)
        want = series(HilbertOracle(moved), kind, moved_hi)
        assert {tuple(v[k] for k in perm): c for v, c in got.coeffs.items()} == want.coeffs, kind


@SMALL
@given(curves, st.data())
def test_scaling_a_coordinate_keeps_h(curve, data):
    r = curve.nbranches
    j = data.draw(st.integers(0, curve.ambient_dim - 1))
    num = data.draw(st.integers(-20, 20).filter(bool))
    q = Fraction(num, data.draw(st.sampled_from((3, 7, 9))))
    scaled = Curve(
        curve.ambient_dim,
        [
            Branch([{t: q * c for t, c in x.items()} if i == j else x for i, x in enumerate(b.coords)])
            for b in curve.branches
        ],
    )
    hi = tuple(data.draw(st.integers(1, TOP[r])) for _ in range(r))
    oracle, moved = HilbertOracle(curve), HilbertOracle(scaled)
    for v in box(zero_vec(r), hi, down=True):
        assert moved.hilbert(v) == oracle.hilbert(v), v


@SMALL
@given(curves, st.data())
def test_curve_jumps_are_zero_or_one(curve, data):
    r = curve.nbranches
    hi = tuple(data.draw(st.integers(1, TOP[r])) for _ in range(r))
    oracle = HilbertOracle(curve)
    for v in box(zero_vec(r), hi, down=True):
        h = oracle.hilbert(v)
        for k in range(r):
            assert oracle.hilbert(vec_add(v, unit_vec(r, k))) - h in (0, 1), (v, k)


@SMALL
@given(curves, st.data())
def test_pg_at_one_is_p(curve, data):
    r = curve.nbranches
    hi = tuple(data.draw(st.integers(1, TOP[r])) for _ in range(r))
    oracle = HilbertOracle(curve)
    pg, p = series(oracle, "Pg", hi), series(oracle, "P", hi)
    for v in box(zero_vec(r), hi):
        assert pg.coeff(v).eval_one() == p.coeff(v).eval_one(), v


@SMALL
@given(curves, st.data())
def test_resolution_formula_matches_oracle_on_random_plane_curves(curve, data):
    r = curve.nbranches
    hi = tuple(data.draw(st.integers(1, TOP[r])) for _ in range(r))
    _, g, _ = auto_resolve(curve)
    formula = curve_series(g, hi)
    oracle = series(HilbertOracle(curve), "Pg", hi)
    assert first_mismatch(formula, oracle, zero_vec(r), hi) is None


@SMALL
@given(curves, st.data())
def test_hilbert_series_is_rebuilt_from_subsystem_poincare_series(curve, data):
    # one H sweep and one P sweep per subset of branches, each on a fresh oracle
    r = curve.nbranches
    hi = tuple(data.draw(st.integers(1, TOP[r])) for _ in range(r))
    assert remark_identity_check(curve, hi) == (True, None)
