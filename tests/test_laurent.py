import random

import pytest

from motive_series.errors import InvalidInput
from motive_series.laurent import (
    LaurentPoly,
    projective_class,
    qgeom,
    sym_power_class,
)

L = LaurentPoly.l_power(1)
ONE = LaurentPoly.one()


def rand_poly(rng, span=4, size=4):
    return LaurentPoly(
        {rng.randint(-span, span): rng.randint(-5, 5) for _ in range(size)}
    )


def test_eval_one_examples():
    assert (ONE + L + L * L).eval_one() == 3  # Euler characteristic of P^2
    assert LaurentPoly.zero().eval_one() == 0
    # q - q^2 has coefficient sum 1 - 1
    assert (LaurentPoly.q_power(1) - LaurentPoly.q_power(2)).eval_one() == 0


def test_no_zero_coefficients_stored():
    p = LaurentPoly({0: 1, 1: 0, -2: 3})
    assert p.terms == {0: 1, -2: 3}
    assert not (p - p)


def test_ring_axioms_random():
    rng = random.Random(20240811)
    for _ in range(120):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_eval_one_is_ring_map():
    rng = random.Random(7)
    for _ in range(60):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).eval_one() == a.eval_one() * b.eval_one()
        assert (a + b).eval_one() == a.eval_one() + b.eval_one()


def test_power():
    p = ONE + L
    assert p ** 3 == ONE + 3 * L + 3 * L ** 2 + L ** 3
    assert p ** 0 == ONE
    with pytest.raises(InvalidInput):
        p ** -1


def test_qgeom_examples():
    assert qgeom(0, 1) == ONE
    assert qgeom(2, 3) == LaurentPoly({-2: 1, -3: 1, -4: 1})  # q^2+q^3+q^4
    assert qgeom(5, 0) == LaurentPoly.zero()


def test_qgeom_composition():
    for a in range(11):
        for b in range(11):
            for c in range(11):
                assert qgeom(a, b) + qgeom(a + b, c) == qgeom(a, b + c)


def test_projective_class_examples():
    assert projective_class(0) == LaurentPoly.zero()
    assert projective_class(1) == ONE
    assert projective_class(3) == ONE + L + L ** 2


def test_sym_power_examples():
    assert sym_power_class(2, 2) == ONE + L + L ** 2  # Sym^2 of the line is P^2
    for n in range(6):
        assert sym_power_class(1, n) == L ** n
    assert sym_power_class(0, 3) == L ** 3 - L ** 2
    with pytest.raises(InvalidInput):
        sym_power_class(3, 1)


def test_sym_power_generating_identity():
    # sum_n class(Sym^n) t^n times (1-t)^(chi-1) (1 - L t) telescopes to 1
    from motive_series.mseries import MSeries, expand_rational, mseries_mul

    N = 8
    for chi in range(-2, 3):
        f = MSeries(
            1, (0,), (N,), {(n,): sym_power_class(chi, n) for n in range(N + 1)}
        )
        one_minus_t = MSeries.polynomial(1, {(0,): ONE, (1,): -ONE})
        one_minus_lt = MSeries.polynomial(1, {(0,): ONE, (1,): -L})
        prod = mseries_mul(f, one_minus_lt)
        if chi >= 1:
            for _ in range(chi - 1):
                prod = mseries_mul(prod, one_minus_t)
        else:
            # negative power of (1-t): truncated geometric expansion
            prod = expand_rational(prod, [(ONE, (1,))] * (1 - chi), (N,))
        assert prod.coeff((0,)) == ONE
        for n in range(1, N + 1):
            assert prod.coeff((n,)) == LaurentPoly.zero()


def test_format():
    p = LaurentPoly({0: 1, -1: -1})
    assert p.format("q") == "1 - q"
    assert (L ** 2).format() == "L^2"
    assert LaurentPoly.zero().format() == "0"
    assert LaurentPoly({-2: 1, -3: -1}).format("q") == "q^2 - q^3"


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_poly(rng)
        assert LaurentPoly.from_json(p.to_json()) == p
