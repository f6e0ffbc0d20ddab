import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sivkit import IntPoly
from sivkit.polynomials import _div_coeffs, _mul_coeffs

coeff_lists = st.lists(st.integers(-9, 9), max_size=7)


def test_normalization_strips_trailing_zeros():
    assert IntPoly.of(1, 2, 0, 0).coeffs == (1, 2)
    assert IntPoly.of(0, 0).coeffs == ()
    assert IntPoly.zero().degree == -1


def test_basic_arithmetic():
    x = IntPoly.x()
    p = (x - 1) * (x - 3)
    assert p == IntPoly.of(3, -4, 1)
    assert p + 1 == IntPoly.of(4, -4, 1)
    assert 2 * p - p == p
    assert (-p) + p == IntPoly.zero()
    assert p(3) == 0 and p(0) == 3


def test_from_roots_and_evaluation():
    p = IntPoly.from_roots([0, 3, 3])
    assert p == IntPoly.of(0, 9, -6, 1)
    assert all(p(r) == 0 for r in (0, 3))


def test_shifted_is_composition():
    p = IntPoly.of(1, -2, 0, 4)
    q = p.shifted(3)
    assert all(q(t) == p(t + 3) for t in range(-5, 6))
    assert p.shifted(0) == p


def test_div_exact_roundtrip():
    a = IntPoly.of(2, 0, -1, 3)
    b = IntPoly.of(-1, 1)
    assert (a * b).div_exact(b) == a
    with pytest.raises(ValueError):
        (a * b + 1).div_exact(b)
    with pytest.raises(ValueError):
        IntPoly.of(1, 1).div_exact(IntPoly.of(0, 2))  # 2x does not divide x+1


def test_str_matches_display_format():
    assert str(IntPoly.of(0, 9, -6, 1)) == "x^3-6x^2+9x"
    assert str(IntPoly.of(0, -2, 1)) == "x^2-2x"
    assert str(IntPoly.of(3, 0, -1)) == "-x^2+3"
    assert str(IntPoly.zero()) == "0"
    assert str(IntPoly.of(5)) == "5"
    assert str(IntPoly.x()) == "x"


@given(coeff_lists, coeff_lists)
def test_multiplication_commutes_and_distributes(a, b):
    p, q = IntPoly(tuple(a)), IntPoly(tuple(b))
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p


@given(coeff_lists, coeff_lists)
def test_product_divides_back(a, b):
    p, q = IntPoly(tuple(a)), IntPoly(tuple(b))
    if not q.is_zero:
        assert (p * q).div_exact(q) == p


@given(coeff_lists, st.integers(-4, 4), st.integers(-6, 6))
def test_shift_evaluation_identity(a, c, t):
    p = IntPoly(tuple(a))
    assert p.shifted(c)(t) == p(t + c)


def double_loop_product(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def stripped(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


class TestCoefficientLists:
    """The list-level product and exact division behind IntPoly's operators."""

    def test_zero_and_constants(self):
        assert _mul_coeffs([], [1, 2]) == _mul_coeffs([3], []) == []
        assert _mul_coeffs([3], [4]) == [12]
        assert _mul_coeffs([3], [1, -2, 5]) == [3, -6, 15]
        assert _div_coeffs([], [1, 1]) == []
        assert _div_coeffs([6, -4, 2], [2]) == [3, -2, 1]
        with pytest.raises(ValueError):
            _div_coeffs([5, 4], [2])

    def test_trailing_zeros_are_stripped_once(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0, 0]).coeffs == ()
        assert IntPoly([0, 0, 7, 0]).coeffs == (0, 0, 7)
        assert IntPoly.of(1, 2) * 0 == IntPoly.zero()
        # a product whose operands carry trailing zeros carries them too
        assert _mul_coeffs([1, 0], [2, 3, 0]) == [2, 3, 0, 0]

    def test_non_monic_divisors(self):
        assert _div_coeffs(double_loop_product([1, 2, 3], [4, -2, 3]), [4, -2, 3]) == [1, 2, 3]
        assert _div_coeffs([0, 6], [0, 3]) == [2]
        with pytest.raises(ValueError):
            _div_coeffs([1, 1], [0, 2])  # 2x does not divide x + 1

    def test_inexact_division_raises(self):
        with pytest.raises(ValueError):
            _div_coeffs([1, 2], [1, 1, 1])  # lower degree than the divisor
        with pytest.raises(ValueError):
            _div_coeffs([1, 0, 1], [1, 1])  # remainder 2
        with pytest.raises(ValueError):
            _div_coeffs([2, 3], [1, 2])  # top coefficient not divisible

    def test_against_a_double_loop(self):
        rng = random.Random(20261019)
        for _ in range(400):
            a = [rng.randint(-30, 30) for _ in range(rng.randint(0, 9))]
            b = [rng.randint(-30, 30) for _ in range(rng.randint(0, 5))]
            assert _mul_coeffs(a, b) == double_loop_product(a, b)
            assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(stripped(double_loop_product(a, b)))
            den = stripped(b)
            if not den:
                continue
            num = double_loop_product(a, den)
            assert _div_coeffs(num, den) == a
            assert IntPoly(num).div_exact(IntPoly(den)) == IntPoly(a)
            if len(den) > 1:
                # a nonzero constant remainder
                bumped = [(num[0] if num else 0) + rng.choice((-1, 1)), *num[1:]]
                with pytest.raises(ValueError):
                    _div_coeffs(bumped, den)
                with pytest.raises(ValueError):
                    IntPoly(bumped).div_exact(IntPoly(den))
