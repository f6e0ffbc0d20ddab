import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sivkit import IntPoly
from sivkit.polynomials import _div_coeffs, _mul_coeffs

from conftest import double_loop_product

coeff_lists = st.lists(st.integers(-9, 9), max_size=7)


def test_normalization_strips_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly().degree == -1
    assert IntPoly((0, 0, 1)).is_monic and not IntPoly((0, 2)).is_monic


def test_str_matches_display_format():
    assert str(IntPoly((0, 9, -6, 1))) == "x^3-6x^2+9x"
    assert str(IntPoly((0, -2, 1))) == "x^2-2x"
    assert str(IntPoly((3, 0, -1))) == "-x^2+3"
    assert str(IntPoly(())) == "0"
    assert str(IntPoly((5,))) == "5"
    assert str(IntPoly((0, 1))) == "x"


def stripped(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def added(a, b):
    n = max(len(a), len(b))
    return [x + y for x, y in zip([*a, *[0] * (n - len(a))], [*b, *[0] * (n - len(b))])]


@given(coeff_lists, coeff_lists)
def test_multiplication_commutes_and_distributes(a, b):
    assert _mul_coeffs(a, b) == _mul_coeffs(b, a)
    assert _mul_coeffs(added(a, b), a) == added(_mul_coeffs(a, a), _mul_coeffs(b, a))


@given(coeff_lists, coeff_lists)
def test_product_divides_back(a, b):
    b = stripped(b)
    if b:
        assert _div_coeffs(_mul_coeffs(a, b), b) == a


class TestCoefficientLists:
    """The list-level product and exact division, the one polynomial algebra."""

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
        assert IntPoly(_mul_coeffs([1, 2], [0])) == IntPoly(())
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
            assert IntPoly(_mul_coeffs(a, b)).coeffs == tuple(stripped(double_loop_product(a, b)))
            den = stripped(b)
            if not den:
                continue
            num = double_loop_product(a, den)
            assert _div_coeffs(num, den) == a
            if len(den) > 1:
                # a nonzero constant remainder
                bumped = [(num[0] if num else 0) + rng.choice((-1, 1)), *num[1:]]
                with pytest.raises(ValueError):
                    _div_coeffs(bumped, den)
