"""Exact gamma values at half integers and PiRational arithmetic."""

import math
from fractions import Fraction

import pytest

from ballharmonics.exactmath import (
    PiRational,
    as_fraction,
    gamma_half,
    log_fraction,
)


# Gamma(m) = (m-1)!; Gamma(m + 1/2) = (2m)! / (4^m m!) sqrt(pi).  The second
# component counts sqrt(pi) factors (0 or 1).
@pytest.mark.parametrize(
    "twice,expected",
    [
        (1, (Fraction(1), 1)),  # Gamma(1/2) = sqrt(pi)
        (2, (Fraction(1), 0)),  # Gamma(1) = 1
        (3, (Fraction(1, 2), 1)),  # Gamma(3/2) = sqrt(pi)/2
        (4, (Fraction(1), 0)),  # Gamma(2) = 1
        (5, (Fraction(3, 4), 1)),  # Gamma(5/2) = 3 sqrt(pi)/4
        (6, (Fraction(2), 0)),  # Gamma(3) = 2
        (7, (Fraction(15, 8), 1)),  # Gamma(7/2) = 15 sqrt(pi)/8
        (8, (Fraction(6), 0)),
        (11, (Fraction(945, 32), 1)),  # Gamma(11/2) = 945 sqrt(pi)/32
    ],
)
def test_gamma_half_small_values(twice, expected):
    assert gamma_half(twice) == expected


@pytest.mark.parametrize("twice", range(1, 120))
def test_gamma_half_matches_lgamma(twice):
    coeff, half = gamma_half(twice)
    log_exact = log_fraction(coeff) + half * 0.5 * math.log(math.pi)
    assert log_exact == pytest.approx(math.lgamma(twice / 2), rel=1e-13)


@pytest.mark.parametrize("twice", range(3, 80))
def test_gamma_half_recursion(twice):
    # Gamma(z + 1) = z Gamma(z) with z = (twice - 2) / 2
    coeff, half = gamma_half(twice)
    prev_coeff, prev_half = gamma_half(twice - 2)
    z = Fraction(twice - 2, 2)
    assert coeff == z * prev_coeff
    assert half == prev_half


def test_gamma_half_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_half(0)
    with pytest.raises(ValueError):
        gamma_half(-3)


def test_as_fraction_exactness():
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert as_fraction(3) == Fraction(3)
    # floats convert via their exact binary value
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction(0.1) == Fraction(0.1)
    assert as_fraction(0.1) != Fraction(1, 10)


class TestPiRational:
    def test_float_value(self):
        x = PiRational(Fraction(4, 3), 1)  # (4/3) pi, the 3-ball volume
        assert float(x) == pytest.approx(4 * math.pi / 3, rel=1e-15)
        assert PiRational(Fraction(1, 12), 2).ratio(PiRational(Fraction(1, 6), 2)) == Fraction(1, 2)

    def test_add_requires_matching_power(self):
        a = PiRational(Fraction(1), 1)
        b = PiRational(Fraction(2), 2)
        with pytest.raises(ValueError):
            a + b

    def test_zero_is_absorbing_for_power(self):
        z = PiRational(Fraction(0), 3)
        a = PiRational(Fraction(5), 1)
        assert (z + a).coeff == Fraction(5)
        assert (a - a).is_zero

    def test_scaled_and_sign(self):
        a = PiRational(Fraction(-3, 2), 2)
        assert a.sign() == -1
        assert a.scaled(Fraction(-2)).coeff == Fraction(3)
        assert a.scaled(0).is_zero

    def test_log_abs(self):
        a = PiRational(Fraction(7, 5), 3)
        assert a.log_abs() == pytest.approx(math.log(7 / 5) + 3 * math.log(math.pi))

    def test_huge_coefficient_does_not_overflow(self):
        big = PiRational(Fraction(10**400), 0)
        assert math.isinf(float(big))
        assert big.log_abs() == pytest.approx(400 * math.log(10), rel=1e-12)
        tiny = PiRational(Fraction(1, 10**400), 0)
        assert float(tiny) == 0.0
