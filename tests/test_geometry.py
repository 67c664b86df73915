"""Ball volumes, sphere areas and boundary-shell formulas in log space."""

import math
from fractions import Fraction

import mpmath
import pytest

from ballharmonics.exactmath import PiRational
from ballharmonics.geometry import (
    shell_volume_fraction,
    shell_width_for_mass,
    sphere_area,
    unit_ball_volume,
    volume_argmax,
)
from ballharmonics.integration import integrate_poly_ball, integrate_poly_sphere
from ballharmonics.polynomials import MultiPoly

mpmath.mp.dps = 40


def exact_volume(n):
    """V_n as the exact ball integral of the constant 1."""
    return integrate_poly_ball(MultiPoly.constant(n, 1)).exact


def exact_area(n):
    """|S^(n-1)| as the exact sphere integral of the constant 1."""
    return integrate_poly_sphere(MultiPoly.constant(n, 1)).exact


# V_1 = 2, V_2 = pi, V_3 = 4 pi / 3, V_4 = pi^2 / 2, V_5 = 8 pi^2 / 15
SMALL_VOLUMES = [
    (1, PiRational(Fraction(2), 0)),
    (2, PiRational(Fraction(1), 1)),
    (3, PiRational(Fraction(4, 3), 1)),
    (4, PiRational(Fraction(1, 2), 2)),
    (5, PiRational(Fraction(8, 15), 2)),
    (6, PiRational(Fraction(1, 6), 3)),
]


# the ids keep the names these cases had when the table started at n = 0
@pytest.mark.parametrize(
    "n,expected", SMALL_VOLUMES, ids=[f"{n}-expected{n}" for n, _ in SMALL_VOLUMES]
)
def test_exact_volumes_small(n, expected):
    assert exact_volume(n) == expected


@pytest.mark.parametrize("n", range(3, 80))
def test_exact_volume_recursion(n):
    # V_n = V_{n-2} * 2 pi / n
    vn = exact_volume(n)
    prev = exact_volume(n - 2)
    assert vn.power == prev.power + 1
    assert vn.coeff == prev.coeff * Fraction(2, n)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 100, 250, 500])
def test_log_volume_against_mpmath(n):
    # independent oracle: log V_n = (n/2) log pi - log Gamma(n/2 + 1)
    expected = mpmath.mp.mpf(n) / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(
        mpmath.mp.mpf(n) / 2 + 1
    )
    assert unit_ball_volume(n).log_volume == pytest.approx(float(expected), rel=1e-13)


def test_zero_dimensional_ball_has_volume_one():
    # V_0 = pi^0 / Gamma(1) = 1, the degenerate value the docstring promises
    v0 = unit_ball_volume(0)
    assert (v0.log_volume, v0.volume) == (0.0, 1.0)


@pytest.mark.parametrize("n", range(1, 40))
def test_float_volume_matches_exact(n):
    assert unit_ball_volume(n).volume == pytest.approx(
        float(exact_volume(n)), rel=1e-13
    )


@pytest.mark.parametrize("n", [1, 2, 3, 7, 30])
def test_sphere_area_is_volume_derivative(n):
    # |S^(n-1)| = d/dr (V_n r^n) at r = 1 = n V_n, its log formed as log n + log V_n
    log_volume = unit_ball_volume(n).log_volume
    assert sphere_area(n).log_area == math.log(n) + log_volume
    assert sphere_area(n).area == pytest.approx(n * unit_ball_volume(n).volume, rel=1e-12)


def test_sphere_area_exact_small():
    assert exact_area(2) == PiRational(Fraction(2), 1)  # circumference 2 pi
    assert exact_area(3) == PiRational(Fraction(4), 1)  # 4 pi
    assert exact_area(1) == PiRational(Fraction(2), 0)  # two endpoints


def test_volume_argmax_is_five():
    assert volume_argmax(10) == 5
    assert volume_argmax(200) == 5
    v = [unit_ball_volume(n).volume for n in range(1, 9)]
    assert max(range(len(v)), key=v.__getitem__) == 4  # zero-based position of n=5


class TestShell:
    def test_fraction_formula(self):
        # 1 - r^n, computed stably
        assert shell_volume_fraction(2, 0.5) == pytest.approx(0.75)
        assert shell_volume_fraction(10, 0.9) == pytest.approx(
            1 - 0.9**10, rel=1e-15
        )

    def test_fraction_accurate_in_high_dimension(self):
        # mpmath oracle where 0.9^n underflows toward 0
        n = 500
        expected = float(1 - mpmath.mp.mpf("0.9") ** n)
        got = shell_volume_fraction(n, 0.9)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_fraction_monotone_in_dimension(self):
        fracs = [shell_volume_fraction(n, 0.9) for n in range(1, 201)]
        assert all(a < b for a, b in zip(fracs, fracs[1:]))

    def test_width_inverts_fraction(self):
        for n in (2, 10, 100):
            width = shell_width_for_mass(n, 0.5)
            assert shell_volume_fraction(n, 1 - width) == pytest.approx(0.5, rel=1e-12)

    def test_width_shrinks_with_dimension(self):
        widths = [shell_width_for_mass(n, 0.5) for n in range(1, 101)]
        assert all(a > b for a, b in zip(widths, widths[1:]))
        assert widths[99] == pytest.approx(-math.expm1(math.log(0.5) / 100), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"inner_radius must lie in \[0, 1\], got 1.5"):
            shell_volume_fraction(3, 1.5)
        with pytest.raises(ValueError, match="dimension must be a positive integer, got 0"):
            shell_volume_fraction(0, 0.5)
        with pytest.raises(ValueError):
            shell_width_for_mass(3, 0.0)
        with pytest.raises(ValueError):
            shell_width_for_mass(3, 1.0)
