"""Dirichlet energies, decay fits and dyadic contraction."""

import math
from fractions import Fraction

import pytest

from ballharmonics.energetics import (
    concentration_fraction,
    dirichlet_energy,
    dirichlet_energy_result,
    energy_profile,
    fit_decay_exponent,
    half_radius_theta,
    normal_energy,
    surface_dirichlet_result,
    surface_energy_total,
    verify_decay_bound,
)
from ballharmonics.geometry import unit_ball_volume
from ballharmonics.harmonics import (
    harmonic_sum,
    identity_map,
    scale_map,
    zonal_solid_harmonic,
)
from ballharmonics.polynomials import MultiPoly


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
@pytest.mark.parametrize("r", [0.3, 0.7, 1.0])
def test_identity_energy_closed_form(n, r):
    # |grad(identity)|^2 = n, so E(r) = n V_n r^n
    expected = n * unit_ball_volume(n).volume * r**n
    assert dirichlet_energy(identity_map(n), r) == pytest.approx(expected, rel=1e-13)


def test_zonal_degree_two_energy_value():
    # u = x1^2 - (x2^2 + x3^2)/2 on B^3: |grad u|^2 = 4x1^2 + x2^2 + x3^2,
    # integral = 6 * (4 pi / 15) = 8 pi / 5
    u = zonal_solid_harmonic(3, 2)
    result = dirichlet_energy_result(u, 1)
    assert result.exact.coeff == Fraction(8, 5)
    assert result.exact.power == 1


def test_surface_pythagoras():
    # total surface energy = normal + tangential, all exact
    u = zonal_solid_harmonic(3, 3)
    for r in (0.5, 1.0):
        total = surface_energy_total(u, r)
        normal = normal_energy(u, r)
        tangential = surface_dirichlet_result(u, r).value
        assert total == pytest.approx(normal + tangential, rel=1e-14)
        assert normal >= 0 and tangential >= 0


def test_energy_additive_for_orthogonal_degrees():
    # distinct-degree harmonics are L^2-orthogonal on every sphere, so the
    # Dirichlet energy of their sum splits
    z1, z3 = zonal_solid_harmonic(3, 1), zonal_solid_harmonic(3, 3)
    u = harmonic_sum([z1, z3], [Fraction(1), Fraction(1)])
    for r in (0.5, 1.0):
        assert dirichlet_energy(u, r) == pytest.approx(
            dirichlet_energy(z1, r) + dirichlet_energy(z3, r), rel=1e-13
        )


def test_energy_scales_quadratically():
    u = zonal_solid_harmonic(4, 2)
    base = dirichlet_energy(u, 0.8)
    for lam in (Fraction(1, 3), Fraction(7)):
        scaled = scale_map(u, lam)
        assert dirichlet_energy(scaled, 0.8) == pytest.approx(
            float(lam) ** 2 * base, rel=1e-13
        )


def test_energy_monotone_in_radius():
    u = zonal_solid_harmonic(2, 3)
    radii = [0.2, 0.4, 0.6, 0.8, 1.0]
    values = [dirichlet_energy(u, r) for r in radii]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_radius_validation():
    with pytest.raises(ValueError):
        dirichlet_energy(identity_map(2), 0.0)
    with pytest.raises(ValueError):
        dirichlet_energy(identity_map(2), 1.5)


class TestDecayFit:
    def test_homogeneous_map_fits_exactly(self):
        # E(r) = c r^(n + 2k - 2): the log-log fit recovers the exponent
        n, k = 3, 2
        u = zonal_solid_harmonic(n, k)
        profile = energy_profile(u, (0.125, 0.25, 0.5, 1.0))
        fit = fit_decay_exponent(profile)
        assert fit.exponent == pytest.approx(n + 2 * k - 2, abs=1e-12)
        assert fit.max_abs_residual < 1e-12

    def test_mixed_map_fits_between_degrees(self):
        z1, z3 = zonal_solid_harmonic(3, 1), zonal_solid_harmonic(3, 3)
        u = harmonic_sum([z1, z3], [Fraction(1), Fraction(1)])
        profile = energy_profile(u, (0.125, 0.25, 0.5, 1.0))
        fit = fit_decay_exponent(profile)
        assert 3 < fit.exponent < 7  # between n+2k-2 for k = 1 and k = 3

    def test_fits_on_logs_where_energies_underflow(self):
        # E(1e-200) and E(1e-100) are 0.0 as floats, but their exact logs are finite
        u = zonal_solid_harmonic(3, 2)
        profile = energy_profile(u, (1e-200, 1e-100, 1))
        assert profile.energies[:2] == (0.0, 0.0)
        fit = fit_decay_exponent(profile)
        assert fit.points_used == 3
        assert fit.exponent == pytest.approx(5, abs=1e-9)

    def test_needs_two_radii(self):
        u = identity_map(2)
        with pytest.raises(ValueError):
            fit_decay_exponent(energy_profile(u, (0.5,)))


class TestDecayBound:
    def test_holds_at_natural_exponent(self):
        n, k = 3, 2
        u = zonal_solid_harmonic(n, k)
        report = verify_decay_bound(u, float(n + 2 * k - 2), 1.0, (0.125, 0.25, 0.5, 1.0))
        assert report.holds
        assert report.worst_margin == pytest.approx(1.0, rel=1e-12)

    def test_holds_below_natural_exponent(self):
        u = zonal_solid_harmonic(4, 1)
        report = verify_decay_bound(u, 3.9, 1.0, (0.125, 0.25, 0.5, 1.0))
        assert report.holds
        assert report.worst_margin < 1.0

    def test_fails_above_natural_exponent(self):
        u = zonal_solid_harmonic(3, 1)  # energy decays like r^3
        report = verify_decay_bound(u, 5.0, 1.0, (0.125, 0.25, 0.5, 1.0))
        assert not report.holds
        assert report.worst_margin > 1.0

    def test_margins_monotone_in_beta(self):
        u = zonal_solid_harmonic(3, 2)
        radii = (0.25, 0.5, 1.0)
        margins = [
            verify_decay_bound(u, beta, 1.0, radii).worst_margin
            for beta in (2.0, 3.0, 4.0, 5.0)
        ]
        assert all(a < b for a, b in zip(margins, margins[1:]))


class TestContraction:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (5, 3)])
    def test_theta_closed_form(self, n, k):
        u = zonal_solid_harmonic(n, k)
        assert half_radius_theta(u, 1.0) == pytest.approx(
            2.0 ** -(n + 2 * k - 2), rel=1e-14
        )

    def test_theta_below_one_for_mixed(self):
        u = harmonic_sum(
            [zonal_solid_harmonic(3, 1), zonal_solid_harmonic(3, 3)],
            [Fraction(1), Fraction(2)],
        )
        theta = half_radius_theta(u, 1.0)
        assert 0.0 < theta < 1.0

    def test_concentration_matches_shell_formula(self):
        # identity map: fraction of energy outside radius r is 1 - r^n
        for n in (2, 5, 30):
            got = concentration_fraction(identity_map(n), 0.9)
            assert got == pytest.approx(1 - 0.9**n, abs=1e-14)

    def test_concentration_rejects_zero_map(self):
        zero = MultiPoly(2)
        with pytest.raises(ValueError):
            concentration_fraction(zero, 0.5)
