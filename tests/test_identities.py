"""Variational identity residuals and the energy bound reports."""

import dataclasses
import math
import sys
from fractions import Fraction

import pytest

from ballharmonics import energetics, suite
from ballharmonics.energetics import (
    dirichlet_energy,
    dirichlet_energy_result,
    normal_energy_result,
    surface_dirichlet_result,
    surface_energy_total_result,
)
from ballharmonics.harmonics import (
    harmonic_sum,
    identity_map,
    make_harmonic_map,
    random_harmonic_polynomial,
    zonal_solid_harmonic,
)
from ballharmonics.identities import (
    _flux_result,
    green_residual,
    minimiser_bound_check,
    pohozaev_residual,
)
from ballharmonics.integration import EXACT, QuadratureSpec
from ballharmonics.polynomials import MultiPoly, VectorPoly

from oracles import lowered, materialised


def rational_maps(n, seed=3):
    yield identity_map(n)
    for k in (1, 2, 3):
        yield zonal_solid_harmonic(n, k)
    if n > 1:
        yield random_harmonic_polynomial(n, 3, seed)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("r", [Fraction(3, 10), Fraction(7, 10), 1])
def test_pohozaev_exactly_zero_on_rational_maps(n, r):
    for u in rational_maps(n):
        report = pohozaev_residual(u, r)
        assert report.residual == 0.0
        assert report.normalized_residual == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("r", [Fraction(3, 10), Fraction(7, 10), 1])
def test_green_exactly_zero_on_rational_maps(n, r):
    for u in rational_maps(n):
        report = green_residual(u, r)
        assert report.residual == 0.0
        assert report.normalized_residual == 0.0


@pytest.mark.parametrize("n", [50, 100])
def test_identities_exact_in_high_dimension(n):
    # a harmonic part pairs only with itself, so the profile of zonal(n, 4)
    # costs its Fischer norm, not a sum over pairs of its ~n^2/2 terms
    u = zonal_solid_harmonic(n, 4)
    assert pohozaev_residual(u, 1).normalized_residual == 0.0
    assert green_residual(u, Fraction(7, 10)).normalized_residual == 0.0
    assert minimiser_bound_check(u).margin_ratio == float(Fraction(2 * (n + 2), n - 2))
    if n == 100:
        # a non-harmonic body takes the heat step e^(Delta/2) at high n too
        body = VectorPoly([MultiPoly(n, {(4,) + (0,) * (n - 1): 1, (1, 1) + (0,) * (n - 2): 1})])
        got = (
            dirichlet_energy_result(body, Fraction(7, 10)).exact,
            surface_energy_total_result(body, Fraction(7, 10)).exact,
            normal_energy_result(body, Fraction(7, 10)).exact,
            _flux_result(body, Fraction(7, 10), EXACT).exact,
        )
        assert got == materialised(body, Fraction(7, 10))


def test_identities_exact_at_n_200():
    # a term costs its degree, not n, so zonal(200, 4) and its 20 100 terms build and
    # check within a tier-1 budget
    u = zonal_solid_harmonic(200, 4)
    for r in (0.3, 0.7, 1.0):
        assert pohozaev_residual(u, r).normalized_residual == 0.0
        assert green_residual(u, r).normalized_residual == 0.0


def test_identity_scan_never_materialises_a_square():
    # the exact spec reads the radial profile's Fischer sums and Monte Carlo
    # evaluates partials, pairings and components at the sample points:
    # neither forms |grad u|^2, sum_i <x, grad u^i>^2 or the flux as a polynomial,
    # and squaring a polynomial, like |grad u|^2, lives only in the tests' oracles
    assert not hasattr(MultiPoly, "square")
    assert not [
        name
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "ballharmonics" and "grad_norm_sq" in vars(module)
    ]
    scan = suite.identity_reports(7)
    assert suite.check_pohozaev(scan).passed
    assert suite.check_green(scan).passed
    assert suite.check_c1_rate().passed
    u = random_harmonic_polynomial(4, 3, 5)
    mc = QuadratureSpec(method="monte_carlo", samples=2000, seed=3)
    float_twin = make_harmonic_map(lowered(u.body[0]))
    for spec, v in ((mc, u), (EXACT, float_twin)):
        for quantity in (dirichlet_energy_result, surface_energy_total_result, normal_energy_result):
            quantity(v, 0.7, spec)
        for check in (pohozaev_residual, green_residual):
            check(v, 0.7, spec)
        minimiser_bound_check(v, spec)


def test_monte_carlo_stays_off_the_profile_and_float_bodies_take_it(monkeypatch):
    consulted = []

    def spy(body):
        consulted.append(body)
        return profile(body)

    profile = energetics._radial_profile
    monkeypatch.setattr(energetics, "_radial_profile", spy)
    u = zonal_solid_harmonic(3, 2)
    mc = QuadratureSpec(method="monte_carlo", samples=2000, seed=3)
    for quantity in (dirichlet_energy_result, surface_energy_total_result, normal_energy_result):
        quantity(u.body, 1, mc)
    for check in (pohozaev_residual, green_residual):
        check(u, 0.7, mc)
    minimiser_bound_check(u, mc)
    assert consulted == []
    float_twin = make_harmonic_map(lowered(u.body[0]))
    for quantity in (dirichlet_energy_result, surface_energy_total_result, normal_energy_result):
        quantity(float_twin.body, 1)
    for check in (pohozaev_residual, green_residual):
        assert check(float_twin, 0.7).normalized_residual < 1e-12
    assert consulted and all(body == float_twin.body for body in consulted)


def test_pohozaev_sides_by_hand_in_the_plane():
    # n = 2 makes the left side (n - 2) E(r) vanish; the right side
    # r total(r) - 2 r normal(r) must vanish too.  For u = (x^2 - y^2, 2xy):
    # |grad u|^2 = 8(x^2 + y^2), total(1) = 16 pi; <x, grad u^i> = 2 u^i gives
    # normal(1) = 4 * (2 pi) ... checked here through the public functions.
    u = make_harmonic_map(
        VectorPoly(
            [
                MultiPoly(2, {(2, 0): 1, (0, 2): -1}),
                MultiPoly(2, {(1, 1): 2}),
            ]
        )
    )
    assert u.certified
    report = pohozaev_residual(u, 1)
    assert report.lhs == 0.0 and report.rhs == 0.0
    assert report.normalized_residual == 0.0


def test_green_sides_for_the_identity():
    # identity on B^3: E(1) = 3 V_3 = 4 pi; flux integrand sum_i x_i^2 = 1 on
    # the sphere, so rhs = area(1) = 4 pi as well
    report = green_residual(identity_map(3), 1)
    assert report.lhs == pytest.approx(4 * math.pi, rel=1e-14)
    assert report.rhs == pytest.approx(4 * math.pi, rel=1e-14)


def test_identity_names_and_labels():
    rep = pohozaev_residual(zonal_solid_harmonic(3, 2), 1)
    assert rep.identity_name == "pohozaev"
    assert rep.map_label == "zonal(n=3, k=2)"
    rep = green_residual(identity_map(2), 0.5)
    assert rep.identity_name == "green"


def test_identities_refuse_uncertified_maps():
    bad = make_harmonic_map(MultiPoly(2, {(2, 0): 1, (0, 2): 1}))
    assert not bad.certified
    with pytest.raises(ValueError, match="certified"):
        pohozaev_residual(bad, 1)
    with pytest.raises(ValueError, match="certified"):
        green_residual(bad, 1)
    with pytest.raises(TypeError):
        pohozaev_residual(MultiPoly(2, {(1, 0): 1}), 1)


class TestMinimiserBound:
    @pytest.mark.parametrize("n", [3, 4, 5, 10, 25])
    def test_identity_margin_closed_form(self, n):
        # E(1) = n V_n, H(1) = n (n - 1) V_n, so rhs/lhs = 2 (n - 1) / (n - 2)
        rep = minimiser_bound_check(identity_map(n))
        assert rep.margin_ratio == pytest.approx(2 * (n - 1) / (n - 2), rel=1e-13)
        assert rep.margin_ratio > 1.0

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 3), (6, 2)])
    def test_homogeneous_margin_closed_form(self, n, k):
        # degree-k homogeneous: total(1) = (n + 2k - 2) E(1) and (via the
        # Euler relation plus the boundary identity) normal(1) = k E(1), so
        # H(1) = (n + k - 2) E(1) and rhs/lhs = 2 (n + k - 2) / (n - 2)
        u = zonal_solid_harmonic(n, k)
        rep = minimiser_bound_check(u)
        assert rep.margin_ratio == pytest.approx(
            2 * (n + k - 2) / (n - 2), rel=1e-13
        )
        assert rep.margin_ratio > 1.0

    def test_strict_inequality_reported(self):
        rep = minimiser_bound_check(zonal_solid_harmonic(5, 2))
        assert rep.lhs < rep.rhs
        assert rep.constant == pytest.approx(2 / 3)

    def test_dimension_two_rejected(self):
        with pytest.raises(ValueError):
            minimiser_bound_check(identity_map(2))

    def test_constant_map_rejected(self):
        with pytest.raises(ValueError):
            minimiser_bound_check(zonal_solid_harmonic(3, 0))


class TestC1Report:
    @pytest.mark.parametrize("n", [3, 4, 10, 22, 40])
    def test_constant_value(self, n):
        rep = minimiser_bound_check(identity_map(n))
        assert rep.constant == pytest.approx(2 / (n - 2), rel=1e-15)
        assert rep.margin_ratio > 1.0

    def test_scaled_constant_approaches_two(self):
        gaps = [
            abs(minimiser_bound_check(identity_map(n)).constant * n - 2) for n in (5, 10, 20, 40)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        # |c1 n - 2| = 4 / (n - 2) exactly; at n = 22 that is 1/5
        assert gaps[0] == pytest.approx(4 / 3, rel=1e-12)
        assert abs(Fraction(2, 20) * 22 - 2) == Fraction(1, 5)


class TestMonteCarloRoute:
    """The float route of the identities agrees with the exact route.

    Every side is compared with its exact value to within four standard
    errors; the errors come from the same seeded components, which the
    Monte Carlo engine reproduces bit for bit.
    """

    SPEC = QuadratureSpec(method="monte_carlo", samples=200_000, seed=11)
    R = 0.7

    @staticmethod
    def close(got, want, stderr):
        assert stderr > 0.0
        assert abs(got - want) <= 4.0 * stderr, (got, want, stderr)

    def parts(self, u, r):
        return (
            dirichlet_energy_result(u, r, self.SPEC),
            surface_energy_total_result(u, r, self.SPEC),
            normal_energy_result(u, r, self.SPEC),
        )

    def test_normal_energy(self):
        u = zonal_solid_harmonic(3, 2)
        mc = normal_energy_result(u, self.R, self.SPEC)
        exact = normal_energy_result(u, self.R)
        self.close(mc.value, exact.value, mc.standard_error)
        assert mc.log_abs_value == pytest.approx(math.log(mc.value), rel=1e-12)
        assert mc.method == "monte_carlo" and mc.samples == 200_000

    def test_pohozaev(self):
        u = zonal_solid_harmonic(3, 2)
        energy, total, normal = self.parts(u, self.R)
        mc = pohozaev_residual(u, self.R, self.SPEC)
        exact = pohozaev_residual(u, self.R)
        self.close(mc.lhs, exact.lhs, energy.standard_error)
        rhs_se = self.R * math.hypot(total.standard_error, 2.0 * normal.standard_error)
        self.close(mc.rhs, exact.rhs, rhs_se)

    def test_pohozaev_in_the_plane(self):
        # n = 2: the lhs factor n - 2 is zero, so the lhs is exactly zero
        u = zonal_solid_harmonic(2, 2)
        _, total, normal = self.parts(u, self.R)
        mc = pohozaev_residual(u, self.R, self.SPEC)
        assert mc.lhs == 0.0
        assert pohozaev_residual(u, self.R).rhs == 0.0
        rhs_se = self.R * math.hypot(total.standard_error, 2.0 * normal.standard_error)
        self.close(mc.rhs, 0.0, rhs_se)

    def test_green(self):
        u = zonal_solid_harmonic(3, 2)
        energy = dirichlet_energy_result(u, self.R, self.SPEC)
        flux = _flux_result(u.body, self.R, self.SPEC)
        mc = green_residual(u, self.R, self.SPEC)
        exact = green_residual(u, self.R)
        self.close(mc.lhs, exact.lhs, energy.standard_error)
        self.close(mc.rhs, exact.rhs, flux.standard_error)

    def test_residual_of_sides_that_underflow_is_refused(self):
        # at 1e-300 both sides' floats are 0 while their logs stay finite; the
        # residual once read 0.0, a pass that compared nothing
        with pytest.raises(ValueError, match="underflows to 0.0"):
            green_residual(zonal_solid_harmonic(3, 2), 1e-300, self.SPEC)
        with pytest.raises(ValueError, match="underflows to 0.0"):
            pohozaev_residual(zonal_solid_harmonic(2, 2), 1e-300, self.SPEC)

    def test_minimiser_bound(self):
        u = zonal_solid_harmonic(3, 2)
        energy = dirichlet_energy_result(u, 1, self.SPEC)
        tangential = surface_dirichlet_result(u, 1, self.SPEC)
        mc = minimiser_bound_check(u, self.SPEC)
        exact = minimiser_bound_check(u)
        # degree k = 2 in n = 3: margin 2 (n + k - 2) / (n - 2) = 6
        assert exact.margin_ratio == 6.0
        self.close(mc.lhs, exact.lhs, energy.standard_error)
        self.close(mc.rhs, exact.rhs, 2.0 * tangential.standard_error)
        assert mc.margin_ratio > 1.0

    @pytest.mark.parametrize(
        "body",
        [
            VectorPoly([MultiPoly(2, {(2, 0): 1, (0, 2): -1}), MultiPoly(2, {(1, 1): 2})]),
            identity_map(3).body,
        ],
        ids=["plane", "identity3"],
    )
    @pytest.mark.parametrize(
        "quantity",
        [dirichlet_energy_result, surface_energy_total_result, normal_energy_result, _flux_result],
    )
    def test_vector_maps_agree_and_ignore_the_worker_count(self, body, quantity):
        lone = quantity(body, self.R, self.SPEC)
        team = quantity(body, self.R, dataclasses.replace(self.SPEC, workers=2))
        assert lone == team
        exact = quantity(body, self.R, EXACT).value
        # both maps have |grad u|^2, the pairing squares and the flux constant
        # on spheres, so most of these integrands have zero variance and only
        # float rounding separates the estimate from the exact value
        assert abs(lone.value - exact) <= 4.0 * lone.standard_error + 1e-12 * exact
