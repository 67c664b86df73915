"""Dirichlet energies, decay fits and dyadic contraction."""

import copy
import gc
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballharmonics import energetics, polynomials
from ballharmonics.energetics import (
    concentration_fraction,
    dirichlet_energy,
    dirichlet_energy_result,
    energy_profile,
    fit_decay_exponent,
    half_radius_theta,
    normal_energy_result,
    surface_dirichlet_result,
    surface_energy_total_result,
    verify_decay_bound,
)
from ballharmonics.exactmath import PiRational, as_fraction
from ballharmonics.geometry import unit_ball_volume
from ballharmonics.harmonics import (
    HarmonicMap,
    harmonic_projection,
    harmonic_sum,
    identity_map,
    make_harmonic_map,
    random_harmonic_polynomial,
    zonal_solid_harmonic,
)
from ballharmonics.identities import _flux_result
from ballharmonics.integration import EXACT, IntegralResult, QuadratureSpec
from ballharmonics.polynomials import MultiPoly, VectorPoly, _laplacian_series

from oracles import fischer_profile, lowered, materialised


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
        total = surface_energy_total_result(u, r).value
        normal = normal_energy_result(u, r).value
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
        scaled = harmonic_sum([u], [lam])
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
        assert [e for _, e, _ in profile.samples[:2]] == [0.0, 0.0]
        fit = fit_decay_exponent(profile)
        assert fit.points_used == 3
        assert fit.exponent == pytest.approx(5, abs=1e-9)

    def test_needs_two_radii(self):
        u = identity_map(2)
        with pytest.raises(ValueError, match="got 1 of 1"):
            fit_decay_exponent(energy_profile(u, (0.5,)))

    def test_counts_positive_samples_without_warning(self, recwarn):
        profile = energy_profile(zonal_solid_harmonic(3, 0), (0.25, 0.5, 1.0))
        with pytest.raises(ValueError, match="got 0 of 3"):
            fit_decay_exponent(profile)
        assert not recwarn.list


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


class TestDecayBoundEdges:
    def test_rejects_non_finite_beta_and_constant(self):
        u = zonal_solid_harmonic(3, 2)
        radii = (0.5, 1.0)
        for beta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="beta"):
                verify_decay_bound(u, beta, 1.0, radii)
        for constant in (math.nan, math.inf):
            with pytest.raises(ValueError, match="constant"):
                verify_decay_bound(u, 2.5, constant, radii)

    def test_huge_beta_fails_from_the_logs(self):
        # (1/2)^1e9 underflows to 0; the margin is E(1/2)/E(1) * 2^1e9, far above 1
        report = verify_decay_bound(zonal_solid_harmonic(3, 2), 1e9, 1.0, (0.5, 1.0))
        assert not report.holds
        assert report.worst_margin == math.inf

    def test_huge_negative_beta_holds_from_the_logs(self):
        # (1/2)^-1e9 overflows; the margin underflows to 0
        report = verify_decay_bound(zonal_solid_harmonic(3, 2), -1e9, 1.0, (0.5, 1.0))
        assert report.holds
        assert report.worst_margin == 0.0

    def test_subnormal_radius_margin_from_the_logs(self):
        # E(r) and r^2.5 are 0.0 as floats at the subnormal r = 1e-320; the
        # exact logs give margin r^(3 - 2.5) for E(r) = c r^3
        r = 1e-320
        report = verify_decay_bound(identity_map(3), 2.5, 1.0, (r, 1.0))
        assert report.holds
        assert report.worst_margin == pytest.approx(math.sqrt(r), rel=1e-9, abs=0.0)

    def test_float_formula_kept_where_finite(self):
        u = zonal_solid_harmonic(3, 2)
        radii = (0.25, 0.5, 1.0)
        report = verify_decay_bound(u, 2.5, 1.0, radii)
        e = [dirichlet_energy(u, r) for r in radii]
        want = max(
            e[i] / ((radii[i] / radii[j]) ** 2.5 * e[j])
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert report.worst_margin == want


# -- harmonic maps against the Fischer closed form -----------------------------

QUANTITIES = (dirichlet_energy_result, surface_energy_total_result, normal_energy_result)


@st.composite
def compositions(draw, n, d):
    """An exponent tuple of total degree d in n variables."""
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))


@st.composite
def harmonic_parts(draw, n):
    """A homogeneous harmonic polynomial: the projection of a few monomials."""
    d = draw(st.integers(0, 1 if n == 1 else 4))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
    terms = draw(st.dictionaries(compositions(n, d), coeffs, min_size=1, max_size=3))
    return harmonic_projection(MultiPoly(n, terms))


@st.composite
def certified_exact_maps(draw):
    """Exact certified maps: mixed-degree sums, scalar or vector valued."""
    n = draw(st.integers(1, 8))
    components = []
    for _ in range(draw(st.integers(1, 3))):
        comp = MultiPoly(n)
        for part in draw(st.lists(harmonic_parts(n), min_size=1, max_size=3)):
            comp = comp + part
        components.append(comp)
    return make_harmonic_map(VectorPoly(components), label="drawn")


radii = st.one_of(
    st.fractions(min_value=Fraction(1, 64), max_value=1, max_denominator=64).filter(bool),
    st.floats(min_value=1e-3, max_value=1.0),
)


def fischer_energies(u, r):
    """E, total and normal at r from the closed form of :func:`oracles.fischer_profile`.

    With S_d the unit-sphere integral of |u_d|^2, Euler's identity and the
    orthogonality of degrees give E(r) = sum_d d S_d r^(n + 2d - 2), total(r)
    = sum_d d (n + 2d - 2) S_d r^(n + 2d - 3) and normal(r) = sum_d d^2 S_d
    r^(n + 2d - 3).
    """
    n, rq = u.dimension, as_fraction(r)
    profile = fischer_profile(u.body)

    def read(weight, shift):
        terms = (weight(d) * s * rq ** (n + 2 * d - shift) for d, s in profile)
        return PiRational(sum(terms, Fraction(0)), n // 2)

    return read(lambda d: d, 2), read(lambda d: d * (n + 2 * d - 2), 3), read(lambda d: d * d, 3)


@given(certified_exact_maps(), radii)
@settings(max_examples=80, deadline=None)
def test_property_certified_maps_equal_the_fischer_closed_form(u, r):
    assert u.certified
    got = tuple(quantity(u, r).exact for quantity in QUANTITIES)
    assert got == fischer_energies(u, r), (u.body, r)


def test_monte_carlo_never_reads_the_profile_and_every_exact_input_does(monkeypatch):
    def refuse(body):
        raise AssertionError("the exact profile was consulted")

    u = zonal_solid_harmonic(3, 2)
    mc = QuadratureSpec(method="monte_carlo", samples=1000, seed=3)
    uncertified = HarmonicMap(body=u.body, degree=2, certified=False)
    float_twin = make_harmonic_map(lowered(u.body[0]))
    inputs = (u, u.body, u.body[0], uncertified, float_twin)
    # certification and exactness pick no route: every input reads one profile
    for quantity, want in zip(QUANTITIES, fischer_energies(u, 1)):
        assert [quantity(v, 1).exact for v in inputs] == [want] * len(inputs)
    monkeypatch.setattr(energetics, "_radial_profile", refuse)
    for quantity in QUANTITIES:
        for v in inputs:
            quantity(v, 1, mc)
    with pytest.raises(AssertionError, match="exact profile"):
        dirichlet_energy_result(float_twin, 1)


def test_fischer_profile_of_a_mixed_map():
    # u = x1 + (x1^2 - x2^2) in the plane: [x1, x1] = 1 and
    # [x1^2 - x2^2, x1^2 - x2^2] = 4, so S_1 = 2 pi / 2 = pi and S_2 = 2 pi * 4 / (2 * 4) = pi
    u = make_harmonic_map(MultiPoly(2, {(1, 0): 1, (2, 0): 1, (0, 2): -1}))
    assert fischer_profile(u.body) == ((1, Fraction(1)), (2, Fraction(1)))
    # |grad u|^2 has the degree-0 part 1 * (2 + 0) * S_1 and the degree-2 part 2 * (2 + 2) * S_2
    assert energetics._radial_profile(u.body).grad == ((0, Fraction(2)), (2, Fraction(8)))
    # E(1) = 1 * S_1 + 2 * S_2 = 3 pi
    assert dirichlet_energy_result(u, 1).exact.coeff == 3


def test_profile_is_built_once_per_body():
    # concentration_fraction asks for two energies of one map, and the total
    # surface energy a third: all three read one cached profile
    energetics._radial_profile.cache_clear()
    u = identity_map(6)
    concentration_fraction(u, Fraction(9, 10))
    surface_energy_total_result(u, 1)
    assert energetics._radial_profile.cache_info().misses == 1


def test_energy_of_a_certified_map_walks_no_laplacian(monkeypatch):
    # certification kept each component's Laplacian series, and the profile reads it
    calls = []
    walk = polynomials._laplacian_terms

    def spy(terms):
        calls.append(len(terms))
        return walk(terms)

    monkeypatch.setattr(polynomials, "_laplacian_terms", spy)
    u = zonal_solid_harmonic(5, 3)
    assert calls, "building the map walks its Laplacian"
    calls.clear()
    energetics._radial_profile.cache_clear()
    dirichlet_energy_result(u, 1)
    assert calls == []


def test_projection_and_profile_leave_the_kept_series_as_they_found_it():
    p = MultiPoly(
        3, {(4, 0, 0): Fraction(1, 3), (2, 1, 0): 2, (0, 0, 2): Fraction(-1, 7), (1, 0, 0): 5}
    )
    kept = copy.deepcopy(_laplacian_series(p))
    assert max(len(laps) for laps in kept[1].values()) == 3
    harmonic_projection(p)
    assert _laplacian_series(p) == kept
    energetics._radial_profile.cache_clear()
    energetics._radial_profile(VectorPoly([p]))
    assert _laplacian_series(p) == kept


def test_profile_cache_does_not_keep_a_scan_of_maps_alive():
    # the cache keys on the body, so every cached profile keeps its map alive;
    # the identity maps of n = 2..80 take about 2.5 MB together
    concentration_fraction(identity_map(2), Fraction(9, 10))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(2, 81):
            concentration_fraction(identity_map(n), Fraction(9, 10))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20


# -- the profile of any body ------------------------------------------------------


@st.composite
def exact_polynomials(draw, n):
    """Any exact polynomial of degree <= 4, the zero polynomial included."""
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    exps = st.integers(0, 4).flatmap(lambda d: compositions(n, d))
    return MultiPoly(n, draw(st.dictionaries(exps, coeffs, max_size=6)))


@st.composite
def exact_bodies(draw):
    """Exact, generally non-harmonic, mixed-degree bodies with 1-3 components."""
    n = draw(st.integers(1, 8))
    return VectorPoly(draw(st.lists(exact_polynomials(n), min_size=1, max_size=3)))


def profiled(body, r):
    return (
        dirichlet_energy_result(body, r).exact,
        surface_energy_total_result(body, r).exact,
        normal_energy_result(body, r).exact,
        _flux_result(body, r, EXACT).exact,
    )


@given(exact_bodies(), radii)
@settings(max_examples=80, deadline=None)
def test_property_profile_equals_materialised_quadrature(body, r):
    assert profiled(body, r) == materialised(body, r)


def test_profile_does_not_assume_harmonicity():
    # u = x1^2 in R^3 is not harmonic: |grad u|^2 = 4 x1^2, <x, grad u> = 2 x1^2,
    # and over the unit sphere x1^2 integrates to 4 pi/3, x1^4 to 4 pi/5
    body = VectorPoly([MultiPoly(3, {(2, 0, 0): 1})])
    energy, total, normal, flux = profiled(body, 1)
    assert energy == PiRational(Fraction(16, 15), 1)
    assert total == PiRational(Fraction(16, 3), 1)
    assert normal == PiRational(Fraction(16, 5), 1)
    # Pohozaev: (n - 2) E = 16 pi/15 against total - 2 normal = -16 pi/15
    assert total - normal.scaled(2) == PiRational(Fraction(-16, 15), 1)
    # Green: E(1) = 16 pi/15 against the flux 8 pi/5
    assert flux == PiRational(Fraction(8, 5), 1)
    assert profiled(body, 1) == materialised(body, 1)


def test_profile_brings_each_component_to_the_common_denominator():
    # a harmonic component over 3 and a non-harmonic one over 5: the Fischer
    # sums of each carry (15 / den_i)^2, on the harmonic and the heat-flowed branch
    body = VectorPoly(
        [
            MultiPoly(3, {(2, 0, 0): Fraction(1, 3), (0, 2, 0): Fraction(-1, 3), (0, 0, 1): 1}),
            MultiPoly(3, {(2, 0, 0): Fraction(1, 5), (1, 1, 1): 3, (0, 0, 4): Fraction(-2, 5)}),
        ]
    )
    assert [_laplacian_series(c)[0] for c in body] == [3, 5]
    assert [c.is_harmonic() for c in body] == [True, False]
    energetics._radial_profile.cache_clear()
    for r in (1, Fraction(1, 2), 0.7):
        assert profiled(body, r) == materialised(body, r)


FLOAT_BODIES = {
    "harmonic": VectorPoly([lowered(c) for c in random_harmonic_polynomial(4, 3, 5).body]),
    "non-harmonic": VectorPoly(
        [
            MultiPoly(3, {(2, 0, 0): 0.1, (1, 1, 0): 1 / 3, (0, 0, 3): -2.7e-3}),
            MultiPoly(3, {(0, 1, 0): 1e-3, (1, 0, 2): 7.25}),
        ]
    ),
}


@pytest.mark.parametrize("body", FLOAT_BODIES.values(), ids=FLOAT_BODIES.keys())
def test_float_bodies_take_the_profile_of_their_binary_values(body):
    assert not any(comp.is_exact for comp in body)
    exact_body = VectorPoly(
        [MultiPoly(c.dimension, {e: as_fraction(x) for e, x in c.terms()}) for c in body]
    )
    # the two bodies compare equal, so the cache would hand one the other's profile
    build = energetics._radial_profile.__wrapped__
    assert build(body) == build(exact_body)
    assert profiled(body, 0.7) == profiled(exact_body, 0.7)
    # squaring the float polynomials, as these bodies were once integrated,
    # agrees to rounding
    for got, squared in zip(profiled(body, 0.7), materialised(body, 0.7)):
        assert float(got) == pytest.approx(float(squared), rel=1e-12)


# -- one Monte Carlo radial law --------------------------------------------------

MC = QuadratureSpec("monte_carlo", 10_000, 1)
MC_QUANTITIES = (*QUANTITIES, _flux_result)
SADDLE = VectorPoly([MultiPoly(3, {(2, 0, 0): 1, (0, 2, 0): -1})])


def _mc_log_offset(quantity, body, r):
    return quantity(body, r, MC).log_abs_value - quantity(body, r, EXACT).log_abs_value


@pytest.mark.parametrize("quantity", MC_QUANTITIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("r", [1e-300, 1e-160, 0.5])
def test_monte_carlo_energies_of_a_homogeneous_body_carry_their_power_of_r_exactly(quantity, r):
    # the points lie on the unit domain at every radius, so the estimate sits
    # as far from the exact log as it does at r = 1; sampling at r itself read
    # value 0 with log -inf at 1e-300, and the normal energy overflowed
    assert _mc_log_offset(quantity, SADDLE, r) == pytest.approx(
        _mc_log_offset(quantity, SADDLE, 1), abs=1e-9
    )


def test_monte_carlo_refuses_a_mixed_degree_map_whose_top_power_of_r_underflows():
    # degrees 1 and 3: the partials' squares run from r^0 to r^4, and sampled
    # at 1e-300 only the degree-1 part would survive
    u = harmonic_sum([zonal_solid_harmonic(3, 1), zonal_solid_harmonic(3, 3)])
    with pytest.raises(ValueError, match=r"mixed degree needs radius\^4 inside the float range"):
        dirichlet_energy_result(u, 1e-300, MC)


@pytest.mark.parametrize("r", [1e-200, 0.5, 1])
def test_monte_carlo_flux_of_a_constant_component_adds_exact_zeros(r):
    # the constant component's pairing is zero, so its product has no degree and
    # the integrand is homogeneous; its degree 0 once made it look mixed, refused
    # at 1e-200 and sampled at r itself at 0.5
    x1, one = MultiPoly.variable(3, 0), MultiPoly.constant(3, 1)
    spec = QuadratureSpec("monte_carlo", 1000, 0)
    got = _flux_result(VectorPoly([x1, one]), r, spec)
    assert got == _flux_result(VectorPoly([x1]), r, spec)
    if r == 1e-200:
        assert got.log_abs_value == -1380.1634729269315
        exact = _flux_result(VectorPoly([x1, one]), r, EXACT).log_abs_value
        assert exact == pytest.approx(-1380.119, abs=1e-3)


def test_monte_carlo_tangential_energy_keeps_its_log_when_both_sides_underflow():
    # total and normal both read 0.0 at 1e-300; their difference once read
    # value 0.0 with log -inf
    body = zonal_solid_harmonic(3, 2).body
    tangential = surface_dirichlet_result(body, 1e-300, MC)
    assert tangential.value == 0.0 and math.isfinite(tangential.log_abs_value)
    assert _mc_log_offset(surface_dirichlet_result, body, 1e-300) == pytest.approx(
        _mc_log_offset(surface_dirichlet_result, body, 1), abs=1e-9
    )


def test_underflowed_negative_tangential_energy_is_clamped(monkeypatch):
    # normal above total by Monte Carlo noise, both underflowed: value -0.0
    # carries the sign, and the tangential energy is clamped as at r = 1
    def fake(log_abs):
        return lambda u, r, spec: IntegralResult(math.exp(log_abs), log_abs, 0.0, "monte_carlo", 10)

    monkeypatch.setattr(energetics, "surface_energy_total_result", fake(-2760.0))
    monkeypatch.setattr(energetics, "normal_energy_result", fake(-2759.9))
    clamped = surface_dirichlet_result(SADDLE, 1e-300, MC)
    assert (clamped.value, math.copysign(1.0, clamped.value)) == (0.0, 1.0)
    assert clamped.log_abs_value == -math.inf
    monkeypatch.setattr(energetics, "surface_energy_total_result", fake(-20.0))
    monkeypatch.setattr(energetics, "normal_energy_result", fake(-19.0))
    with pytest.raises(ArithmeticError, match="sanity floor"):
        surface_dirichlet_result(SADDLE, 1e-9, MC)


# (value, log_abs_value, standard_error) of zonal(3, 2) at r = 1, where sampling the unit
# domain and sampling at r are the same arithmetic
UNIT_RADIUS_BITS = {
    dirichlet_energy_result: ("0x1.40b03995a53a5p+2", "0x1.9c90f39984d00p+0", "0x1.0b96e00c57130p-5"),
    surface_energy_total_result: ("0x1.920836f844d65p+4", "0x1.9caa2b9a0a1f9p+1", "0x1.cc695a53e4b4dp-4"),
    normal_energy_result: ("0x1.41b6a82dc6fdep+3", "0x1.276a1a5e52634p+1", "0x1.b3636886fefc5p-4"),
    _flux_result: ("0x1.41b6a82dc6fdep+2", "0x1.9d621cc4d2f72p+0", "0x1.b3636886fefc5p-5"),
}


@pytest.mark.parametrize("quantity", MC_QUANTITIES, ids=lambda f: f.__name__)
def test_monte_carlo_energies_at_unit_radius_keep_their_bits(quantity):
    got = quantity(zonal_solid_harmonic(3, 2).body, 1, MC)
    bits = (got.value.hex(), got.log_abs_value.hex(), got.standard_error.hex())
    assert bits == UNIT_RADIUS_BITS[quantity]
