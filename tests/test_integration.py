"""Exact and Monte Carlo quadrature over spheres and balls."""

import dataclasses
import gc
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballharmonics import integration
from ballharmonics.energetics import dirichlet_energy_result, surface_energy_total_result
from ballharmonics.exactmath import PiRational
from ballharmonics.harmonics import identity_map, random_harmonic_polynomial
from ballharmonics.integration import (
    BLOCK_SIZE,
    EXACT,
    IntegralResult,
    QuadratureSpec,
    integrate_poly_ball,
    _mc_blocks,
    integrate_poly_sphere,
)
from ballharmonics.polynomials import MultiPoly, VectorPoly, gradient, parse_poly


def monomial(n, alpha):
    """The monomial x^alpha in R^n."""
    return MultiPoly(n, {alpha: 1})


# Hand-derived values.  The surface-measure formula is
#   integral over S^{n-1} of prod x_i^(a_i) dsigma
#     = 2 prod Gamma(b_i) / Gamma(sum b_i),  b_i = (a_i + 1) / 2,
# and zero when any a_i is odd.
@pytest.mark.parametrize(
    "n,alpha,expected",
    [
        (1, (0,), PiRational(Fraction(2), 0)),  # two endpoints
        (1, (4,), PiRational(Fraction(2), 0)),
        (2, (0, 0), PiRational(Fraction(2), 1)),  # circumference 2 pi
        (2, (2, 0), PiRational(Fraction(1), 1)),  # integral of x^2 over circle = pi
        (2, (2, 2), PiRational(Fraction(1, 4), 1)),
        (2, (4, 0), PiRational(Fraction(3, 4), 1)),
        (3, (0, 0, 0), PiRational(Fraction(4), 1)),  # 4 pi
        (3, (2, 0, 0), PiRational(Fraction(4, 3), 1)),
        (3, (2, 2, 0), PiRational(Fraction(4, 15), 1)),
        (4, (2, 2, 0, 0), PiRational(Fraction(1, 12), 2)),
        (2, (1, 0), PiRational(Fraction(0), 1)),  # odd exponent kills the integral
        (5, (1, 2, 0, 0, 0), PiRational(Fraction(0), 2)),
    ],
)
def test_sphere_monomials_known(n, alpha, expected):
    assert integrate_poly_sphere(monomial(n, alpha), 1).exact == expected


@pytest.mark.parametrize(
    "n,alpha,expected",
    [
        (2, (0, 0), PiRational(Fraction(1), 1)),  # disc area pi
        (3, (0, 0, 0), PiRational(Fraction(4, 3), 1)),  # 4 pi / 3
        (2, (2, 0), PiRational(Fraction(1, 4), 1)),  # x^2 over the disc
        (3, (2, 0, 0), PiRational(Fraction(4, 15), 1)),
    ],
)
def test_ball_monomials_known(n, alpha, expected):
    assert integrate_poly_ball(monomial(n, alpha), 1).exact == expected


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(3, 10), 1])
def test_radius_scaling(r):
    # sphere integral scales like r^(n - 1 + |alpha|), ball like r^(n + |alpha|)
    n, alpha = 3, (2, 0, 0)
    base_s = integrate_poly_sphere(monomial(n, alpha), 1).exact
    base_b = integrate_poly_ball(monomial(n, alpha), 1).exact
    rf = Fraction(r)
    assert integrate_poly_sphere(monomial(n, alpha), r).exact == base_s.scaled(rf ** (n - 1 + 2))
    assert integrate_poly_ball(monomial(n, alpha), r).exact == base_b.scaled(rf ** (n + 2))


def test_ball_equals_sphere_over_degree():
    # radial integration: ball = sphere * r / (n + |alpha|) at radius r
    n, alpha = 4, (2, 2, 0, 0)
    s = integrate_poly_sphere(monomial(n, alpha), 1).exact
    b = integrate_poly_ball(monomial(n, alpha), 1).exact
    assert b == s.scaled(Fraction(1, n + 4))


def test_exact_poly_integral_sums_terms():
    # integral over the unit disc of (x^2 + y^2) = pi / 2
    p = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    result = integrate_poly_ball(p, 1)
    assert result.exact == PiRational(Fraction(1, 2), 1)
    assert result.standard_error == 0.0
    assert result.method == "exact"


def test_tiny_float_coefficients_are_kept():
    # floats at most 1e-14 times the largest float coefficient were pruned, so
    # this integral read 0 while its exact twin read the value below
    value = integrate_poly_sphere(parse_poly("1.0*x1 + 1e-15*x1^2", 2)).value
    assert value == 3.1415926535897933e-15
    assert value == integrate_poly_sphere(parse_poly("1*x1 + 1e-15*x1^2", 2)).value


def test_exact_route_takes_floats_at_their_binary_value():
    # 0.5 is exactly 1/2 in binary, so the exact route accepts it
    p = MultiPoly(2, {(2, 0): 0.5})
    assert integrate_poly_ball(p, 1).exact == PiRational(Fraction(1, 8), 1)


def gamma_half_oracle(m):
    """Gamma(m / 2) as (rational, k), meaning rational * sqrt(pi)^k, from factorials."""
    if m % 2 == 0:
        return Fraction(math.factorial(m // 2 - 1)), 0
    k = m // 2  # Gamma(k + 1/2) = (2k - 1)!! sqrt(pi) / 2^k
    return Fraction(math.prod(range(2 * k - 1, 0, -2)), 2**k), 1


def sphere_monomial_oracle(n, alpha):
    """Rational part of 2 prod Gamma((a_i + 1)/2) / Gamma((n + |alpha|)/2); 0 for odd alpha."""
    if any(a % 2 for a in alpha):
        return Fraction(0)
    num, half_powers = Fraction(2), 0
    for a in alpha:
        g, k = gamma_half_oracle(a + 1)
        num *= g
        half_powers += k
    den, k = gamma_half_oracle(n + sum(alpha))
    assert half_powers - k == 2 * (n // 2)
    return num / den


@st.composite
def exact_polys(draw):
    """Exact polynomials in R^1..R^5 with mixed degrees and odd exponents."""
    n = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 5)] * n)
    coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=50)
    return MultiPoly(n, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=6)))


@given(exact_polys(), st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=64))
@settings(max_examples=100, deadline=None)
def test_exact_polynomials_match_the_termwise_oracle(p, r):
    n = p.dimension
    sphere = ball = Fraction(0)
    for alpha, c in p.terms():
        unit = Fraction(c) * sphere_monomial_oracle(n, alpha)
        sphere += unit * r ** (n - 1 + sum(alpha))
        ball += unit * r ** (n + sum(alpha)) / (n + sum(alpha))
    assert integrate_poly_sphere(p, r).exact == PiRational(sphere, n // 2)
    assert integrate_poly_ball(p, r).exact == PiRational(ball, n // 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_same_degree_monomials_match_the_termwise_oracle(n):
    # each degree sums its monomials' weights before meeting the Gamma formula
    alphas = [a for a in itertools.product(range(0, 11, 2), repeat=n) if sum(a) <= 12]
    for alpha in alphas:
        got = integrate_poly_sphere(MultiPoly(n, {alpha: 1})).exact
        assert got == PiRational(sphere_monomial_oracle(n, alpha), n // 2), alpha
    p = MultiPoly(n, {alpha: Fraction(k + 1, 3) for k, alpha in enumerate(alphas)})
    want = sum(Fraction(k + 1, 3) * sphere_monomial_oracle(n, a) for k, a in enumerate(alphas))
    assert integrate_poly_sphere(p).exact == PiRational(want, n // 2)


class TestScaled:
    def test_exact_route_stays_exact(self):
        base = integrate_poly_sphere(monomial(3, (2, 0, 0)), Fraction(7, 10))
        scaled = base.scaled(Fraction(3, 2))
        assert scaled.exact == base.exact.scaled(Fraction(3, 2))
        assert scaled.value == float(scaled.exact)
        assert scaled.standard_error == 0.0

    def test_float_route(self):
        base = IntegralResult(
            value=2.0, log_abs_value=math.log(2.0), standard_error=0.25,
            method="monte_carlo", samples=100,
        )
        scaled = base.scaled(-3)
        assert scaled.value == -6.0
        assert scaled.log_abs_value == pytest.approx(math.log(6.0), rel=1e-15)
        assert scaled.standard_error == 0.75
        assert (scaled.method, scaled.samples) == ("monte_carlo", 100)

    def test_zero_factor(self):
        base = IntegralResult(
            value=2.0, log_abs_value=math.log(2.0), standard_error=0.25,
            method="monte_carlo", samples=100,
        )
        zero = base.scaled(0)
        assert zero.value == 0.0
        assert zero.log_abs_value == -math.inf
        assert zero.standard_error == 0.0


class TestRatio:
    def test_exact_route_gives_a_fraction(self):
        a = integrate_poly_sphere(monomial(3, (2, 0, 0)), 1)
        b = integrate_poly_sphere(monomial(3, (2, 2, 0)), 1)
        assert a.ratio(b) == Fraction(5)
        assert isinstance(a.ratio(b), Fraction)

    def test_float_route_divides_values(self):
        a = IntegralResult(
            value=3.0, log_abs_value=math.log(3.0), standard_error=0.1,
            method="monte_carlo", samples=100,
        )
        exact = integrate_poly_ball(MultiPoly.constant(2, 2), 1)
        assert a.ratio(a) == 1.0
        assert a.ratio(exact) == 3.0 / exact.value

    def test_zero_denominator_raises(self):
        zero_exact = integrate_poly_sphere(monomial(2, (1, 0)), 1)
        zero_float = IntegralResult(
            value=0.0, log_abs_value=-math.inf, standard_error=0.0,
            method="monte_carlo", samples=100,
        )
        one = integrate_poly_sphere(MultiPoly.constant(2, 1), 1)
        for denominator in (zero_exact, zero_float):
            with pytest.raises(ZeroDivisionError):
                one.ratio(denominator)


class TestMinus:
    def test_exact_route_stays_exact(self):
        a = integrate_poly_sphere(monomial(3, (2, 0, 0)), 1)
        b = integrate_poly_sphere(monomial(3, (2, 2, 0)), 1)
        diff = a.minus(b)
        assert diff.exact == a.exact - b.exact
        assert diff.value == float(diff.exact)
        assert diff.standard_error == 0.0

    def test_float_route_adds_errors_in_quadrature(self):
        a = IntegralResult(
            value=5.0, log_abs_value=math.log(5.0), standard_error=0.3,
            method="monte_carlo", samples=100,
        )
        b = IntegralResult(
            value=7.0, log_abs_value=math.log(7.0), standard_error=0.4,
            method="monte_carlo", samples=100,
        )
        diff = a.minus(b)
        assert diff.value == -2.0
        assert diff.log_abs_value == math.log(2.0)
        assert diff.standard_error == pytest.approx(0.5, rel=1e-15)
        assert (diff.method, diff.samples) == ("monte_carlo", 100)
        assert a.minus(a).log_abs_value == -math.inf

    def test_float_route_keeps_the_log_of_sides_out_of_float_range(self):
        # the float difference of two underflowed sides once read 0.0 with log -inf
        tiny = IntegralResult(
            value=0.0, log_abs_value=-2760.0, standard_error=0.0,
            method="monte_carlo", samples=100,
        )
        less_tiny = dataclasses.replace(tiny, log_abs_value=-2759.0)
        gap = -2759.0 + math.log1p(-math.exp(-1.0))
        down, up = tiny.minus(less_tiny), less_tiny.minus(tiny)
        assert (down.value, math.copysign(1.0, down.value)) == (0.0, -1.0)
        assert (up.value, math.copysign(1.0, up.value)) == (0.0, 1.0)
        assert down.log_abs_value == pytest.approx(gap, abs=1e-12)
        assert up.log_abs_value == down.log_abs_value
        assert tiny.minus(tiny).log_abs_value == -math.inf
        huge = dataclasses.replace(tiny, value=math.inf, log_abs_value=800.0)
        diff = huge.minus(dataclasses.replace(huge, log_abs_value=799.0))
        assert diff.value == math.inf
        assert diff.log_abs_value == pytest.approx(800.0 + math.log1p(-math.exp(-1.0)), abs=1e-12)
        # minus a negative side adds the magnitudes: the same-sign branch of the log sum
        total = huge.minus(dataclasses.replace(huge, value=-math.inf, log_abs_value=799.0))
        assert total.value == math.inf
        assert total.log_abs_value == pytest.approx(800.0 + math.log1p(math.exp(-1.0)), abs=1e-12)

    def test_a_monte_carlo_side_labels_the_difference(self):
        # exact minus a Monte Carlo estimate once read method "exact", samples 0,
        # next to the estimate's nonzero standard error
        poly = monomial(2, (2, 0))
        exact = integrate_poly_sphere(poly, 1)
        sampled = integrate_poly_sphere(poly, 1, QuadratureSpec("monte_carlo", 1000, 0))
        for diff in (exact.minus(sampled), sampled.minus(exact)):
            assert diff.exact is None and diff.standard_error == sampled.standard_error > 0
            assert (diff.method, diff.samples) == ("monte_carlo", 1000)
        assert (exact.minus(exact).method, exact.minus(exact).samples) == ("exact", 0)
        other = integrate_poly_sphere(poly, 1, QuadratureSpec("monte_carlo", 500, 1))
        assert (sampled.minus(other).method, sampled.minus(other).samples) == ("monte_carlo", 1000)


class TestMonteCarlo:
    def spec(self, samples=200_000, seed=21, workers=1):
        return QuadratureSpec(
            method="monte_carlo", samples=samples, seed=seed, workers=workers
        )

    def test_sphere_within_three_sigma(self):
        p = MultiPoly(3, {(2, 2, 0): 1})
        exact = float(integrate_poly_sphere(monomial(3, (2, 2, 0)), 1).value)
        result = integrate_poly_sphere(p, 1, self.spec())
        assert abs(result.value - exact) < 3 * result.standard_error

    def test_ball_within_three_sigma(self):
        p = MultiPoly(2, {(2, 0): 1, (0, 0): 1})
        exact = float(integrate_poly_ball(p, 1).value)
        result = integrate_poly_ball(p, 1, self.spec(seed=5))
        assert abs(result.value - exact) < 3 * result.standard_error

    @pytest.mark.parametrize("integrate", [integrate_poly_sphere, integrate_poly_ball])
    def test_constant_one_is_the_exact_measure(self, integrate):
        # every sample is 1.0, so the estimate is the domain's measure: taken
        # from the exact measure it is the exact integral, with no error
        one = MultiPoly.constant(10, 1)
        result = integrate(one, 1, self.spec(samples=4096))
        assert result.value == float(integrate(one, 1).exact)
        assert result.standard_error == 0.0

    @pytest.mark.parametrize("integrate", [integrate_poly_sphere, integrate_poly_ball])
    def test_constant_one_counts_a_last_block_of_one_sample(self, integrate):
        # 3 * 2^15 + 1 samples leave one sample for the fourth block; a block
        # count that drops it read 12.566242... for the 4 pi of S^2
        one = MultiPoly.constant(3, 1)
        result = integrate(one, 1, self.spec(samples=3 * BLOCK_SIZE + 1, seed=5))
        assert result.value == float(integrate(one, 1).exact)
        assert result.standard_error == 0.0

    def test_constant_energy_is_its_exact_value(self):
        # rounding the measure before multiplying by the mean put this energy
        # one ulp off (18.47256480310798), a miss against standard error 0
        body = identity_map(3).body
        mc = QuadratureSpec("monte_carlo", 100_000, 11)
        result = surface_energy_total_result(body, 0.7, mc)
        assert result.value == surface_energy_total_result(body, 0.7).value
        assert result.standard_error == 0.0

    @pytest.mark.parametrize("integrate", [integrate_poly_sphere, integrate_poly_ball])
    @pytest.mark.parametrize("n", range(1, 12))
    def test_constants_are_their_exact_integral(self, n, integrate):
        # every sample is c, so the estimate is c times the domain's measure;
        # rounded once from the exact product it is the exact integral, with
        # no error
        misses = []
        for c in (1, 3, 5, Fraction(1, 4), -2):
            constant = MultiPoly.constant(n, c)
            for r in (1, 0.7, 0.3):
                result = integrate(constant, r, self.spec(samples=4096))
                exact = integrate(constant, r).value
                if (result.value, result.standard_error) != (exact, 0.0):
                    misses.append((c, r, result.value, exact))
        assert not misses

    def test_worker_count_does_not_change_the_stream(self):
        p = MultiPoly(3, {(2, 0, 0): 1, (0, 1, 1): -2})
        lone = integrate_poly_ball(p, 0.7, self.spec(workers=1))
        team = integrate_poly_ball(p, 0.7, self.spec(workers=4))
        assert lone.value == team.value
        assert lone.standard_error == team.standard_error

    def test_seed_changes_the_stream(self):
        p = MultiPoly(2, {(2, 0): 1})
        a = integrate_poly_sphere(p, 1, self.spec(seed=1))
        b = integrate_poly_sphere(p, 1, self.spec(seed=2))
        assert a.value != b.value

    def test_same_seed_reproduces(self):
        p = MultiPoly(2, {(2, 0): 1})
        a = integrate_poly_sphere(p, 1, self.spec())
        b = integrate_poly_sphere(p, 1, self.spec())
        assert a.value == b.value

    def test_standard_error_survives_a_large_offset(self):
        # 1e8 + x1^2/1000: s2 - N mean^2 cancels to 0, the centred block sums do not
        p = MultiPoly(3, {(0, 0, 0): Fraction(10**8), (2, 0, 0): Fraction(1, 1000)})
        exact = integrate_poly_ball(p, 1).value
        result = integrate_poly_ball(p, 1.0, self.spec(seed=3))
        assert 1e-6 < result.standard_error < 4e-6
        assert abs(result.value - exact) <= 4 * result.standard_error

    def test_block_merge_matches_two_pass_variance(self):
        samples = 3 * BLOCK_SIZE + 123

        def block_values(gen, count):
            return 1e6 + gen.random(count)

        mean, stderr = _mc_blocks(samples, 4, 1, lambda: block_values)
        blocks = [
            block_values(np.random.Generator(np.random.SFC64(np.random.SeedSequence((4, b)))), count)
            for b, count in enumerate((BLOCK_SIZE,) * 3 + (123,))
        ]
        values = np.concatenate(blocks)
        assert mean == math.fsum(float(np.sum(v)) for v in blocks) / samples
        want = math.sqrt(np.var(values, ddof=1) / samples)
        assert stderr == pytest.approx(want, rel=1e-9)

    def test_standard_error_ignores_the_blas_thread_count(self):
        # a BLAS dot sums in an order that follows its thread count; the
        # error bar must be a function of (seed, samples) alone
        script = (
            "from ballharmonics.integration import QuadratureSpec, integrate_poly_ball\n"
            "from ballharmonics.polynomials import MultiPoly\n"
            "p = MultiPoly(5, {(2, 2, 0, 0, 4): 1})\n"
            "spec = QuadratureSpec('monte_carlo', 200_000, 5, 1)\n"
            "print(integrate_poly_ball(p, 1.0, spec).standard_error.hex())\n"
        )
        errors = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            errors.add(proc.stdout)
        assert len(errors) == 1

    @pytest.mark.parametrize("coeff", [1e308, 1e300, 1e-200])
    @pytest.mark.parametrize("samples", [1000, 2 * BLOCK_SIZE + 7])
    def test_standard_error_of_huge_and_tiny_integrands(self, coeff, samples):
        # squaring the centred values unscaled gave standard_error inf (with a
        # numpy overflow warning) at 1e300 and 0 at 1e-200; summing the values
        # unscaled overflowed the block totals to inf at 1e308
        p = MultiPoly(2, {(2, 2): coeff})
        exact = integrate_poly_ball(p, 1).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = integrate_poly_ball(p, 1.0, self.spec(samples=samples, seed=0))
        assert 0.0 < result.standard_error < math.inf
        assert abs(result.value - exact) <= 4 * result.standard_error

    def test_standard_error_scales_exactly_with_powers_of_two(self):
        # the same draws times 2^k give the same mean and standard error times
        # 2^k, up to k = 1020, where the unscaled block sums overflowed
        samples = 2 * BLOCK_SIZE + 7

        def block_values(scale):
            return lambda: lambda gen, count: scale * (3.0 + gen.random(count))

        base = _mc_blocks(samples, 6, 1, block_values(1.0))
        for k in (-900, -40, 40, 900, 1020):
            scaled = _mc_blocks(samples, 6, 1, block_values(math.ldexp(1.0, k)))
            assert scaled == tuple(math.ldexp(x, k) for x in base)

    def test_constant_beyond_the_float_range_keeps_a_zero_error(self):
        # its measure rounds to inf, and inf times a zero error bar gave nan
        three = MultiPoly.constant(3, 3)
        result = integrate_poly_ball(three, 1e300, self.spec(samples=1000))
        assert (result.value, result.standard_error) == (math.inf, 0.0)
        assert result.log_abs_value == pytest.approx(integrate_poly_ball(three, 1e300).log_abs_value)

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0])
    def test_radius_must_be_positive_and_finite(self, radius):
        # an infinite radius used to sample inf/nan points and report value inf
        p = MultiPoly(2, {(2, 0): 1})
        for integrate in (integrate_poly_ball, integrate_poly_sphere):
            with pytest.raises(ValueError, match="radius"):
                integrate(p, radius, self.spec(samples=1000))

    def test_requires_samples(self):
        # constructing with samples=0 is legal; quadrature use is the error
        spec = QuadratureSpec(method="monte_carlo", samples=0)
        with pytest.raises(ValueError):
            integrate_poly_ball(MultiPoly(2, {(2, 0): 1}), 1, spec)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_fewer_than_two_samples_rejected(self, samples):
        # one draw used to report its value with standard_error 0.0, as if exact
        p = MultiPoly(2, {(2, 0): 1})
        for integrate in (integrate_poly_ball, integrate_poly_sphere):
            with pytest.raises(ValueError, match="at least 2 samples"):
                integrate(p, 1, self.spec(samples=samples))
        with pytest.raises(ValueError, match="at least 2 samples"):
            _mc_blocks(samples, 0, 1, lambda: lambda gen, count: gen.random(count))

    def test_two_samples_give_a_standard_error(self):
        result = integrate_poly_ball(MultiPoly(2, {(2, 0): 1}), 1, self.spec(samples=2))
        assert result.samples == 2
        assert 0.0 < result.standard_error < math.inf

    def test_spec_fields(self):
        # no option that nothing reads
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == [
            "method", "samples", "seed", "workers",
        ]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(method="trapezoid")


def _reference_mc(polys, combine, radius, spec, domain):
    """Monte Carlo (value, standard_error) with every power taken by ``**``.

    The same seeded points as the library's evaluator, formed as one
    (n, count) array, each monomial a product of ``pts[a] ** e`` over all
    axes.  Like the library, a block draws a (k, count) normal array, one row
    per axis some term reads in ascending order, then one chi^2(n - k)
    variate per sample for the rest of |z|^2 when n - k >= 2 (here by
    ``chisquare``, which the library takes as twice a gamma variate), or one
    more normal row for the one unread axis when n - k = 1; unread axes stay 0.
    """
    n = polys[0].dimension
    ball = domain == "ball"
    axes = sorted({a for p in polys for exps, _ in p.terms() for a, e in enumerate(exps) if e})
    unread = n - len(axes)

    def block_values(gen, count):
        drawn = gen.standard_normal((n if unread < 2 else len(axes), count))
        z = np.zeros((n, count))
        z[axes] = drawn[: len(axes)]
        squares = np.sum(drawn * drawn, axis=0)
        if unread >= 2:
            squares += gen.chisquare(unread, count)
        norms = np.sqrt(squares)
        norms[norms == 0.0] = 1.0
        radii = radius * gen.random(count) ** (1.0 / n) if ball else radius
        pts = z * (radii / norms)
        rows = [
            sum(
                (float(c) * np.prod([pts[a] ** e for a, e in enumerate(exps)], axis=0)
                 for exps, c in p.terms()),
                np.zeros(count),
            )
            for p in polys
        ]
        return combine(np.array(rows))

    mean, stderr = _mc_blocks(spec.samples, spec.seed, spec.workers, lambda: block_values)
    integrate = integrate_poly_ball if ball else integrate_poly_sphere
    measure = integrate(MultiPoly.constant(n, 1), radius).value
    return measure * mean, measure * stderr


def _sweep_polys(n):
    """A monomial, an exact and a float multi-term poly and a constant in R^n, exponents <= 8.

    From n = 3 on, a sparse poly that reads at most n - 2 axes follows, so the
    sweep reaches the chi^2 draw.
    """
    rng = random.Random(n)
    monomial = MultiPoly(n, {tuple((a + n) % 8 + 1 for a in range(n)): Fraction(-3, 7)})
    exact = MultiPoly(
        n,
        {tuple(rng.randint(0, 8) for _ in range(n)): Fraction(rng.randint(-9, 9) or 1, 4)
         for _ in range(5)},
    )
    floats = MultiPoly(
        n, {tuple(rng.randint(0, 8) for _ in range(n)): rng.uniform(-2, 2) for _ in range(5)}
    )
    constant = MultiPoly.constant(n, Fraction(5, 3))
    if n < 3:
        return [monomial, exact, floats, constant]
    read = rng.sample(range(n), min(3, n - 2))
    sparse = MultiPoly(
        n,
        {tuple(rng.randint(0, 8) if a in read else 0 for a in range(n)): rng.uniform(-2, 2)
         for _ in range(4)},
    )
    return [monomial, exact, floats, constant, sparse]


def _three_cpus(monkeypatch):
    """Let a call start up to three threads on any host: one per block of a 3-block call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)


class TestEvaluator:
    """The block evaluator against ``**`` on the same points, across workers and gc."""

    @staticmethod
    def assert_close(got, want):
        # relative to the larger of |value| and its error bar: a mean that
        # cancels to near 0 moves with the error bar's rounding, not its own
        scale = max(abs(want[0]), want[1])
        assert abs(got.value - want[0]) <= 1e-14 * scale
        assert abs(got.standard_error - want[1]) <= 1e-14 * scale

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_powers_taken_by_pow(self, n):
        for j, p in enumerate(_sweep_polys(n)):
            spec = QuadratureSpec("monte_carlo", BLOCK_SIZE + 100 if j == 0 else 3000, n + j)
            for integrate, domain in ((integrate_poly_sphere, "sphere"), (integrate_poly_ball, "ball")):
                want = _reference_mc([p], lambda v: v[0], 0.8, spec, domain)
                self.assert_close(integrate(p, 0.8, spec), want)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_vector_map_energy_matches_powers_taken_by_pow(self, n):
        u = VectorPoly(_sweep_polys(n)[:3])
        spec = QuadratureSpec("monte_carlo", 3000, 40 + n)
        partials = [d for comp in u for d in gradient(comp) if not d.is_zero]
        want = _reference_mc(partials, lambda v: np.sum(v * v, axis=0), 0.6, spec, "ball")
        self.assert_close(dirichlet_energy_result(u, 0.6, spec), want)

    def test_workers_give_the_same_bits_at_degree_eight(self, monkeypatch):
        _three_cpus(monkeypatch)
        p = MultiPoly(
            4,
            {(8, 0, 0, 0): Fraction(1, 3), (3, 5, 0, 0): -2, (1, 2, 2, 3): 0.75,
             (0, 0, 7, 1): 5, (0, 0, 0, 0): -1},
        )
        for integrate in (integrate_poly_sphere, integrate_poly_ball):
            bits = {
                (result.value.hex(), result.standard_error.hex())
                for workers in (1, 2, 3)
                for result in [
                    integrate(p, 0.9, QuadratureSpec("monte_carlo", 2 * BLOCK_SIZE + 5, 13, workers))
                ]
            }
            assert len(bits) == 1

    def test_blocks_leave_no_reference_cycles(self):
        # a memo behind a nested function that calls itself forms a cycle
        # per block, which keeps the block's arrays alive until a gc pass;
        # handing each thread its buffers must not form one either
        spec = QuadratureSpec("monte_carlo", BLOCK_SIZE + 10, 3)
        p = MultiPoly(3, {(3, 0, 5): 1, (0, 2, 0): -2, (0, 0, 0): 1})
        u = VectorPoly([p, MultiPoly(3, {(1, 4, 0): 1})])
        calls = [
            lambda: integrate_poly_sphere(p, 0.8, spec),
            lambda: integrate_poly_ball(p, 0.8, spec),
            lambda: dirichlet_energy_result(u, 0.5, spec),
            lambda: dirichlet_energy_result(u, 0.5, dataclasses.replace(spec, workers=2)),
        ]
        for call in calls:
            call()
        gc.collect()
        gc.disable()
        try:
            found = []
            for call in calls:
                call()
                found.append(gc.collect())
        finally:
            gc.enable()
        assert found == [0, 0, 0, 0]

    @pytest.mark.parametrize("cpus, blocks, threads", [(64, 3, 3), (2, 5, 2), (1, 5, None)])
    def test_threads_capped_by_blocks_and_cpus(self, monkeypatch, cpus, blocks, threads):
        # each thread holds its own buffers: 10**6 workers used to ask the
        # pool for one thread per block
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(integration, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        p = MultiPoly(3, {(2, 1, 0): 1, (0, 0, 4): -1})
        spec = QuadratureSpec("monte_carlo", (blocks - 1) * BLOCK_SIZE + 9, 5, 10**6)
        many = integrate_poly_ball(p, 0.9, spec)
        assert started == ([threads] if threads else [])
        one = integrate_poly_ball(p, 0.9, dataclasses.replace(spec, workers=1))
        assert (many.value, many.standard_error) == (one.value, one.standard_error)

    def test_warm_call_faults_few_pages(self):
        # each thread evaluates its blocks in one set of buffers; fresh arrays
        # per block made about 20 000 minor faults in this call
        resource = pytest.importorskip("resource")
        if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
            pytest.skip("no minor-fault count on this platform")
        script = (
            "import resource\n"
            "from ballharmonics.integration import BLOCK_SIZE, QuadratureSpec, integrate_poly_sphere\n"
            "from ballharmonics.polynomials import MultiPoly\n"
            "p = MultiPoly(2, {(4, 4): 1})\n"
            "spec = QuadratureSpec('monte_carlo', 20 * BLOCK_SIZE, 7)\n"
            "integrate_poly_sphere(p, 1.0, spec)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "integrate_poly_sphere(p, 1.0, spec)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1000

    def test_energy_blocks_peak_memory(self):
        # two threads' buffers for the six gradient rows of random(6, 3);
        # per-block arrays peaked at 17.6 MB here
        u = random_harmonic_polynomial(6, 3, 5)
        tracemalloc.start()
        try:
            dirichlet_energy_result(u, 1, QuadratureSpec("monte_carlo", 300_000, 3, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


_EVERY_AXIS = MultiPoly(3, {(2, 0, 0): 1, (0, 1, 1): -2, (1, 1, 2): Fraction(1, 3)})
_ONE_UNREAD = MultiPoly(4, {(4, 0, 0, 0): 1, (0, 2, 2, 0): Fraction(1, 2)})


class _RecordingGenerator:
    """A generator that logs (method, shape of the result) for every draw."""

    def __init__(self, gen, log):
        self.gen, self.log = gen, log

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.log.append((name, np.shape(out)))
            return out

        return draw


class TestDraw:
    """A block draws the read axes as normal rows plus one chi^2 variate when two or more axes go unread."""

    @staticmethod
    def draws(monkeypatch, integrate, p, samples):
        log = []
        substream = integration._substream
        monkeypatch.setattr(
            integration, "_substream", lambda seed, block: _RecordingGenerator(substream(seed, block), log)
        )
        integrate(p, 1.0, QuadratureSpec("monte_carlo", samples, 5))
        return log

    @pytest.mark.parametrize("integrate", [integrate_poly_sphere, integrate_poly_ball])
    def test_read_axes_and_one_chi_square(self, monkeypatch, integrate):
        p = MultiPoly(200, {(2, 4) + (0,) * 198: 1})
        samples = BLOCK_SIZE + 10
        log = self.draws(monkeypatch, integrate, p, samples)
        want = []
        for count in (BLOCK_SIZE, 10):
            want += [("standard_normal", (2, count)), ("standard_gamma", (count,))]
            want += [("random", (count,))] * (integrate is integrate_poly_ball)
        assert log == want
        normals = sum(math.prod(shape) for name, shape in log if name == "standard_normal")
        assert normals == samples * 2

    @pytest.mark.parametrize(
        "n, alpha",
        [(3, (2, 2, 0)), (3, (2, 2, 2)), (4, (4, 0, 2, 2)), (1, (0,)), (2, (2, 0))],
    )
    def test_whole_array_when_at_most_one_axis_is_unread(self, monkeypatch, n, alpha):
        log = self.draws(monkeypatch, integrate_poly_sphere, MultiPoly(n, {alpha: 1}), 1000)
        assert log == [("standard_normal", (n, 1000))]

    @pytest.mark.parametrize("integrate", [integrate_poly_sphere, integrate_poly_ball])
    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_high_dimensions_within_five_sigma(self, n, integrate):
        for j, alpha in enumerate([(2,), (2, 2), (4,)]):
            p = MultiPoly(n, {alpha + (0,) * (n - len(alpha)): 1})
            exact = integrate(p, 1).value
            result = integrate(p, 1.0, QuadratureSpec("monte_carlo", 20_000, n + j))
            assert abs(result.value - exact) <= 5 * result.standard_error, (alpha, result)
        one = MultiPoly.constant(n, 1)
        result = integrate(one, 1.0, QuadratureSpec("monte_carlo", 4096, n))
        assert (result.value, result.standard_error) == (float(integrate(one, 1).exact), 0.0)

    def test_workers_give_the_same_bits(self, monkeypatch):
        _three_cpus(monkeypatch)
        p = MultiPoly(
            8, {(0, 4, 0, 0, 0, 2, 0, 0): Fraction(1, 3), (0, 1, 0, 0, 0, 3, 0, 0): -2, (0,) * 8: 1}
        )
        for integrate in (integrate_poly_sphere, integrate_poly_ball):
            bits = {
                (result.value.hex(), result.standard_error.hex())
                for workers in (1, 2, 3)
                for result in [
                    integrate(p, 0.9, QuadratureSpec("monte_carlo", 2 * BLOCK_SIZE + 5, 13, workers))
                ]
            }
            assert len(bits) == 1

    # taken when the streams became SFC64 ones: a block that leaves at most
    # one axis unread, on the sphere and on the ball, keeps these bits
    @pytest.mark.parametrize(
        "p, integrate, radius, value, error",
        [
            (_EVERY_AXIS, integrate_poly_sphere, 1.0, "0x1.09b3db6083ff5p+2", "0x1.e0049bb032b43p-6"),
            (_EVERY_AXIS, integrate_poly_sphere, 0.7, "0x1.fe54ff6306d52p-1", "0x1.cce4341ed2757p-8"),
            (_EVERY_AXIS, integrate_poly_ball, 1.0, "0x1.a7d3e56d372c7p-1", "0x1.abe382edc4c33p-8"),
            (_EVERY_AXIS, integrate_poly_ball, 0.7, "0x1.1cf1715024572p-3", "0x1.1fa34c801deeep-10"),
            (_ONE_UNREAD, integrate_poly_sphere, 1.0, "0x1.6ebeee034fce1p+1", "0x1.deaab0a3f2e18p-7"),
            (_ONE_UNREAD, integrate_poly_ball, 1.0, "0x1.6e31e68ed0242p-2", "0x1.267ec1fc26e57p-9"),
        ],
    )
    def test_unchanged_path_keeps_its_bits(self, p, integrate, radius, value, error):
        result = integrate(p, radius, QuadratureSpec("monte_carlo", 2 * BLOCK_SIZE + 5, 17))
        assert (result.value.hex(), result.standard_error.hex()) == (value, error)


def _binomial_interval(confidence, trials, p):
    """Central interval of Binomial(trials, p): its quantiles at (1 -/+ confidence) / 2.

    The lower end is the least k with P(X <= k) >= tail, the upper end the
    least k with P(X > k) <= tail; tail sums are taken with ``math.fsum``.
    """
    tail = (1 - confidence) / 2
    pmf = [
        math.exp(math.log(math.comb(trials, k)) + k * math.log(p) + (trials - k) * math.log1p(-p))
        for k in range(trials + 1)
    ]
    lo = next(k for k in range(trials + 1) if math.fsum(pmf[: k + 1]) >= tail)
    hi = next(k for k in range(trials, -1, -1) if math.fsum(pmf[k:]) > tail)
    return lo, hi


def test_binomial_interval_bounds():
    # the two intervals the calibration test reads, and the edges of the law
    assert _binomial_interval(1 - 1e-6, 2100, math.erf(1 / math.sqrt(2))) == (1328, 1536)
    assert _binomial_interval(1 - 1e-6, 2100, math.erf(3 / math.sqrt(2))) == (2079, 2100)
    assert _binomial_interval(1 - 1e-6, 1800, math.erf(1 / math.sqrt(2))) == (1131, 1324)
    assert _binomial_interval(1 - 1e-6, 1800, math.erf(3 / math.sqrt(2))) == (1781, 1800)
    assert _binomial_interval(0.5, 1, 0.5) == (0, 1)
    assert _binomial_interval(0.9, 10, 0.5) == (2, 8)


def test_error_bars_cover_at_their_nominal_rates():
    # 300 seeds x 4096 samples for each of seven monomials (exponents up to 6,
    # odd ones with integral 0, the last in R^100 on the chi^2 draw), each
    # case on its own seeds so the 2100 trials are independent; the counts
    # inside 1 and 3 standard errors must lie in the central 1 - 1e-6
    # interval of their binomial laws
    cases = [
        (integrate_poly_sphere, MultiPoly(2, {(6, 0): 1})),
        (integrate_poly_ball, MultiPoly(2, {(4, 2): 3})),
        (integrate_poly_sphere, MultiPoly(3, {(5, 0, 1): 1})),
        (integrate_poly_ball, MultiPoly(3, {(0, 6, 0): Fraction(1, 2)})),
        (integrate_poly_sphere, MultiPoly(5, {(2, 0, 0, 4, 0): -1})),
        (integrate_poly_ball, MultiPoly(5, {(0, 3, 0, 0, 3): 2})),
        (integrate_poly_ball, MultiPoly(100, {(4, 2) + (0,) * 98: 1})),
    ]
    seeds = 300
    within = {1: 0, 3: 0}
    for j, (integrate, p) in enumerate(cases):
        exact = integrate(p, 1).value
        for seed in range(j * seeds, (j + 1) * seeds):
            result = integrate(p, 1.0, QuadratureSpec("monte_carlo", 4096, seed))
            for k in within:
                within[k] += abs(result.value - exact) <= k * result.standard_error
    trials = seeds * len(cases)
    for k, hits in within.items():
        lo, hi = _binomial_interval(1 - 1e-6, trials, math.erf(k / math.sqrt(2)))
        assert lo <= hits <= hi, (k, hits / trials)


def _standard_error_z(integrate, p, samples, seed):
    """z of the reported standard error about its exact value, on the unit domain D.

    With m_k the exact mean of p^k over D, the exact standard error is
    |D| sqrt((m_2 - m_1^2) / N), and by the delta method the reported one
    spreads about it by a relative sqrt((kappa - 1) / (4N)), kappa the
    kurtosis of p(X) for X uniform on D.
    """
    one = MultiPoly.constant(p.dimension, 1)
    size = integrate(one, 1).exact
    m1, m2, m3, m4 = (integrate(p**k, 1).exact.ratio(size) for k in range(1, 5))
    var = m2 - m1**2
    kurtosis = (m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4) / var**2
    exact = float(size) * math.sqrt(var / samples)
    spread = exact * math.sqrt((kurtosis - 1) / (4 * samples))
    reported = integrate(p, 1.0, QuadratureSpec("monte_carlo", samples, seed)).standard_error
    return (reported - exact) / spread


@pytest.mark.parametrize("samples", [3 * BLOCK_SIZE + 1, 5 * BLOCK_SIZE])
@pytest.mark.parametrize(
    "integrate,p",
    [
        (integrate_poly_sphere, parse_poly("x1^2 + 2*x1*x2 - x3", 3)),
        (integrate_poly_ball, parse_poly("x1^4 - x2^2 + x1", 3)),
    ],
)
def test_standard_error_matches_its_exact_value_across_blocks(integrate, p, samples):
    # the block merge and the block count reach the standard error only past one
    # block; the bound |z| <= 5 was fixed before these seeds ran, and each of the
    # 8 z-scores of this test passes it with probability 1 - 5.7e-7, so the
    # family-wise false-alarm rate is below 5e-6.  A standard error 1.1 times
    # too large reads |z| >= 37 here.
    for seed in (41, 42):
        z = _standard_error_z(integrate, p, samples, seed)
        assert abs(z) <= 5, (seed, z)


def test_exact_spec_is_default():
    assert EXACT.method == "exact"
    p = MultiPoly(1, {(2,): 1})
    # integral of x^2 over [-1, 1] = 2/3: the one case with no pi factor
    assert integrate_poly_ball(p, 1).exact == PiRational(Fraction(2, 3), 0)
