"""Quadrature over spheres and balls: exact monomial formulas plus Monte Carlo.

Exact route: the integral of x^alpha over the unit sphere in R^n is 0 when
any exponent is odd, and otherwise (Folland)

    2 * prod_i Gamma(beta_i) / Gamma(sum_i beta_i),   beta_i = (alpha_i + 1) / 2,

all gamma values at integer or half-integer points, so the result is an exact
Fraction times pi**(n // 2).  Every exact integral is a weighted sum of such
monomials, kept as a degree profile: pairs (d, c_d), with c_d the weighted
unit-sphere integrals of the degree-d monomials.  Reading a profile at a
radius r is the one radial law: the sphere of radius r gives
sum_d c_d r^(n - 1 + d), the ball sum_d c_d r^(n + d) / (n + d).
Polynomials, the energy densities of :mod:`energetics`, the flux and the
Monte Carlo measure (the profile of the constant 1) are all read that way.

Monte Carlo route: a counter-based Philox generator split into one substream
per 32768-sample block (``Philox(key=seed).jumped(block)``), with per-block
partial sums reduced in block order via ``math.fsum`` and per-block centred
sums of squares merged in block order for the variance.  A point is z / |z|
for a standard normal z in R^n, and a block draws only the k axes its terms
read: a (count, k) normal array, then one chi^2(n - k) variate per sample
for the unread part of |z|^2 (Muller 1959; Marsaglia 1972), then, on the
ball, the uniform radii.  When n - k <= 1 it draws all n normals, since a
chi^2(1) variate costs more than a normal column.  Powers are taken by
squaring.  Every Monte Carlo integral, polynomial or energy density, meets
r in ``_mc_integral``: homogeneous rows are sampled on the unit domain, their
power of r exact in the measure, and a mixed-degree integrand whose top power
of r leaves the float range is refused.  Results are a pure function of
(seed, samples); the worker count changes wall time only.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .exactmath import PiRational, as_fraction, gamma_half
from .polynomials import MultiPoly

BLOCK_SIZE = 1 << 15

EXACT_METHOD = "exact"
MC_METHOD = "monte_carlo"


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: exactly, or by seeded Monte Carlo."""

    method: str = EXACT_METHOD
    samples: int = 0
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.method not in (EXACT_METHOD, MC_METHOD):
            raise ValueError(
                f"method must be {EXACT_METHOD!r} or {MC_METHOD!r}, got {self.method!r}"
            )
        if not isinstance(self.samples, int) or self.samples < 0:
            raise ValueError(f"samples must be a non-negative integer, got {self.samples!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive integer, got {self.workers!r}")


EXACT = QuadratureSpec()


@dataclass(frozen=True)
class IntegralResult:
    """One integral.  ``log_abs_value`` stays finite when ``value`` cannot."""

    value: float
    log_abs_value: float
    standard_error: float
    method: str
    samples: int = 0
    exact: PiRational | None = field(default=None, compare=False)

    @staticmethod
    def from_exact(exact: PiRational) -> "IntegralResult":
        return IntegralResult(
            value=float(exact),
            log_abs_value=exact.log_abs(),
            standard_error=0.0,
            method=EXACT_METHOD,
            exact=exact,
        )

    def scaled(self, factor) -> "IntegralResult":
        """This integral times an exact rational constant, on either route."""
        if self.exact is not None:
            return IntegralResult.from_exact(self.exact.scaled(factor))
        f = float(factor)
        return IntegralResult(
            value=self.value * f,
            log_abs_value=self.log_abs_value + math.log(abs(f)) if f else -math.inf,
            standard_error=self.standard_error * abs(f),
            method=self.method,
            samples=self.samples,
        )

    def ratio(self, other: "IntegralResult") -> Fraction | float:
        """This integral over another: a Fraction when both are exact, else the float quotient.

        A zero denominator raises ZeroDivisionError on either route.
        """
        if self.exact is not None and other.exact is not None:
            return self.exact.ratio(other.exact)
        return self.value / other.value

    def minus(self, other: "IntegralResult") -> "IntegralResult":
        """This integral minus another; exact when both are, else errors add in quadrature.

        When the float difference is 0.0 or not finite because a side's float
        left the normal range while its log stayed finite, log |a - b| comes
        from the two logs and signs, and ``value`` keeps the sign (-0.0 when
        it underflows).
        """
        if self.exact is not None and other.exact is not None:
            return IntegralResult.from_exact(self.exact - other.exact)
        value = self.value - other.value
        log_abs = math.log(abs(value)) if value else -math.inf
        if not (value and math.isfinite(value)) and (self._off_range() or other._off_range()):
            value, log_abs = _log_difference(
                (math.copysign(1.0, self.value), self.log_abs_value),
                (-math.copysign(1.0, other.value), other.log_abs_value),
            )
        return IntegralResult(
            value=value,
            log_abs_value=log_abs,
            standard_error=math.hypot(self.standard_error, other.standard_error),
            method=self.method,
            samples=self.samples,
        )

    def _off_range(self) -> bool:
        """True when the float has lost a magnitude that the log still holds."""
        return self.log_abs_value > -math.inf and not (
            sys.float_info.min <= abs(self.value) < math.inf
        )


def _log_difference(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """(value, log |value|) of the sum of two (sign, log |term|) pairs, formed in logs."""
    (sign, big), (other_sign, small) = sorted((a, b), key=itemgetter(1), reverse=True)
    if sign == other_sign:
        log_abs = big + math.log1p(math.exp(small - big))
    elif small == big:
        return 0.0, -math.inf
    else:
        log_abs = big + math.log(-math.expm1(small - big))
    try:
        magnitude = math.exp(log_abs)
    except OverflowError:
        magnitude = math.inf
    return math.copysign(magnitude, sign), log_abs


@lru_cache(maxsize=65536)
def _sphere_monomial_rational(n: int, d: int) -> Fraction:
    """Rational part of 2^(1 - d/2) pi^(n/2) / Gamma((n + d)/2), for even d >= 0.

    That is the unit-sphere integral of x^alpha over prod_i (alpha_i - 1)!!
    for every even alpha of degree d, since Gamma((a + 1)/2) =
    (a - 1)!! 2^(-a/2) pi^(1/2) for even a.
    """
    den_rat, den_k = gamma_half(n + d)  # Gamma((n + d)/2)
    if n - den_k != 2 * (n // 2):
        raise ArithmeticError("pi half-powers must collapse to an integer power")
    return Fraction(2, 2 ** (d // 2)) / den_rat


_Profile = tuple[tuple[int, Fraction], ...]


def _degree_profile(n: int, weights: Iterable[tuple[tuple[int, ...], Fraction]]) -> _Profile:
    """(d, c_d) per degree d of a weighted sum of even monomials x^alpha in R^n.

    c_d is the sum of w_alpha times the rational part of the unit-sphere
    integral of x^alpha over the monomials of degree d; degrees whose sum
    vanishes are dropped.  That integral is prod_i (alpha_i - 1)!! times one
    factor per degree (:func:`_sphere_monomial_rational`), so each degree
    sums its weights times integers and meets the Gamma formula once.
    """
    acc: dict[int, Fraction] = {}
    for alpha, w in weights:
        if w:
            d = sum(alpha)
            acc[d] = acc.get(d, 0) + w * math.prod(map(_odd_double_factorial, alpha))
    return tuple(
        (d, c * _sphere_monomial_rational(n, d)) for d, c in sorted(acc.items()) if c
    )


@lru_cache(maxsize=256)
def _odd_double_factorial(a: int) -> int:
    """(a - 1)!! for even a >= 0, with (-1)!! = 1."""
    return math.prod(range(a - 1, 0, -2))


def _radial_integral(
    n: int, profile: _Profile, r, ball: bool = False, lift: int = 0
) -> IntegralResult:
    """A profile's integrand over the sphere or the ball of radius r, exactly.

    Over the sphere the degree-d part gives c_d r^(n - 1 + d), over the ball
    c_d r^(n + d) / (n + d); either times r^lift.
    """
    rq = as_fraction(r)
    if ball:
        terms = (c * rq ** (n + d + lift) / (n + d) for d, c in profile)
    else:
        terms = (c * rq ** (n - 1 + d + lift) for d, c in profile)
    return IntegralResult.from_exact(PiRational(sum(terms, Fraction(0)), n // 2))


# -- Monte Carlo engine -------------------------------------------------------


def _substream(seed: int, block: int) -> np.random.Generator:
    """Independent stream for one block; counter-based, so jumps are cheap."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(block))


def _mc_blocks(
    samples: int,
    seed: int,
    workers: int,
    block_values: Callable[[np.random.Generator, int], np.ndarray],
) -> tuple[float, float]:
    """Mean and standard error of block_values over ``samples`` draws.

    Each block returns its sum and its sum of squares about its own mean;
    the centred sums are merged in block order (Chan, Golub and LeVeque), so
    the variance never comes from the cancelling difference s2 - N mean^2.
    Each block is summed in units of the power of two just above its largest
    |value|, its centred values are squared in units of a power of two near
    their largest magnitude, and the blocks are merged in units of common
    powers of two, so neither the sums nor the squares overflow or underflow
    whatever the integrand's scale.  Scaling by a power of two is exact while
    the scaled values stay normal, and then the result is the same to the bit
    as in unscaled arithmetic.  Every Monte Carlo estimate comes through here,
    so this is where fewer than two samples, which leave the standard error
    undefined, are refused.
    """
    if not isinstance(samples, int) or samples < 2:
        raise ValueError(
            f"Monte Carlo needs at least 2 samples to estimate its standard error, "
            f"got {samples!r}"
        )
    nblocks = (samples + BLOCK_SIZE - 1) // BLOCK_SIZE

    def one(block: int) -> tuple[int, int, float, float, float]:
        count = min(BLOCK_SIZE, samples - block * BLOCK_SIZE)
        v = block_values(_substream(seed, block), count)
        scale = math.frexp(float(np.max(np.abs(v))))[1]
        v = np.ldexp(v, -scale)
        total = float(np.sum(v))
        centred = v - total / count
        peak = float(np.max(np.abs(centred)))
        scaled = np.ldexp(centred, -math.frexp(peak)[1])
        # np.sum, not a BLAS dot, whose summation order follows the BLAS thread count
        return count, scale, total, peak, float(np.sum(scaled * scaled))

    if workers > 1 and nblocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(one, range(nblocks)))
    else:
        partials = [one(b) for b in range(nblocks)]
    # block totals and peaks in units of 2^top, the largest block scale
    top = max(p[1] for p in partials)
    partials = [
        (count, math.ldexp(total, scale - top), math.ldexp(peak, scale - top), m2_scaled)
        for count, scale, total, peak, m2_scaled in partials
    ]
    mean = math.ldexp(math.fsum(p[1] for p in partials) / samples, top)
    # every centred value and every difference of block means is below 2^unit
    means = [b_total / b_count for b_count, b_total, _, _ in partials]
    unit = math.frexp(max(max(p[2] for p in partials), max(means) - min(means)))[1]

    def m2_in_units(peak: float, m2_scaled: float) -> float:
        return math.ldexp(m2_scaled, 2 * (math.frexp(peak)[1] - unit))

    count, total, peak, m2_scaled = partials[0]
    m2 = m2_in_units(peak, m2_scaled)
    for b_count, b_total, b_peak, b_m2_scaled in partials[1:]:
        delta = math.ldexp(b_total / b_count - total / count, -unit)
        m2 += m2_in_units(b_peak, b_m2_scaled) + delta * delta * count * b_count / (count + b_count)
        count += b_count
        total += b_total
    return mean, math.ldexp(math.sqrt(m2 / (samples - 1) / samples), unit + top)


def _power(powers: dict, a: int, e: int) -> np.ndarray:
    """x_a^e as (x_a^(e // 2))^2, times x_a when e is odd, memoised in a block's ``powers``."""
    if (a, e) not in powers:
        half = _power(powers, a, e // 2)
        powers[a, e] = half * half * powers[a, 1] if e % 2 else half * half
    return powers[a, e]


# form -> (how a block combines the rows' values, integrand degree per row degree);
# "products" reads rows u^1 .. u^m, then v^1 .. v^m, as sum_i u^i v^i
_FORMS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], int]] = {
    "value": (itemgetter(0), 1),
    "squares": (lambda v: np.sum(v * v, axis=0), 2),
    "products": (lambda v: np.sum(v[: len(v) // 2] * v[len(v) // 2 :], axis=0), 2),
}


def _mc_integral(
    n: int, rows: Sequence[MultiPoly], form: str, radius, spec: QuadratureSpec, ball: bool, lift=0
) -> IntegralResult:
    """Monte Carlo integral of ``form`` of the rows over the radius-r sphere or ball, times r^lift.

    values[j] holds rows[j] at a block's sample points, built from only the
    coordinates some term reads, with powers by squaring.  A block draws the
    k read axes' normals in ascending axis order, then one chi^2(n - k)
    variate per sample standing for the unread part of |z|^2, then (ball
    only) the uniform radii; when n - k <= 1 it draws all n normals instead.
    When every nonzero row is homogeneous of one degree e, the points lie on
    the unit domain and the measure carries r^(lift + power e) exactly, so no
    sample overflows or underflows at an extreme radius; a mixed-degree
    integrand whose top power of r leaves the float range is refused.  The
    mean times the exact measure (a float radius is an exact binary rational)
    is rounded once, so a constant with an exact sample sum (an integer, a
    dyadic fraction) gives float(exact), error 0.
    """
    combine, power = _FORMS[form]
    r = float(radius)
    terms_of = [
        [(float(c), tuple((a, e) for a, e in enumerate(exps) if e)) for exps, c in p.terms()]
        for p in rows
    ]
    axes = sorted({a for terms in terms_of for _, factors in terms for a, _ in factors})
    unread = n - len(axes)
    degrees = {sum(e for _, e in factors) for terms in terms_of for _, factors in terms}
    if len(degrees) <= 1:
        lift += power * max(degrees, default=0)
        sample_radius = 1.0  # r^(power e) rides in the measure
    else:
        top = power * max(degrees)
        if not math.log(sys.float_info.min) <= top * math.log(r) <= math.log(sys.float_info.max):
            raise ValueError(
                f"Monte Carlo on a polynomial of mixed degree needs radius^{top} "
                f"inside the float range, got radius {r!r}"
            )
        sample_radius = r
    one = _degree_profile(n, [((0,) * n, 1)])
    measure = _radial_integral(n, one, r, ball, lift).exact

    def block_values(gen: np.random.Generator, count: int) -> np.ndarray:
        if unread >= 2:
            z = gen.standard_normal((count, len(axes)))
            cols = z.T
            norms = np.sqrt(gen.chisquare(unread, count) + np.einsum("ij,ij->i", z, z))
        else:
            z = gen.standard_normal((count, n))
            cols = [z[:, a] for a in axes]
            norms = np.linalg.norm(z, axis=1)
        norms[norms == 0.0] = 1.0  # probability-zero guard
        scale = (sample_radius * gen.random(count) ** (1.0 / n) if ball else sample_radius) / norms
        powers = {(a, 1): scale * col for a, col in zip(axes, cols)}
        values = np.zeros((len(terms_of), count))
        for row, terms in zip(values, terms_of):
            for c, factors in terms:
                t = c * _power(powers, *factors[0]) if factors else c
                for a, e in factors[1:]:
                    t *= _power(powers, a, e)
                row += t
        return combine(values)

    mean, stderr = _mc_blocks(spec.samples, spec.seed, spec.workers, block_values)
    log_abs = (measure.log_abs() + math.log(abs(mean))) if mean != 0.0 else -math.inf
    return IntegralResult(
        value=float(measure.scaled(as_fraction(mean))),
        log_abs_value=log_abs,
        standard_error=float(measure) * stderr if stderr else 0.0,
        method=MC_METHOD,
        samples=spec.samples,
    )


def _integrate_poly(p: MultiPoly, radius, spec: QuadratureSpec, ball: bool) -> IntegralResult:
    r = float(radius)
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    n = p.dimension
    if spec.method == EXACT_METHOD:
        even = ((exps, as_fraction(c)) for exps, c in p.terms() if not any(e % 2 for e in exps))
        return _radial_integral(n, _degree_profile(n, even), radius, ball)
    return _mc_integral(n, [p], "value", r, spec, ball)


def integrate_poly_sphere(
    p: MultiPoly, radius=1, spec: QuadratureSpec = EXACT
) -> IntegralResult:
    """Integral of p over the sphere {|x| = radius} in R^(p.dimension)."""
    return _integrate_poly(p, radius, spec, ball=False)


def integrate_poly_ball(
    p: MultiPoly, radius=1, spec: QuadratureSpec = EXACT
) -> IntegralResult:
    """Integral of p over the solid ball {|x| <= radius} in R^(p.dimension)."""
    return _integrate_poly(p, radius, spec, ball=True)
