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

Monte Carlo route: one SFC64 stream per 32768-sample block, seeded by
``SeedSequence((seed, block))``, with per-block partial sums reduced in block
order via ``math.fsum`` and per-block centred sums of squares merged in
block order for the variance.  A point is z / |z| for a standard normal z
in R^n, and a block draws only the k axes its terms read: a (k, count)
normal array, axis-major so that each axis is one contiguous row, then one
chi^2(n - k) variate per sample for the unread part of |z|^2, taken as
twice a Gamma((n - k)/2) variate (Muller 1959; Marsaglia 1972), then, on
the ball, the uniform radii.  When n - k = 1 the unread axis is one more
normal row, since a chi^2(1) variate costs more than a normal.  A monomial
is formed by squaring the whole monomial bit by bit, never by ``pow``.
Each lane evaluates its blocks in one set of buffers, allocated per call
in the calling thread.  The calling thread works one lane and starts at
most min(workers, blocks, CPUs) - 1 helper threads; every lane claims the
next block in ascending order, the blocks are merged in block order, and
the first error in any lane stops the rest.  Every Monte Carlo integral,
polynomial or energy density, meets r in ``_mc_integral``: homogeneous rows
are sampled on the unit domain, their power of r exact in the measure, and
a mixed-degree integrand whose top power of r leaves the float range is
refused.  Results are a pure function of (seed, samples); the worker count
changes wall time only.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable

import numpy as np

from .exactmath import PiRational, _safe_exp, as_fraction, gamma_half
from .polynomials import Key, MultiPoly, _degree

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

        A difference with a Monte Carlo side carries that side's method and
        samples (this side's, when both sample).  When the float difference
        is 0.0 or not finite because a side's float left the normal range
        while its log stayed finite, log |a - b| comes from the two logs and
        signs, and ``value`` keeps the sign (-0.0 when it underflows).
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
        sampled = other if self.method == EXACT_METHOD else self
        return IntegralResult(
            value=value,
            log_abs_value=log_abs,
            standard_error=math.hypot(self.standard_error, other.standard_error),
            method=sampled.method,
            samples=sampled.samples,
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
    return math.copysign(_safe_exp(log_abs), sign), log_abs


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


def _degree_profile(n: int, weights: Iterable[tuple[Key, Fraction]]) -> _Profile:
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
            d = _degree(alpha)
            acc[d] = acc.get(d, 0) + w * math.prod([_odd_double_factorial(e) for _, e in alpha])
    return tuple(
        (d, c * _sphere_monomial_rational(n, d)) for d, c in sorted(acc.items()) if c
    )


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
    """Independent stream for one block: SFC64 seeded by the pair (seed, block)."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block))))


def _lanes(workers: int, nblocks: int) -> int:
    """Lanes for one call, the calling thread's among them: no more than the blocks or the CPUs.

    Each lane holds its own buffers, so a call starts lanes - 1 helper threads.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        cpus = os.cpu_count() or 1
    return min(workers, nblocks, cpus)


def _peak(v: np.ndarray) -> float:
    """max |v| without a temporary array; nan when v holds one."""
    return float(np.maximum(v.max(), -v.min()))


def _mc_blocks(
    samples: int,
    seed: int,
    workers: int,
    new_block: Callable[[], Callable[[np.random.Generator, int], np.ndarray]],
) -> tuple[float, float]:
    """Mean and standard error over ``samples`` draws of the blocks that ``new_block()`` evaluates.

    ``new_block()`` returns one thread's ``block_values(gen, count)``, which
    gives the values of ``count`` samples drawn from gen as a float64 array
    that the reduction then overwrites, so one set of buffers serves every
    block a lane takes.  The calling thread works lane 0 next to
    ``_lanes(workers, nblocks) - 1`` helper threads; each lane claims the
    lowest unclaimed block from one shared counter, and block b always draws
    from ``_substream(seed, b)``, so which lane took a block changes no bit.
    The first error in any lane, an interrupt of the calling thread's lane
    included, stops every lane at its next claim and is raised once every
    helper has returned, so no thread outlives the call.
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
    lanes = _lanes(workers, nblocks)
    # made here, in the calling thread: buffers first allocated in a worker
    # thread come from that thread's malloc arena, which keeps their pages
    evaluators = [new_block() for _ in range(lanes)]
    partials: list = [None] * nblocks
    unclaimed = iter(range(nblocks))
    claim_lock = threading.Lock()
    errors: list[BaseException] = []  # a lane's error stops every lane at its next claim

    def claim() -> int | None:
        with claim_lock:
            return None if errors else next(unclaimed, None)

    def lane(block_values: Callable[[np.random.Generator, int], np.ndarray]) -> None:
        try:
            while (block := claim()) is not None:
                count = min(BLOCK_SIZE, samples - block * BLOCK_SIZE)
                v = block_values(_substream(seed, block), count)
                scale = math.frexp(_peak(v))[1]
                np.ldexp(v, -scale, out=v)
                total = float(np.sum(v))
                v -= total / count
                peak = _peak(v)
                np.ldexp(v, -math.frexp(peak)[1], out=v)
                v *= v
                # np.sum, not a BLAS dot, whose summation order follows the BLAS thread count
                partials[block] = count, scale, total, peak, float(np.sum(v))
        except BaseException as error:  # an interrupt of the calling thread's lane too
            errors.append(error)

    if lanes > 1:
        # the calling thread works lane 0; leaving the pool joins its helpers
        with ThreadPoolExecutor(max_workers=lanes - 1) as pool:
            for block_values in evaluators[1:]:
                pool.submit(lane, block_values)
            lane(evaluators[0])
    else:
        lane(evaluators[0])
    if errors:
        raise errors[0]
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


def _term_into(out: np.ndarray, x, c: float, factors) -> np.ndarray:
    """out = c prod_i x[i]^e over the (axis i, exponent e) factors, by squaring the whole monomial.

    x[i] is the row of the sample points' coordinates on axis i.

    Bit by bit from the top, what is formed so far is squared and the rows
    whose exponent has that bit set multiply in: one pass per lower bit plus
    one per set bit past the first, however many axes the monomial reads.
    """
    src = None
    for bit in reversed(range(max((e for _, e in factors), default=0).bit_length())):
        if src is not None:
            src = np.multiply(src, src, out=out)
        for i, e in factors:
            if e >> bit & 1:
                src = x[i] if src is None else np.multiply(src, x[i], out=out)
    if src is None:
        out.fill(c)
    elif c != 1.0 or src is not out:
        np.multiply(src, c, out=out)
    return out


def _row_into(out: np.ndarray, spare: np.ndarray, x, terms) -> np.ndarray:
    """out = a row's terms at the points x, added in term order; spare is scratch."""
    if not terms:
        out.fill(0.0)
        return out
    (c, factors), *rest = terms
    _term_into(out, x, c, factors)
    for c, factors in rest:
        out += _term_into(spare, x, c, factors)
    return out


def _mc_integral(
    n: int, products: Iterable[tuple], radius, spec: QuadratureSpec, ball: bool, lift=0
) -> IntegralResult:
    """Monte Carlo integral of a sum of products over the radius-r sphere or ball, times r^lift.

    A product (p, q) is the row p times the row q at each sample point, a
    square when q is p, and the row p alone when q is None; every product
    has two rows, or every product has one.  A block draws, in this order, a
    (k, count) standard normal array whose rows are the read axes in
    ascending order, one chi^2(n - k) variate per sample standing for the
    unread part of |z|^2, and (ball only) the uniform radii; when n - k = 1
    the unread axis is one more normal row instead.  It scales the read rows
    to the sample points in place and evaluates each row's terms from them
    (:func:`_term_into`), every step writing into one thread's buffers.
    When every row is homogeneous of one degree e, the points lie on the
    unit domain and the measure carries r^lift and r^e per row of a product
    exactly, so no sample overflows or underflows at an extreme radius; a
    product with an empty row is zero and has no degree, and a mixed-degree
    integrand whose top power of r leaves the float range is refused.  The
    mean times the exact measure (a float radius is an exact binary
    rational) is rounded once, so a constant with an exact sample sum (an
    integer, a dyadic fraction) gives float(exact), error 0.
    """
    r = float(radius)

    def terms_of(row: MultiPoly) -> list[tuple[float, Key]]:
        return [(c, key) for key, c in row._float_terms()]

    # (terms of p, terms of q): the same list when q is p, None when q is None
    plans = []
    for p, q in products:
        p_terms = terms_of(p)
        plans.append((p_terms, p_terms if q is p else None if q is None else terms_of(q)))
    rows = [terms for plan in plans for terms in plan if terms is not None]
    axes = sorted({a for terms in rows for _, factors in terms for a, _ in factors})
    # a product with an empty row is zero everywhere, so its rows carry no degree
    live = [terms for plan in plans if [] not in plan for terms in plan if terms is not None]
    degrees = {sum(e for _, e in factors) for terms in live for _, factors in terms}
    power = 1 if all(q is None for _, q in plans) else 2
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
    one = _degree_profile(n, [((), 1)])
    measure = _radial_integral(n, one, r, ball, lift).exact
    # a chi^2(1) variate costs more than a normal row; two or more unread axes
    # cost less as one chi^2 variate than as normal rows
    chi = n - len(axes) if n - len(axes) >= 2 else 0
    k = n - chi

    def new_block() -> Callable[[np.random.Generator, int], np.ndarray]:
        normals = np.empty(k * BLOCK_SIZE)
        buffers = np.empty((5, BLOCK_SIZE))

        def block_values(gen: np.random.Generator, count: int) -> np.ndarray:
            z = gen.standard_normal(out=normals[: k * count].reshape(k, count))
            norm, out, first, second, spare = buffers[:, :count]
            if chi:
                gen.standard_gamma(chi / 2, out=norm)
                norm += norm  # twice a Gamma(m / 2) variate is a chi^2(m) one
                squares = z
            else:
                np.multiply(z[0], z[0], out=norm)
                squares = z[1:]
            for row in squares:
                norm += np.multiply(row, row, out=spare)
            np.sqrt(norm, out=norm)
            if not norm.all():
                norm[norm == 0.0] = 1.0  # probability-zero guard
            if ball:
                radii = np.power(gen.random(out=first), 1.0 / n, out=first)
                radii *= sample_radius
                scale = np.divide(radii, norm, out=norm)
            else:
                scale = np.divide(sample_radius, norm, out=norm)
            points = z[: len(axes)]
            points *= scale
            x = dict(zip(axes, points))
            for t, (p, q) in enumerate(plans):
                dest = first if t else out
                _row_into(dest, spare, x, p)
                if q is not None:
                    dest *= dest if q is p else _row_into(second, spare, x, q)
                if t:
                    out += dest
            if not plans:
                out.fill(0.0)
            return out

        return block_values

    mean, stderr = _mc_blocks(spec.samples, spec.seed, spec.workers, new_block)
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
        even = ((k, as_fraction(c)) for k, c in p._terms.items() if not any(e % 2 for _, e in k))
        return _radial_integral(n, _degree_profile(n, even), radius, ball)
    return _mc_integral(n, [(p, None)], r, spec, ball)


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
