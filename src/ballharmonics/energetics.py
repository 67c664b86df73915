"""Dirichlet energies of polynomial maps on balls and spheres, plus decay fits.

For a map u: R^n -> R^m the quantities are

    E(r)        integral of |grad u|^2 over the ball of radius r,
    total(r)    integral of |grad u|^2 over the sphere of radius r,
    normal(r)   integral of |du/dnu|^2 over that sphere,
    H(r)        total(r) - normal(r), the tangential surface energy.

The normal derivative on the sphere of radius r is <x, grad u^i> / r, so
normal(r) is r^-2 times the sphere integral of sum_i <x, grad u^i>^2.  Two
exact routes compute E, total and normal; the route follows from the input:

  * Fischer route, for a certified HarmonicMap with exact coefficients and
    the exact spec.  For harmonic p of degree d the integral of p^2 over
    S^(n-1) is |S^(n-1)| [p, p] / (n (n+2) ... (n+2d-2)), with the Fischer
    product [p, p] = sum_alpha alpha! p_alpha^2 (Axler, Bourdon and Ramey,
    Harmonic Function Theory, ch. 5).  Parts of different degree are
    orthogonal on spheres and <x, grad u_d> = d u_d, so with S_d the
    unit-sphere integral of |u_d|^2:

        E(r)      = sum_d d S_d r^(n + 2d - 2),
        total(r)  = sum_d d (n + 2d - 2) S_d r^(n + 2d - 3),
        normal(r) = sum_d d^2 S_d r^(n + 2d - 3),

    costing O(terms) once per map and O(#degrees) per radius.
  * Pairwise quadrature route, for every other input on the exact spec (bare
    polynomials, uncertified maps, float coefficients at their exact binary
    values).  The monomial quadrature of :mod:`integration` (Folland) is
    applied to the bilinear forms pair by pair: for terms p_a x^a and p_b x^b
    of one component, |grad u|^2 gets p_a p_b sum_k a_k b_k I(a + b - 2 e_k),
    sum_i <x, grad u^i>^2 gets |a| |b| p_a p_b I(a + b) and the flux sum_i
    u^i <x, grad u^i> gets (|a| + |b|)/2 p_a p_b I(a + b), with I the
    unit-sphere monomial integral.  Only pairs with a = b mod 2 in every
    coordinate are visited, since every other pair integrates to zero.  The
    sums are kept per integrand degree, so each radius again costs
    O(#degrees).  Nothing here uses that u is harmonic: it is plain
    quadrature of the stated integrands.

Every energy, and the flux of :mod:`identities`, is one (density, domain,
lift) read through ``_energy``; Monte Carlo specs sum the squares of the
partials d_k u^i or pairings, or the products u^i <x, grad u^i>, at the
sample points, and :mod:`integration` alone decides how r enters.  No route
forms a squared polynomial.  The Pohozaev and Green identities in
:mod:`identities` pass the bare body, so they stay on quadrature: with the
Fischer route on both sides their residuals would vanish by construction.  Energies scale quadratically
in the map and decay like r^(n + 2k - 2) per homogeneous degree-k component;
the fitting helpers below measure that decay from log-log samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import add

from .exactmath import as_fraction
from .harmonics import HarmonicMap
from .integration import (
    EXACT,
    EXACT_METHOD,
    IntegralResult,
    QuadratureSpec,
    _Profile,
    _degree_profile,
    _mc_integral,
    _radial_integral,
    _sphere_monomial_rational,
)
from .polynomials import VectorPoly, as_vector, gradient, radial_pairing


def map_body(u) -> VectorPoly:
    """Accept a HarmonicMap, VectorPoly or scalar MultiPoly."""
    if isinstance(u, HarmonicMap):
        return u.body
    return as_vector(u)


@dataclass(frozen=True)
class _RadialProfile:
    """Exact unit-sphere integrals of a map's energy densities, per integrand degree.

    Each field holds (d, c_d) pairs: the degree-d part of the integrand
    integrates to c_d r^(n - 1 + d) pi^(n // 2) over the sphere of radius r
    (see :func:`_radial_integral`).  ``grad`` is |grad u|^2, ``pairing`` is
    sum_i <x, grad u^i>^2 and ``flux`` is sum_i u^i <x, grad u^i>.
    """

    grad: _Profile
    pairing: _Profile
    flux: _Profile


@lru_cache(maxsize=512)
def _fischer_profile(body: VectorPoly) -> _Profile:
    """(d, S_d) for each degree d >= 1 of a harmonic body with exact coefficients.

    S_d is the rational part of the unit-sphere integral of sum_i |u^i_d|^2,
    from the Fischer norm [p, p] = sum_alpha alpha! p_alpha^2 of the
    degree-d parts: the integral of p^2 is |S^(n-1)| [p, p] / (n (n+2) ...
    (n+2d-2)) for harmonic p.  Degree 0 carries no energy and is skipped.
    """
    n = body.dimension
    terms = [(exps, as_fraction(c)) for comp in body for exps, c in comp.terms()]
    den = math.lcm(*(c.denominator for _, c in terms))
    norms: dict[int, int] = {}
    for exps, c in terms:
        d = sum(exps)
        if d:
            num = c.numerator * (den // c.denominator)
            norms[d] = norms.get(d, 0) + math.prod(map(math.factorial, exps)) * num * num
    area = _sphere_monomial_rational(n, 0)
    return tuple(
        (d, area * Fraction(norm, den * den) / math.prod(range(n, n + 2 * d - 1, 2)))
        for d, norm in sorted(norms.items())
    )


def _fischer_radial(body: VectorPoly) -> _RadialProfile:
    """The radial profile of a harmonic body, read off its Fischer profile.

    Euler's identity <x, grad u_d> = d u_d and the orthogonality of different
    degrees give the unit-sphere integrals d (n + 2d - 2) S_d of |grad u_d|^2
    at integrand degree 2d - 2 (the r-derivative of E), and d^2 S_d of the
    pairing square and d S_d of the flux at degree 2d.
    """
    n = body.dimension
    profile = _fischer_profile(body)
    return _RadialProfile(
        grad=tuple((2 * d - 2, d * (n + 2 * d - 2) * s) for d, s in profile),
        pairing=tuple((2 * d, d * d * s) for d, s in profile),
        flux=tuple((2 * d, d * s) for d, s in profile),
    )


@lru_cache(maxsize=512)
def _pairwise_profile(body: VectorPoly) -> _RadialProfile:
    """The radial profile of any body, by pairwise quadrature.

    One pass over the term pairs (a, b) of each component, visiting only
    pairs with a = b mod 2 in every coordinate (all others integrate to zero
    over spheres).  Coefficients are taken exactly (a float at its binary
    value) and brought to a common denominator, so the pair weights are
    integers, summed per monomial before each monomial is integrated once.
    """
    n = body.dimension
    comps = [[(exps, as_fraction(c)) for exps, c in comp.terms()] for comp in body]
    den = math.lcm(*(c.denominator for comp in comps for _, c in comp))
    grad: dict[tuple, int] = {}
    pairing: dict[tuple, int] = {}
    flux: dict[tuple, int] = {}
    for comp in comps:
        classes: dict[tuple, list] = {}
        for exps, c in comp:
            support = tuple(k for k, e in enumerate(exps) if e)
            term = (exps, c.numerator * (den // c.denominator), sum(exps), support)
            classes.setdefault(tuple(e & 1 for e in exps), []).append(term)
        for members in classes.values():
            for i, (a, ca, da, support) in enumerate(members):
                for j in range(i, len(members)):
                    b, cb, db, _ = members[j]
                    # the pair (a, b) stands for (b, a) too off the diagonal
                    w = ca * cb if i == j else 2 * ca * cb
                    key = tuple(map(add, a, b))
                    pairing[key] = pairing.get(key, 0) + da * db * w
                    # exact halving: da + db = 2 da on the diagonal, w is even off it
                    flux[key] = flux.get(key, 0) + (da + db) * w // 2
                    for k in support:
                        if b[k]:
                            g = key[:k] + (key[k] - 2,) + key[k + 1 :]
                            grad[g] = grad.get(g, 0) + a[k] * b[k] * w

    def by_degree(weights: dict[tuple, int]) -> _Profile:
        return tuple((d, c / den**2) for d, c in _degree_profile(n, weights.items()))

    return _RadialProfile(by_degree(grad), by_degree(pairing), by_degree(flux))


def _fischer_route(u, spec: QuadratureSpec) -> bool:
    """True when u's energies may be read off its Fischer profile.

    That needs harmonic components (certified), exact coefficients and an
    exact spec.
    """
    return (
        spec.method == EXACT_METHOD
        and isinstance(u, HarmonicMap)
        and u.certified
        and u.body.is_exact
    )


def _exact_profile(u, spec: QuadratureSpec) -> _RadialProfile:
    """u's radial profile on the exact spec.

    Fischer for certified exact maps, pairwise quadrature for everything else.
    """
    if _fischer_route(u, spec):
        return _fischer_radial(u.body)
    return _pairwise_profile(map_body(u))


# density -> (the rows a Monte Carlo block evaluates, the form that combines them)
_MC_ROWS = {
    "grad": lambda body: ([d for c in body for d in gradient(c) if not d.is_zero], "squares"),
    "pairing": lambda body: (radial_pairing(body), "squares"),
    "flux": lambda body: ((*body, *radial_pairing(body)), "products"),
}


def _check_radius(r) -> None:
    if not 0.0 < float(r) <= 1.0:
        raise ValueError(f"radius must lie in (0, 1], got {r!r}")


def _energy(u, r, spec: QuadratureSpec, density: str, ball=False, lift=0) -> IntegralResult:
    """A ``_RadialProfile`` field of u over the sphere or ball of radius r, times r^lift.

    The exact spec reads u's radial profile at r, Monte Carlo samples the
    density's rows; on both routes :mod:`integration` alone decides how r enters.
    """
    _check_radius(r)
    body = map_body(u)
    n = body.dimension
    if spec.method == EXACT_METHOD:
        return _radial_integral(n, getattr(_exact_profile(u, spec), density), r, ball, lift)
    rows, form = _MC_ROWS[density](body)
    return _mc_integral(n, rows, form, r, spec, ball, lift)


def dirichlet_energy_result(u, r=1, spec: QuadratureSpec = EXACT) -> IntegralResult:
    return _energy(u, r, spec, "grad", ball=True)


def dirichlet_energy(u, r=1, spec: QuadratureSpec = EXACT) -> float:
    """E(r): the Dirichlet energy of u over the ball of radius r <= 1."""
    return dirichlet_energy_result(u, r, spec).value


def surface_energy_total_result(u, r=1, spec: QuadratureSpec = EXACT) -> IntegralResult:
    """total(r): the integral of |grad u|^2 over the sphere of radius r <= 1."""
    return _energy(u, r, spec, "grad")


def normal_energy_result(u, r=1, spec: QuadratureSpec = EXACT) -> IntegralResult:
    """normal(r): the integral of |du/dnu|^2 over the sphere of radius r <= 1."""
    return _energy(u, r, spec, "pairing", lift=-2)


def surface_dirichlet_result(u, r=1, spec: QuadratureSpec = EXACT) -> IntegralResult:
    """H(r): the tangential surface energy, total minus normal."""
    total = surface_energy_total_result(u, r, spec)
    tangential = total.minus(normal_energy_result(u, r, spec))
    if tangential.exact is not None:
        if tangential.exact.coeff < 0:
            raise ArithmeticError(
                f"tangential surface energy came out negative ({tangential.exact!r}); "
                f"total - normal is non-negative pointwise"
            )
        return tangential
    # the sign rides on value even when it underflows to -0.0; sizes compare in logs
    if math.copysign(1.0, tangential.value) < 0.0:
        if tangential.log_abs_value > math.log(1e-12) + max(total.log_abs_value, 0.0):
            raise ArithmeticError(
                f"tangential surface energy came out negative ({tangential.value!r}, "
                f"log |value| = {tangential.log_abs_value:.6g}); "
                f"Monte Carlo error exceeded the sanity floor"
            )
        return replace(tangential, value=0.0, log_abs_value=-math.inf)
    return tangential


# -- profiles and decay fits ----------------------------------------------------


@dataclass(frozen=True)
class EnergyProfile:
    """E(r) sampled on a strictly increasing radius grid in (0, 1]."""

    map_label: str
    dimension: int
    samples: tuple[tuple[float, float, float], ...]  # (r, E, log E)
    method: QuadratureSpec

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(s[0] for s in self.samples)

    @property
    def energies(self) -> tuple[float, ...]:
        return tuple(s[1] for s in self.samples)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log E = log_amplitude + exponent * log r."""

    exponent: float
    log_amplitude: float
    max_abs_residual: float
    points_used: int


@dataclass(frozen=True)
class DecayBoundReport:
    """Outcome of checking E(r) <= C (r/R)^beta E(R) on all radius pairs."""

    beta: float
    constant: float
    holds: bool
    worst_margin: float
    worst_pair: tuple[float, float]
    pairs_checked: int


def _check_radii(radii) -> tuple[float, ...]:
    rs = tuple(float(r) for r in radii)
    if not rs:
        raise ValueError("need at least one radius")
    if any(not 0.0 < r <= 1.0 for r in rs):
        raise ValueError(f"radii must lie in (0, 1], got {rs}")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError(f"radii must be strictly increasing, got {rs}")
    return rs


def energy_profile(u, radii, spec: QuadratureSpec = EXACT) -> EnergyProfile:
    """Sample the Dirichlet energy of u on the given radius grid."""
    rs = _check_radii(radii)
    label = u.label if isinstance(u, HarmonicMap) else ""
    samples = []
    for r in rs:
        res = dirichlet_energy_result(u, r, spec)
        samples.append((r, res.value, res.log_abs_value))
    return EnergyProfile(
        map_label=label,
        dimension=map_body(u).dimension,
        samples=tuple(samples),
        method=spec,
    )


def _least_squares_line(xs, ys, what: str) -> tuple[float, float, float]:
    """Slope, intercept and largest |residual| of the least-squares line through (xs, ys).

    ``what`` names the abscissae for the error raised when they are all equal.
    """
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError(f"a log-log fit needs at least two distinct {what}")
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    return slope, intercept, max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))


def fit_decay_exponent(profile: EnergyProfile) -> DecayFit:
    """Fit the decay exponent from the profile's positive-energy samples.

    Samples are kept on their log E, which comes from the exact value and
    stays finite where the float E underflows to 0.
    """
    pts = [(math.log(r), log_e) for r, _, log_e in profile.samples if log_e > -math.inf]
    dropped = len(profile.samples) - len(pts)
    if dropped:
        warnings.warn(
            f"decay fit dropped {dropped} non-positive energy sample(s)",
            stacklevel=2,
        )
    if len(pts) < 2:
        raise ValueError("decay fit needs at least two positive energy samples")
    slope, intercept, max_resid = _least_squares_line(
        [p[0] for p in pts], [p[1] for p in pts], "radii"
    )
    return DecayFit(
        exponent=slope,
        log_amplitude=intercept,
        max_abs_residual=max_resid,
        points_used=len(pts),
    )


def verify_decay_bound(
    u, beta: float, constant: float, radii, spec: QuadratureSpec = EXACT
) -> DecayBoundReport:
    """Check E(r) <= constant * (r/R)^beta * E(R) over all pairs r < R.

    The margin of a pair is E(r) / (constant (r/R)^beta E(R)); the bound
    holds when every margin is <= 1 up to 1e-12 relative slack.  Pairs with
    E(R) = 0 hold vacuously iff E(r) = 0 too (energy is monotone in r).
    Where the float denominator underflows to 0 or overflows, the margin is
    formed from the logs of the energies instead, which stay finite.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if not (math.isfinite(constant) and constant > 0):
        raise ValueError(f"constant must be positive and finite, got {constant!r}")
    rs = _check_radii(radii)
    if len(rs) < 2:
        raise ValueError("need at least two radii to compare")
    energies = [dirichlet_energy_result(u, r, spec) for r in rs]
    worst_margin = 0.0
    worst_pair = (rs[0], rs[-1])
    pairs = 0
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            pairs += 1
            r_small, r_big = rs[i], rs[j]
            margin = _decay_margin(energies[i], energies[j], r_small, r_big, beta, constant)
            if margin > worst_margin:
                worst_margin = margin
                worst_pair = (r_small, r_big)
    return DecayBoundReport(
        beta=beta,
        constant=constant,
        holds=worst_margin <= 1.0 + 1e-12,
        worst_margin=worst_margin,
        worst_pair=worst_pair,
        pairs_checked=pairs,
    )


def _decay_margin(
    small: IntegralResult,
    big: IntegralResult,
    r_small: float,
    r_big: float,
    beta: float,
    constant: float,
) -> float:
    """E(r) / (constant (r/R)^beta E(R)) for one pair r < R."""
    if big.log_abs_value == -math.inf:
        return 0.0 if small.log_abs_value == -math.inf else math.inf
    try:
        denom = constant * (r_small / r_big) ** beta * big.value
    except OverflowError:
        denom = math.inf
    if 0.0 < denom < math.inf:
        return small.value / denom
    log_margin = (
        small.log_abs_value
        - math.log(constant)
        - beta * (math.log(r_small) - math.log(r_big))
        - big.log_abs_value
    )
    try:
        return math.exp(log_margin)
    except OverflowError:
        return math.inf


# -- scalar summaries -----------------------------------------------------------


def concentration_fraction(u, r, spec: QuadratureSpec = EXACT) -> float:
    """Fraction of u's unit-ball Dirichlet energy outside the ball of radius r."""
    rf = float(r)
    if not 0.0 < rf < 1.0:
        raise ValueError(f"inner radius must lie strictly in (0, 1), got {r!r}")
    inner = dirichlet_energy_result(u, r, spec)
    outer = dirichlet_energy_result(u, 1, spec)
    try:
        inside = inner.ratio(outer)
    except ZeroDivisionError:
        raise ValueError("map has zero Dirichlet energy; fraction undefined") from None
    return float(1 - inside)


def half_radius_theta(u, big_radius=1, spec: QuadratureSpec = EXACT) -> float:
    """The contraction factor E(R/2) / E(R) at R = big_radius."""
    _check_radius(big_radius)
    half = dirichlet_energy_result(u, as_fraction(big_radius) / 2, spec)
    full = dirichlet_energy_result(u, big_radius, spec)
    try:
        return float(half.ratio(full))
    except ZeroDivisionError:
        raise ValueError("map has zero Dirichlet energy; contraction undefined") from None
