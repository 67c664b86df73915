"""Dirichlet energies of polynomial maps on balls and spheres, plus decay fits.

For a map u: R^n -> R^m the quantities are

    E(r)        integral of |grad u|^2 over the ball of radius r,
    total(r)    integral of |grad u|^2 over the sphere of radius r,
    normal(r)   integral of |du/dnu|^2 over that sphere,
    H(r)        total(r) - normal(r), the tangential surface energy.

The normal derivative on the sphere of radius r is <x, grad u^i> / r, so
normal(r) is r^-2 times the sphere integral of sum_i <x, grad u^i>^2.

On the exact spec every energy comes from one radial profile of the body, for
any input: certified maps, bare polynomials and float coefficients (taken at
their exact binary values) alike.  It rests on Wick's theorem: for a standard
Gaussian g in R^n and polynomials p, q,

    E[p(g) q(g)] = [e^(Delta/2) p, e^(Delta/2) q],

with the Fischer product [a, b] = sum_alpha alpha! a_alpha b_alpha (Janson,
Gaussian Hilbert Spaces, ch. 3).  In polar coordinates the unit-sphere
integral of a form of degree D is its Gaussian mean times a factor of n and D
alone (:func:`_sphere_monomial_rational`).  Let w_j = e^(Delta/2) u_j for
each homogeneous part u_j of a component.  Summed over ordered pairs (i, j)
of parts of one parity (other pairs integrate to zero), the densities are

    |grad u|^2              at degree i + j - 2:  sum_alpha |alpha| alpha! w_i,alpha w_j,alpha,
    sum_i <x, grad u^i>^2   at degree i + j:      i j [w_i, w_j],
    sum_i u^i <x, grad u^i> at degree i + j:      (i + j)/2 [w_i, w_j],

the first since Delta commutes with the partials, the other two by Euler's
identity <x, grad u_j> = j u_j.  This is exact quadrature of the stated
integrands and does not assume that u is harmonic.  On a harmonic part it is
short: w_j = u_j, and two harmonic parts of different degree share no
monomial, so a harmonic map costs the Fischer norm of each part, the closed
form of Axler, Bourdon and Ramey (Harmonic Function Theory, ch. 5).  The
profile is kept per integrand degree, so each radius costs O(#degrees).

Every energy, and the flux of :mod:`identities`, is one (density, domain,
lift) read through ``_energy``; Monte Carlo specs hand ``_mc_integral`` the
products it sums at the sample points: (d_k u^i, d_k u^i) for |grad u|^2,
(<x, grad u^i>, <x, grad u^i>) for the pairings and (u^i, <x, grad u^i>) for
the flux, and :mod:`integration` alone decides how r enters.  No route
forms a squared polynomial.  Energies scale quadratically in the map and
decay like r^(n + 2k - 2) per homogeneous degree-k component; the fitting
helpers below measure that decay from log-log samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .exactmath import _safe_exp, as_fraction
from .harmonics import HarmonicMap
from .integration import (
    EXACT,
    EXACT_METHOD,
    IntegralResult,
    QuadratureSpec,
    _Profile,
    _mc_integral,
    _radial_integral,
    _sphere_monomial_rational,
)
from .polynomials import (
    VectorPoly,
    _degree,
    _laplacian_series,
    as_vector,
    gradient,
    radial_pairing,
)


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


# Every caller reads one map's profile back to back (energies at a few radii),
# so four entries keep every hit; a longer cache only keeps old maps alive
# (zonal_solid_harmonic(200, 4) holds 20 100 terms).
@lru_cache(maxsize=4)
def _radial_profile(body: VectorPoly) -> _RadialProfile:
    """The radial profile of any body, by the Fischer sums of the module docstring.

    Each component's parts and their Laplacians are read from its kept
    series (:func:`polynomials._laplacian_series`; certification filled it
    for a constructed map), whose integer numerators over den_i are brought
    to den = lcm(den_i) by weighting that component's sums with (den / den_i)^2.
    A part whose first Laplacian vanishes (always so at degree <= 1) has
    w_j = u_j, and it shares no monomial with the other such parts of its
    component, so it adds its Fischer norm straight into a per-degree sum.
    Every other part is heat-flowed, w_j = sum_t Delta^t u_j / (2^t t!), to
    integers over den 2^T T! (T the most heat steps that any part needs), and
    paired with the parts of its parity.  Each degree D meets
    :func:`_sphere_monomial_rational` once.
    """
    n = body.dimension
    comps = [_laplacian_series(comp) for comp in body]
    den = math.lcm(*(den_i for den_i, _ in comps))
    norms: dict[int, int] = {}  # degree d -> Fischer norm of the harmonic degree-d parts
    # (weight, degree j -> [u_j, Delta u_j, ...]) per component with a non-harmonic part
    mixed = []
    for den_i, series in comps:
        weight = (den // den_i) ** 2
        for j, s in series.items():
            if len(s) == 1:
                norms[j] = norms.get(j, 0) + weight * _fischer_norm(s[0], j)
        if any(len(s) > 1 for s in series.values()):
            mixed.append((weight, series))
    steps = max((len(s) - 1 for _, series in mixed for s in series.values()), default=0)
    scale = 2**steps * math.factorial(steps)
    # Euler's identity on a harmonic part: |alpha| = d, i j = d^2 and (i + j)/2 = d
    grad = {2 * d - 2: d * c * scale**2 for d, c in norms.items()}
    pairing = {2 * d: d * d * c * scale**2 for d, c in norms.items()}
    flux = {2 * d: d * c * scale**2 for d, c in norms.items()}
    for weight, series in mixed:
        heated = {j: _heat(s, scale) for j, s in series.items()}
        degrees = sorted(series)
        for x, i in enumerate(degrees):
            for j in degrees[x:]:
                if (j - i) % 2 or len(series[i]) == len(series[j]) == 1:
                    continue
                f, g = _fischer_sums(heated[i], heated[j])
                # off the diagonal the pair (i, j) stands for (j, i) too
                m = weight if i == j else 2 * weight
                grad[i + j - 2] = grad.get(i + j - 2, 0) + m * g
                pairing[i + j] = pairing.get(i + j, 0) + m * i * j * f
                flux[i + j] = flux.get(i + j, 0) + m * (i + j) // 2 * f
    unit = Fraction(1, (den * scale) ** 2)

    def by_degree(sums: dict[int, int]) -> _Profile:
        return tuple(
            (d, unit * c * _sphere_monomial_rational(n, d)) for d, c in sorted(sums.items()) if c
        )

    return _RadialProfile(by_degree(grad), by_degree(pairing), by_degree(flux))


def _heat(series: list[dict], scale: int) -> dict:
    """scale e^(Delta/2) u = sum_t scale / (2^t t!) Delta^t u, from u's Laplacian series."""
    w: dict = {}
    for t, lap in enumerate(series):
        weight = scale // (2**t * math.factorial(t))
        for key, c in lap.items():
            w[key] = w.get(key, 0) + weight * c
    return w


def _fischer_norm(u: dict, degree: int) -> int:
    """sum alpha! u_alpha^2 over a degree-d part; alpha! = 1 at degree <= 1."""
    if degree <= 1:
        return sum(c * c for c in u.values())
    return sum(math.prod([math.factorial(e) for _, e in alpha]) * c * c for alpha, c in u.items())


def _fischer_sums(a: dict, b: dict) -> tuple[int, int]:
    """sum alpha! a_alpha b_alpha and sum |alpha| alpha! a_alpha b_alpha."""
    if len(b) < len(a):
        a, b = b, a
    f = g = 0
    for alpha, c in a.items():
        other = b.get(alpha)
        if other:
            term = math.prod([math.factorial(e) for _, e in alpha]) * c * other
            f += term
            g += _degree(alpha) * term
    return f, g


# density -> the products of rows that a Monte Carlo block sums (see _mc_integral)
_MC_PRODUCTS = {
    "grad": lambda body: [(d, d) for c in body for d in gradient(c) if not d.is_zero],
    "pairing": lambda body: [(w, w) for w in radial_pairing(body)],
    "flux": lambda body: zip(body, radial_pairing(body)),
}


def _check_radius(r) -> None:
    if not 0.0 < float(r) <= 1.0:
        raise ValueError(f"radius must lie in (0, 1], got {r!r}")


def _energy(u, r, spec: QuadratureSpec, density: str, ball=False, lift=0) -> IntegralResult:
    """A ``_RadialProfile`` field of u over the sphere or ball of radius r, times r^lift.

    The exact spec reads u's radial profile at r, Monte Carlo sums the
    density's products of rows; on both routes :mod:`integration` alone
    decides how r enters.
    """
    _check_radius(r)
    body = map_body(u)
    n = body.dimension
    if spec.method == EXACT_METHOD:
        return _radial_integral(n, getattr(_radial_profile(body), density), r, ball, lift)
    return _mc_integral(n, _MC_PRODUCTS[density](body), r, spec, ball, lift)


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
    stays finite where the float E underflows to 0; ``points_used`` says how
    many there were.
    """
    pts = [(math.log(r), log_e) for r, _, log_e in profile.samples if log_e > -math.inf]
    if len(pts) < 2:
        raise ValueError(
            f"decay fit needs at least two positive energy samples, "
            f"got {len(pts)} of {len(profile.samples)}"
        )
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
    return _safe_exp(
        small.log_abs_value
        - math.log(constant)
        - beta * (math.log(r_small) - math.log(r_big))
        - big.log_abs_value
    )


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
