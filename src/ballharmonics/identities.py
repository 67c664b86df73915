"""Variational identities for harmonic maps, checked as numeric residuals.

For a certified harmonic map u and radius r in (0, 1]:

  * inner identity:   (n - 2) E(r) = r total(r) - 2 r normal(r),
  * boundary identity: E(r) = (1/r) integral over the sphere of
    sum_i u^i <x, grad u^i>,
  * minimiser bound (n >= 3, u non-constant): E(1) < 2/(n-2) H(1),

with E, total, normal and H as in :mod:`energetics`.  On the exact spec
every side is exact quadrature of its stated integrand, read off the one
radial profile of :mod:`energetics`, which never forms a squared polynomial
and does not assume harmonicity.  The two sides of an identity agree
through the Gamma ratio S(n, 2d) / S(n, 2d - 2) = 1 / (n + 2d - 2) of the
sphere factors (:func:`integration._sphere_monomial_rational`).  On a
harmonic map, though, the arithmetic of both sides reduces to the Fischer
algebra, so they are not independent computations.  The identities hold
with *exactly* zero residual for rational harmonic maps, float coefficients
being taken at their exact binary values.  Monte Carlo specs take every
side, the flux included, through the one radial law of :mod:`integration`
and reproduce the identities to sampling accuracy.
Each check computes its two sides and hands them to :func:`_report`, the one
place a residual is scored and reported.  Residuals are normalised by
max(|lhs|, |rhs|, E(r)) so that the n = 2 inner identity (whose lhs vanishes
identically) is still meaningfully scored.

Identity checks refuse maps whose ``certified`` flag is False: the algebra
behind the identities needs the Laplacian to vanish, and this package only
asserts what it has verified.

:func:`identity_scan` runs all three checks over the standard map family,
and it is the only such loop: the suite's criteria 03, 04 and 08 and the
``identities`` command read its reports.  The module holds nothing else;
criterion 09 reads the identity map's n (n - 1) |B^n| from ``unit_ball_volume``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .energetics import (
    _energy,
    dirichlet_energy_result,
    normal_energy_result,
    surface_dirichlet_result,
    surface_energy_total_result,
)
from .exactmath import PiRational, as_fraction
from .harmonics import HarmonicMap, standard_maps
from .integration import EXACT, IntegralResult, QuadratureSpec

POHOZAEV = "pohozaev"
GREEN = "green"
MINIMISER_BOUND = "minimiser_bound"


@dataclass(frozen=True)
class ResidualReport:
    """lhs, rhs and scaled residual of one identity instance."""

    identity_name: str
    dimension: int
    radius: float
    lhs: float
    rhs: float
    residual: float
    normalized_residual: float
    margin_ratio: float | None = None
    constant: float | None = None
    map_label: str = ""


def _require_certified(u: HarmonicMap) -> None:
    if not isinstance(u, HarmonicMap):
        raise TypeError(f"expected a HarmonicMap, got {type(u).__name__}")
    if not u.certified:
        raise ValueError(
            f"map {u.label!r} is not certified harmonic; identities are only "
            f"checked for maps whose Laplacian has been verified to vanish"
        )


def _flux_result(u, r, spec: QuadratureSpec) -> IntegralResult:
    """(1/r) times the sphere integral of sum_i u^i <x, grad u^i> at radius r."""
    return _energy(u, r, spec, "flux", lift=-1)


def _normalized(lhs: IntegralResult, rhs: IntegralResult, scale: IntegralResult) -> tuple[float, float]:
    """(residual, normalized residual); exact when all three carry exact values.

    A float side that underflows to 0 with a finite log is refused: it would score 0.
    """
    if lhs.exact is not None and rhs.exact is not None and scale.exact is not None:
        res = lhs.exact - rhs.exact
        if res.is_zero:
            return 0.0, 0.0
        denom_coeff = max(
            abs(lhs.exact.coeff), abs(rhs.exact.coeff), abs(scale.exact.coeff)
        )
        denom = PiRational(denom_coeff, res.power)
        return float(res), abs(float(res.ratio(denom)))
    for side in (lhs, rhs, scale):
        if side.value == 0.0 and side.log_abs_value > -math.inf:
            raise ValueError(
                f"a side of the identity underflows to 0.0 as a float (log |value| = "
                f"{side.log_abs_value:.6g}), so its Monte Carlo residual cannot be scored"
            )
    res = lhs.value - rhs.value
    denom = max(abs(lhs.value), abs(rhs.value), abs(scale.value))
    return res, (abs(res) / denom if denom > 0.0 else 0.0)


def _report(name: str, u: HarmonicMap, r, lhs, rhs, scale, **bound) -> ResidualReport:
    """The report of one identity instance, its sides scored by :func:`_normalized`.

    ``bound`` carries the minimiser bound's ``margin_ratio`` and ``constant``.
    """
    residual, normalized = _normalized(lhs, rhs, scale)
    return ResidualReport(
        identity_name=name,
        dimension=u.dimension,
        radius=float(r),
        lhs=lhs.value,
        rhs=rhs.value,
        residual=residual,
        normalized_residual=normalized,
        map_label=u.label,
        **bound,
    )


def pohozaev_residual(
    u: HarmonicMap, r=1, spec: QuadratureSpec = EXACT
) -> ResidualReport:
    """Residual of (n - 2) E(r) = r total(r) - 2 r normal(r)."""
    _require_certified(u)
    energy = dirichlet_energy_result(u, r, spec)
    total = surface_energy_total_result(u, r, spec)
    normal = normal_energy_result(u, r, spec)
    r_exact = as_fraction(r)
    lhs = energy.scaled(u.dimension - 2)
    rhs = total.scaled(r_exact).minus(normal.scaled(2 * r_exact))
    return _report(POHOZAEV, u, r, lhs, rhs, energy)


def green_residual(
    u: HarmonicMap, r=1, spec: QuadratureSpec = EXACT
) -> ResidualReport:
    """Residual of E(r) = (1/r) * integral over the sphere of sum_i u^i <x, grad u^i>."""
    _require_certified(u)
    lhs = dirichlet_energy_result(u, r, spec)
    return _report(GREEN, u, r, lhs, _flux_result(u, r, spec), lhs)


def minimiser_bound_check(u: HarmonicMap, spec: QuadratureSpec = EXACT) -> ResidualReport:
    """Check E(1) < c1 H(1) with c1 = 2/(n-2) for a non-constant certified map, n >= 3.

    ``margin_ratio`` is rhs / lhs and must exceed 1; the caller asserts the
    strictness.  For homogeneous degree-k maps the ratio is exactly
    2 (n + k - 2) / (n - 2).  The report carries c1 in ``constant``: c1 n
    tends to 2 as n grows, the O(1/n) sharpening that makes high-dimensional
    energy decay fast.
    """
    _require_certified(u)
    n = u.dimension
    if n < 3:
        raise ValueError(f"the energy bound needs dimension >= 3, got n = {n}")
    energy = dirichlet_energy_result(u, 1, spec)
    c1 = Fraction(2, n - 2)
    rhs = surface_dirichlet_result(u, 1, spec).scaled(c1)
    try:
        margin = float(rhs.ratio(energy))
    except ZeroDivisionError:
        raise ValueError("constant map: the bound compares two zero energies") from None
    return _report(
        MINIMISER_BOUND, u, 1, energy, rhs, energy, margin_ratio=margin, constant=float(c1)
    )


def identity_scan(
    dims: Iterable[int],
    seed: int,
    radii: Sequence = (0.3, 0.7, 1.0),
    max_zonal: int = 5,
    max_random: int = 4,
) -> Iterator[ResidualReport]:
    """Every identity check over the ``standard_maps`` family of each dimension.

    Per map: the inner then the boundary identity at each radius, then the
    minimiser bound when n >= 3 and the map is not constant.  Criteria 03,
    04 and 08 of the suite and the ``identities`` command read this one
    stream; filtering it by ``identity_name`` keeps each check's order
    (dimension, then map, then radius).
    """
    for n in dims:
        for u in standard_maps(n, seed, max_zonal, max_random):
            for r in radii:
                yield pohozaev_residual(u, r)
                yield green_residual(u, r)
            if n >= 3 and u.degree != 0:
                yield minimiser_bound_check(u)

