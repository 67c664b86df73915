"""Unit-ball volumes, sphere areas and thin-shell mass in any dimension.

All quantities are computed in log space first, so dimensions in the
hundreds neither overflow nor lose the leading digits; plain float values
are derived from the logs (0.0 or inf when out of float range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactmath import _LOG_PI, _safe_exp


@dataclass(frozen=True)
class BallVolume:
    """Volume of the unit ball B^n; ``log_volume`` is authoritative."""

    log_volume: float
    volume: float


@dataclass(frozen=True)
class SphereArea:
    """Surface measure of the unit sphere in R^n."""

    log_area: float
    area: float


def unit_ball_volume(n: int) -> BallVolume:
    """V_n = pi^(n/2) / Gamma(n/2 + 1); n = 0 gives the degenerate value 1."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer, got {n!r}")
    log_v = 0.5 * n * _LOG_PI - math.lgamma(0.5 * n + 1.0)
    return BallVolume(log_volume=log_v, volume=_safe_exp(log_v))


def sphere_area(n: int) -> SphereArea:
    """Surface measure of the unit sphere {|x| = 1} in R^n, n V_n; n = 1 gives 2 (two points)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    log_a = math.log(n) + unit_ball_volume(n).log_volume
    return SphereArea(log_area=log_a, area=_safe_exp(log_a))


def volume_argmax(n_max: int) -> int:
    """The integer n in [1, n_max] maximising V_n (ties toward smaller n)."""
    if not isinstance(n_max, int) or n_max < 5:
        raise ValueError(f"n_max must be an integer >= 5, got {n_max!r}")
    best_n, best_log = 1, unit_ball_volume(1).log_volume
    for n in range(2, n_max + 1):
        log_v = unit_ball_volume(n).log_volume
        if log_v > best_log:
            best_n, best_log = n, log_v
    return best_n


def shell_volume_fraction(n: int, inner_radius: float) -> float:
    """Fraction of the unit ball's volume in the shell {inner_radius <= |x| <= 1} of R^n.

    Equals 1 - r^n, computed as -expm1(n log r) so that values
    exponentially close to 1 keep full relative accuracy.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if not 0.0 <= inner_radius <= 1.0:
        raise ValueError(f"inner_radius must lie in [0, 1], got {inner_radius!r}")
    if inner_radius == 0.0:
        return 1.0
    if inner_radius == 1.0:
        return 0.0
    return -math.expm1(n * math.log(inner_radius))


def shell_width_for_mass(n: int, mass: float) -> float:
    """Width w with the shell {1 - w <= |x| <= 1} holding the given mass.

    Solves 1 - (1-w)^n = mass for w; evaluated as -expm1(log1p(-mass)/n),
    stable for the small widths that appear when n is large (w ~ mass/n).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if not 0.0 < mass < 1.0:
        raise ValueError(f"mass must lie strictly between 0 and 1, got {mass!r}")
    return -math.expm1(math.log1p(-mass) / n)
