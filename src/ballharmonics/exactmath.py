"""Exact values that are rational multiples of integer powers of pi.

Closed-form monomial integrals over the sphere S^{n-1} and the ball B^n are
built from gamma values at integer and half-integer arguments.  For fixed n
every such integral collapses to

    (rational) * pi**(n // 2),

because each coordinate contributes one factor of sqrt(pi) and the
normalising gamma in the denominator contributes another exactly when n is
odd, so the half powers always cancel.  :class:`PiRational` carries that pair
(exact Fraction, integer pi power) so sums, differences and ratios of
integrals in one dimension stay exact.  Floating conversions are provided for
reporting; log-space values never overflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

_LOG_PI = math.log(math.pi)
# float overflows past ~1.8e308; exp underflows to +0.0 below ~-745.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_TINY = -745.0


def as_fraction(x) -> Fraction:
    """Exact Fraction from an int, a Fraction, a float or another number (a numpy scalar).

    Floats, and other numbers through float(), convert via their exact binary
    value (no decimal rounding).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot convert non-finite float {x!r} to Fraction")
        return Fraction(x)
    # numpy scalars and anything else that knows how to be a float
    return Fraction(float(x))


def gamma_half(twice: int) -> tuple[Fraction, int]:
    """Gamma(twice / 2) as (rational, k) meaning rational * pi**(k/2).

    Exact for every positive integer ``twice``:
      Gamma(m)       = (m-1)!                     (k = 0)
      Gamma(m + 1/2) = (2m)! / (4**m * m!) * sqrt(pi)   (k = 1)
    """
    if twice < 1:
        raise ValueError(f"gamma_half requires a positive argument, got {twice}/2")
    if twice % 2 == 0:
        m = twice // 2
        return Fraction(math.factorial(m - 1)), 0
    m = (twice - 1) // 2
    return Fraction(math.factorial(2 * m), 4**m * math.factorial(m)), 1


def _safe_exp(log_value: float) -> float:
    """exp of a log-space value: 0.0 below the float range, inf above it."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def log_fraction(q: Fraction) -> float:
    """log|q| for a nonzero Fraction of any size (never overflows)."""
    if q == 0:
        return -math.inf
    num, den = abs(q.numerator), q.denominator
    # math.log accepts arbitrary-precision ints directly
    return math.log(num) - math.log(den)


@dataclass(frozen=True)
class PiRational:
    """An exact real of the form coeff * pi**power with coeff rational.

    Instances with different powers cannot be added unless one side is zero;
    that restriction is what keeps all arithmetic exact.  Within one ambient
    dimension n every integral produced by this package has power n // 2, so
    the restriction never bites in practice.
    """

    coeff: Fraction
    power: int

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def sign(self) -> int:
        if self.coeff > 0:
            return 1
        if self.coeff < 0:
            return -1
        return 0

    def __add__(self, other: "PiRational") -> "PiRational":
        if not isinstance(other, PiRational):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.power != other.power:
            raise ValueError(
                f"cannot add pi**{self.power} and pi**{other.power} terms exactly"
            )
        return PiRational(self.coeff + other.coeff, self.power)

    def __sub__(self, other: "PiRational") -> "PiRational":
        return self + (-other)

    def __neg__(self) -> "PiRational":
        return PiRational(-self.coeff, self.power)

    def scaled(self, factor: Rational) -> "PiRational":
        """Exact product with a rational scalar."""
        return PiRational(self.coeff * as_fraction(factor), self.power)

    def ratio(self, other: "PiRational") -> Fraction:
        """Exact self / other when both carry the same pi power."""
        if other.is_zero:
            raise ZeroDivisionError("ratio with a zero PiRational")
        if self.is_zero:
            return Fraction(0)
        if self.power != other.power:
            raise ValueError(
                f"cannot take an exact ratio of pi**{self.power} and pi**{other.power}"
            )
        return self.coeff / other.coeff

    def log_abs(self) -> float:
        """log |value|; -inf for zero.  Safe for huge coefficients."""
        if self.is_zero:
            return -math.inf
        return log_fraction(self.coeff) + self.power * _LOG_PI

    def __float__(self) -> float:
        if self.is_zero:
            return 0.0
        log = self.log_abs()
        if log > _LOG_FLOAT_MAX:
            return math.inf * self.sign()
        if log < _LOG_FLOAT_TINY:
            return 0.0 * self.sign()
        try:
            direct = float(self.coeff) * math.pi**self.power
        except OverflowError:
            direct = math.inf
        if math.isfinite(direct) and direct != 0.0:
            return direct
        # coeff alone over/underflowed while the product is representable
        return self.sign() * math.exp(log)
