"""Harmonic polynomial maps on R^n: constructors and certification.

A :class:`HarmonicMap` wraps a vector of polynomials together with a
``certified`` flag that is set by actually checking the Laplacian of every
component (exactly, for exact coefficients).  Constructors here only ever
return certified maps; the flag exists so that downstream identity checks can
refuse maps whose harmonicity was never established.

Random maps project a random homogeneous polynomial onto its harmonic part
h_0 in the Almansi decomposition (:func:`polynomials.harmonic_projection`,
re-exported here), and the degree-k zonal harmonic about a unit axis is
h_0(lead(n, k) <x, axis>^k) (Axler, Bourdon and Ramey, Harmonic Function
Theory, ch. 5; lead in :func:`_zonal_lead`).  The tests hold the two to
oracles: the recursive Almansi split in ``tests/oracles.py`` and the Gegenbauer
three-term recurrence in ``tests/test_harmonics.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .exactmath import as_fraction
from .polynomials import MultiPoly, VectorPoly, _degree, as_vector, harmonic_projection


@dataclass(frozen=True)
class HarmonicMap:
    """A polynomial map u: R^n -> R^m with a verified-harmonic flag.

    ``degree`` is the common homogeneity degree when every component is
    homogeneous of one degree, and None otherwise.
    """

    body: VectorPoly
    degree: int | None
    certified: bool
    label: str = ""

    @property
    def dimension(self) -> int:
        return self.body.dimension


def make_harmonic_map(body: VectorPoly | MultiPoly, label: str = "") -> HarmonicMap:
    """Wrap a polynomial (vector) after checking harmonicity of each component."""
    vec = as_vector(body)
    certified = all(comp.is_harmonic() for comp in vec)
    degrees = {_degree(key) for comp in vec for key in comp._terms}
    degree = None if len(degrees) > 1 else max(degrees, default=0)
    return HarmonicMap(body=vec, degree=degree, certified=certified, label=label)


def identity_map(n: int) -> HarmonicMap:
    """u(x) = x, the simplest non-constant harmonic map."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    body = VectorPoly([MultiPoly.variable(n, axis) for axis in range(n)])
    return make_harmonic_map(body, label=f"identity(n={n})")


def harmonic_sum(
    maps: Sequence[HarmonicMap],
    coefficients: Sequence | None = None,
    label: str = "",
) -> HarmonicMap:
    """Linear combination of maps with equal dimension and arity."""
    if not maps:
        raise ValueError("need at least one map")
    coeffs = [Fraction(1)] * len(maps) if coefficients is None else list(coefficients)
    if len(coeffs) != len(maps):
        raise ValueError("one coefficient per map required")
    total = maps[0].body * (coeffs[0] if isinstance(coeffs[0], float) else as_fraction(coeffs[0]))
    for u, c in zip(maps[1:], coeffs[1:]):
        total = total + u.body * (c if isinstance(c, float) else as_fraction(c))
    return make_harmonic_map(total, label=label or "sum")


# -- zonal harmonics ----------------------------------------------------------


def _zonal_lead(n: int, k: int) -> Fraction:
    """lead(n, k) = 2^k (lambda)_k / k!, lambda = n/2 - 1: the Gegenbauer t^k coefficient.

    Written in t = <x, axis> and s = |x|^2, the projection of t^k has t^k
    coefficient 1, so lead(n, k) times it is the Gegenbauer solid harmonic;
    n = 2 (lambda = 0) takes the Chebyshev 2^(k - 1), n = 1 or k = 0 takes 1.
    """
    if k == 0 or n == 1:
        return Fraction(1)
    if n == 2:
        return Fraction(2 ** (k - 1))
    lam = Fraction(n, 2) - 1
    return 2**k * math.prod(lam + i for i in range(k)) / math.factorial(k)


def zonal_solid_harmonic(
    n: int, k: int, axis: Sequence | None = None
) -> HarmonicMap:
    """The degree-k harmonic polynomial symmetric about ``axis`` (default e1).

    It is the harmonic projection of lead(n, k) <x, axis>^k: the
    Gegenbauer solid harmonic, or the Chebyshev one for n = 2.  The axis must have exactly unit norm in exact arithmetic: rational
    entries with sum of squares 1 (coordinate axes, (3/5, 4/5), ...).  That
    is what makes the result exactly harmonic and the certification exact.
    n = 1 admits only k <= 1; for k >= 2 there is no nonzero harmonic
    polynomial of that degree in one variable.
    """
    # harmonic_space_dimension checks (n, k); the space is zero only for n = 1, k >= 2
    if harmonic_space_dimension(n, k) == 0:
        raise ValueError(
            "no nonzero degree-k harmonic polynomial exists in one variable for k >= 2"
        )
    axis = (1,) + (0,) * (n - 1) if axis is None else axis
    if len(axis) != n:
        raise ValueError(f"axis has {len(axis)} entries, expected {n}")
    axis_f = [as_fraction(a) for a in axis]
    norm_sq = sum(a * a for a in axis_f)
    if norm_sq != 1:
        raise ValueError(
            f"axis must have exactly unit norm; got |axis|^2 = {norm_sq}. "
            f"Use rational unit vectors such as a coordinate axis or (3/5, 4/5)."
        )
    t = MultiPoly._of_keys(n, ((((i, 1),), a) for i, a in enumerate(axis_f)))
    return make_harmonic_map(
        harmonic_projection(t**k * _zonal_lead(n, k)), label=f"zonal(n={n}, k={k})"
    )


# -- harmonic spaces ----------------------------------------------------------


def harmonic_space_dimension(n: int, k: int) -> int:
    """Dimension of the space of degree-k harmonic polynomials in n variables."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"degree must be a non-negative integer, got {k!r}")
    full = math.comb(n + k - 1, k)
    below = math.comb(n + k - 3, k - 2) if k >= 2 else 0
    return full - below


# -- random harmonic polynomials ----------------------------------------------


def _degree_monomials(n: int, k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The keys of all monomials of total degree k, their dense tuples descending.

    The sorted k-multisets of axes, taken in lexicographic order, give their
    exponent tuples in that order, with no recursion over the n variables;
    each distinct axis of a multiset, with its count, is a pair of its key.
    """
    for axes in itertools.combinations_with_replacement(range(n), k):
        yield tuple([(a, axes.count(a)) for a in dict.fromkeys(axes)])


def random_harmonic_polynomial(n: int, k: int, seed: int) -> HarmonicMap:
    """Seeded random degree-k harmonic polynomial (scalar map) in n variables.

    Draws small integer coefficients on all degree-k monomials with a Philox
    generator and projects onto the harmonic subspace; redraws in-stream on
    the measure-zero event that the projection vanishes.  Deterministic in
    (n, k, seed).
    """
    if harmonic_space_dimension(n, k) == 0:
        raise ValueError(
            f"the space of degree-{k} harmonic polynomials in {n} variable(s) is zero"
        )
    gen = np.random.Generator(np.random.Philox(key=seed))
    monomials = list(_degree_monomials(n, k))
    label = f"random(n={n}, k={k}, seed={seed})"
    while True:
        coeffs = gen.integers(-9, 10, size=len(monomials))
        if not np.any(coeffs):
            continue
        p = MultiPoly._of_keys(n, ((m, int(c)) for m, c in zip(monomials, coeffs) if c))
        h = harmonic_projection(p)
        if not h.is_zero:
            return make_harmonic_map(h, label=label)


def standard_maps(n: int, seed: int, max_zonal: int = 5, max_random: int = 4) -> list[HarmonicMap]:
    """The identity/zonal/random family the identity checks run over."""
    maps = [identity_map(n)]
    top_zonal = max_zonal if n > 1 else 1
    maps.extend(zonal_solid_harmonic(n, k) for k in range(0, top_zonal + 1))
    if n > 1:
        maps.extend(
            random_harmonic_polynomial(n, k, seed + 13 * k) for k in range(1, max_random + 1)
        )
    return maps
