"""Reference implementations the tests hold the package to.

Each one computes what a package function computes by a slower, more direct
route, and no package code calls any of them:

* :func:`square` and :func:`grad_norm_sq` form p^2 and |grad u|^2 as
  polynomials, which the energy quadrature never does, :func:`euler_pairing`
  forms <x, grad p> as sum_k x_k d_k p, where ``polynomials.radial_pairing``
  multiplies each term by its degree, :func:`laplacian` forms Delta p as
  sum_k d_k (d_k p), where the package reads the Laplacian series that
  ``polynomials._laplacian_series`` keeps, and :func:`materialised` integrates
  |grad u|^2 and the other squared energy densities monomial by monomial;
* :func:`lowered` makes the float-coefficient twin of an exact poly;
* :func:`fischer_profile` gives the sphere norms of a harmonic map's parts
  by the closed form of Axler, Bourdon and Ramey, where the package pairs
  heat-flowed parts by Wick's theorem and assumes no harmonicity;
* :func:`sample_scalar_on_grid` and :func:`direct_mollify_at` sample a
  polynomial over the whole square [-1, 1]^n and read the convolution sum at
  one node, where ``mollifier.mean_value_check`` samples only the kernel's
  box around each point; :func:`index_of` and :func:`coordinate_of` address
  the nodes -1 + k * spacing of such a field by their own arithmetic, so
  the check's lattice indexing is held to an independent one;
* :func:`gradient_magnitude_at_radii` evaluates |grad J_delta| at given
  radii, so the tests can sum it over every node of a delta's grid, where
  ``mollifier.mollifier_gradient_scaling`` sums it over the lattice's radial
  shells weighted by their node counts;
* :func:`almansi_decomposition` recovers every harmonic part h_j of
  p = sum_j |x|^(2j) h_j recursively, against the closed form of
  ``polynomials.harmonic_projection``; :func:`homogeneous_components`,
  :func:`total_degree` and :func:`is_homogeneous` read a poly's degrees,
  which the package reads in one walk where it needs them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from ballharmonics.exactmath import as_fraction
from ballharmonics.integration import (
    _sphere_monomial_rational,
    integrate_poly_ball,
    integrate_poly_sphere,
)
from ballharmonics.mollifier import MollifierSpec, _bump_radial_slope, kernel_field, poly_on_grid
from ballharmonics.polynomials import MultiPoly, VectorPoly, as_vector


def square(p: MultiPoly) -> MultiPoly:
    """p * p using symmetry (about half the coefficient products)."""
    items = p.terms()
    out: dict = {}
    for i, (ea, ca) in enumerate(items):
        key = tuple(2 * x for x in ea)
        out[key] = out.get(key, 0) + ca * ca
        for eb, cb in items[i + 1 :]:
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + 2 * ca * cb
    return MultiPoly(p.dimension, out)


def lowered(p: MultiPoly) -> MultiPoly:
    """The float-coefficient copy of p."""
    return MultiPoly(p.dimension, {e: float(c) for e, c in p.terms()})


def grad_norm_sq(u: VectorPoly | MultiPoly) -> MultiPoly:
    """|grad u|^2 = sum over components and axes of squared partials."""
    vec = as_vector(u)
    acc: dict = {}
    for comp in vec:
        for axis in range(vec.dimension):
            for exps, c in square(comp.partial_derivative(axis)).terms():
                acc[exps] = acc.get(exps, 0) + c
    return MultiPoly(vec.dimension, acc)


def euler_pairing(p: MultiPoly) -> MultiPoly:
    """<x, grad p> by its definition, sum_k x_k d_k p."""
    n = p.dimension
    return sum(
        (MultiPoly.variable(n, k) * p.partial_derivative(k) for k in range(n)), MultiPoly(n)
    )


def laplacian(p: MultiPoly) -> MultiPoly:
    """Delta p by its definition, sum_k d_k (d_k p)."""
    n = p.dimension
    return sum(
        (p.partial_derivative(k).partial_derivative(k) for k in range(n)), MultiPoly(n)
    )


def materialised(body: VectorPoly, r) -> tuple:
    """E, total, normal and the Green flux at r, from the squared polynomials."""
    rq = Fraction(r)
    pairings = [euler_pairing(comp) for comp in body]
    pairing_sq = sum((p * p for p in pairings), MultiPoly(body.dimension))
    flux = sum((c * p for c, p in zip(body, pairings)), MultiPoly(body.dimension))
    return (
        integrate_poly_ball(grad_norm_sq(body), r).exact,
        integrate_poly_sphere(grad_norm_sq(body), r).exact,
        integrate_poly_sphere(pairing_sq, r).exact.scaled(rq**-2),
        integrate_poly_sphere(flux, r).exact.scaled(1 / rq),
    )


def fischer_profile(body: VectorPoly) -> tuple[tuple[int, Fraction], ...]:
    """(d, S_d) for each degree d >= 1 of a harmonic body with exact coefficients.

    S_d is the rational part of the unit-sphere integral of sum_i |u^i_d|^2:
    for harmonic p of degree d the integral of p^2 is |S^(n-1)| [p, p] /
    (n (n+2) ... (n+2d-2)), with the Fischer norm [p, p] = sum_alpha alpha!
    p_alpha^2 (Axler, Bourdon and Ramey, Harmonic Function Theory, ch. 5).
    Degree 0 carries no energy and is skipped.
    """
    n = body.dimension
    norms: dict[int, Fraction] = {}
    for comp in body:
        for exps, c in comp.terms():
            d = sum(exps)
            if d:
                norm = math.prod(map(math.factorial, exps)) * as_fraction(c) ** 2
                norms[d] = norms.get(d, 0) + norm
    area = _sphere_monomial_rational(n, 0)
    return tuple(
        (d, area * norm / math.prod(range(n, n + 2 * d - 1, 2)))
        for d, norm in sorted(norms.items())
    )


def sample_scalar_on_grid(p: MultiPoly, spacing: float) -> np.ndarray:
    """p at every node -1 + k * spacing, k = 0..2/spacing per axis, of [-1, 1]^n."""
    axis = -1.0 + spacing * np.arange(round(2 / spacing) + 1)
    return poly_on_grid(p, [axis] * p.dimension)


def index_of(point: Sequence[float], spacing: float) -> tuple[int, ...]:
    """Index of the node -1 + k * spacing nearest to point along each axis."""
    return tuple(round((x + 1.0) / spacing) for x in point)


def coordinate_of(index: Sequence[int], spacing: float) -> tuple[float, ...]:
    return tuple(-1.0 + spacing * k for k in index)


def gradient_magnitude_at_radii(spec: MollifierSpec, radii):
    """|grad J_delta| as a function of |x| (radial profile, so exact)."""
    scale = spec.normalization * spec.delta ** (-spec.dimension - 1)
    return scale * np.abs(_bump_radial_slope(np.asarray(radii) / spec.delta))


def direct_mollify_at(
    field: np.ndarray, spacing: float, spec: MollifierSpec, index: Sequence[int]
) -> float:
    """The convolution sum at one node of a whole sampled field, by direct summation."""
    kern = kernel_field(spec, spacing)
    reach = kern.shape[0] // 2
    if not all(reach <= k < size - reach for k, size in zip(index, field.shape)):
        raise ValueError(f"index {tuple(index)} is inside the masked margin")
    window = tuple(slice(k - reach, k + reach + 1) for k in index)
    return float(np.sum(field[window] * kern)) * spacing ** field.ndim


def homogeneous_components(p: MultiPoly) -> dict[int, MultiPoly]:
    """Degree -> homogeneous part of p, ascending (the zero poly gives {})."""
    buckets: dict[int, dict] = {}
    for exps, c in p.terms():
        buckets.setdefault(sum(exps), {})[exps] = c
    return {d: MultiPoly(p.dimension, t) for d, t in sorted(buckets.items())}


def total_degree(p: MultiPoly) -> int:
    """Largest term degree; 0 for the zero polynomial."""
    return max((sum(e) for e, _ in p.terms()), default=0)


def is_homogeneous(p: MultiPoly) -> bool:
    return len(homogeneous_components(p)) <= 1


def radius_sq(n: int) -> MultiPoly:
    """|x|^2 in n variables."""
    return MultiPoly(n, {tuple(2 * int(j == i) for j in range(n)): 1 for i in range(n)})


def almansi_decomposition(p: MultiPoly) -> list[MultiPoly]:
    """Harmonic parts [h_0, h_1, ...] with p = sum_j |x|^(2j) h_j.

    Requires a homogeneous input (each h_j is then homogeneous of degree
    deg(p) - 2j).  Exact for exact coefficients.
    """
    if not is_homogeneous(p):
        raise ValueError("Almansi decomposition needs a homogeneous polynomial")
    if p.is_zero:
        return [p]
    n = p.dimension
    k = total_degree(p)
    lap = laplacian(p)
    if lap.is_zero:
        return [p]
    lower = almansi_decomposition(lap)
    parts: list[MultiPoly] = [MultiPoly(n)] * (len(lower) + 1)
    for j, g in enumerate(lower, start=1):
        # Delta(|x|^(2j) h) = 2j (2k - 2j + n - 2) |x|^(2j-2) h for deg h = k - 2j
        divisor = 2 * j * (2 * k - 2 * j + n - 2)
        parts[j] = g * Fraction(1, divisor)
    rest = p
    r2 = radius_sq(n)
    r2j = MultiPoly.constant(n, 1)
    for j in range(1, len(parts)):
        r2j = r2j * r2
        rest = rest - r2j * parts[j]
    parts[0] = rest
    return parts
