"""Grid lab for mollification: mean-value checks and kernel-gradient scaling.

The smoothing kernel is the standard bump J(x) = c_n exp(-1/(1 - |x|^2)) on
|x| < 1 (zero outside), normalised so that its integral over R^n is 1, and
its rescaling J_delta(x) = delta^(-n) J(x/delta) supported in the closed
delta-ball.  Convolving a harmonic function with J_delta reproduces the
function wherever the delta-ball fits inside the domain; convolving a
non-harmonic function leaves a defect proportional to the kernel's second
moment.  Both facts are checked on regular grids over [-1, 1]^n.

Grids are dimension <= 3 only (storage is h^(-n)).  Their nodes are the
lattice points (i - half) * h, i = 0..2 half, with half * h = 1, at any
accepted spacing h (one that divides 1); a dyadic h makes every node an
exact binary float.  Mean-value checks snap each point to its lattice index
and read the defining sum (J_delta * u)(x) = sum_j J_delta(x - y_j) u(y_j) h^n
at that node only, sampling u on the kernel's (2K+1)^n box of lattice points
centred there, so their storage is O(points * K^n) rather than O(h^-n).  The
tests hold them to the same sum over the whole sampled square, which the
oracles in ``tests/oracles.py`` form with their own indexing.  A bare
polynomial input is certified harmonic or not as ``make_harmonic_map``
certifies it.  Kernel-gradient norms sum the bump's slope over the lattice's
radial shells, each weighted by its exact node count, so they visit a few
thousand radii rather than every node of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .energetics import _least_squares_line
from .geometry import sphere_area
from .harmonics import HarmonicMap, make_harmonic_map
from .polynomials import MultiPoly

GRID_DIMENSION_CAP = 3

def _bump_radial(t: np.ndarray) -> np.ndarray:
    """exp(-1/(1-t^2)) on t < 1, zero outside; vectorised and overflow-safe."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros(t.shape)
    ts = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ts * ts))
    return out


def _bump_radial_slope(t: np.ndarray) -> np.ndarray:
    """d/dt exp(-1/(1-t^2)) = exp(-1/(1-t^2)) * (-2t / (1-t^2)^2)."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros(t.shape)
    ts = t[inside]
    one_m = 1.0 - ts * ts
    out[inside] = np.exp(-1.0 / one_m) * (-2.0 * ts / (one_m * one_m))
    return out


# tanh-sinh rule (Takahasi and Mori 1974): t = (1 + tanh a) / 2, a = (pi/2) sinh(kh), |kh| <= 3.75
_TANH_SINH_STEP = 1.0 / 64


def _radial_bump_integral(power: int) -> float:
    """Integral of t^power exp(-1/(1-t^2)) over [0, 1], to within 1e-10 by |S_h - S_2h|.

    1 - t is taken as e^-a / (2 cosh a), so 1 - t^2 does not cancel near t = 1.
    """
    h = _TANH_SINH_STEP
    half = round(3.75 / h)
    terms = []
    for k in range(-half, half + 1):
        a = 0.5 * math.pi * math.sinh(k * h)
        cosh_a = math.cosh(a)
        one_minus_t = math.exp(-a) / (2.0 * cosh_a)
        t = math.exp(a) / (2.0 * cosh_a)
        weight = h * 0.25 * math.pi * math.cosh(k * h) / (cosh_a * cosh_a)
        terms.append(weight * t**power * math.exp(-1.0 / (one_minus_t * (2.0 - one_minus_t))))
    radial = math.fsum(terms)
    err = abs(radial - 2.0 * math.fsum(terms[half % 2 :: 2]))  # S_2h: the even k
    if not err < 1e-10:
        raise ArithmeticError(f"radial quadrature error {err!r} exceeds 1e-10")
    return radial


@lru_cache(maxsize=8)
def _bump_normalization(n: int) -> float:
    """c_n with integral of c_n exp(-1/(1-|x|^2)) over R^n equal to 1."""
    return 1.0 / (sphere_area(n, 1.0).area * _radial_bump_integral(n - 1))


@lru_cache(maxsize=8)
def _bump_second_moment(n: int) -> float:
    """Integral of |y|^2 J(y) dy over the unit profile (scale by delta^2)."""
    return _bump_normalization(n) * sphere_area(n, 1.0).area * _radial_bump_integral(n + 1)


@dataclass(frozen=True)
class MollifierSpec:
    """The kernel J_delta in a given dimension."""

    dimension: int
    delta: float

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")
        if self.dimension > GRID_DIMENSION_CAP:
            raise ValueError(
                f"grid storage scales like h^-n; dimension {self.dimension} exceeds the cap "
                f"{GRID_DIMENSION_CAP}"
            )
        if not 0.0 < self.delta <= 0.5:
            raise ValueError(f"delta must lie in (0, 1/2], got {self.delta!r}")

    @property
    def normalization(self) -> float:
        """The unit-profile constant c_n, by tanh-sinh radial quadrature."""
        return _bump_normalization(self.dimension)

    def value_at_radii(self, radii: np.ndarray) -> np.ndarray:
        """J_delta as a function of |x|."""
        scale = self.normalization * self.delta ** (-self.dimension)
        return scale * _bump_radial(np.asarray(radii) / self.delta)

    def second_moment(self) -> float:
        """Integral of |x|^2 J_delta(x) dx = delta^2 * (unit-profile moment)."""
        return self.delta**2 * _bump_second_moment(self.dimension)


def _axis_views(axes: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each axis of a tensor box as a view that broadcasts along its own dimension."""
    n = len(axes)
    return [a.reshape((1,) * d + (len(a),) + (1,) * (n - d - 1)) for d, a in enumerate(axes)]


def poly_on_grid(p: MultiPoly, axes: list[np.ndarray]) -> np.ndarray:
    """Evaluate p on the tensor grid of the given axis coordinates."""
    if p.dimension != len(axes):
        raise ValueError(f"polynomial has dimension {p.dimension}, got {len(axes)} axes")
    views = _axis_views(axes)
    shape = tuple(len(a) for a in axes)
    total = np.zeros((1,) * len(axes))
    for key, c in p._terms.items():
        contrib = np.asarray(float(c))
        for a, e in key:
            contrib = contrib * views[a] ** e
        total = total + contrib
    return np.broadcast_to(total, shape).copy() if total.shape != shape else total


def _grid_axis(spacing: float, extent: float) -> np.ndarray:
    """Node coordinates (i - half) * spacing, i = 0..2 half, spanning [-extent, extent]."""
    if not 0 < spacing < math.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing!r}")
    if not extent / spacing < math.inf:
        raise ValueError(f"spacing {spacing!r} is too fine to count the nodes of the grid")
    half = round(extent / spacing)
    if not abs(half * spacing - extent) <= 1e-12:
        raise ValueError(
            f"extent {extent!r} must be an integer multiple of spacing {spacing!r}"
        )
    return (np.arange(2 * half + 1) - half) * spacing


def kernel_field(spec: MollifierSpec, spacing: float) -> np.ndarray:
    """J_delta at the offsets k * spacing, k = -K..K per axis, K = floor(delta / spacing)."""
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing!r}")
    half = int(math.floor(spec.delta / spacing + 1e-12))
    if half < 1:
        raise ValueError(
            f"spacing {spacing!r} cannot resolve a kernel of radius {spec.delta!r}"
        )
    axis = (np.arange(2 * half + 1) - half) * spacing
    radius_sq = sum(v * v for v in _axis_views([axis] * spec.dimension))
    return spec.value_at_radii(np.sqrt(radius_sq))


# -- mean-value checks ---------------------------------------------------------


@dataclass(frozen=True)
class MeanValueReport:
    """Sup-norm defect of u - J_delta * u at the requested (snapped) points.

    ``values[j][i]`` and ``mollified[j][i]`` are the i-th component of u and
    of J_delta * u at the j-th snapped point; ``errors[j]`` is the max over
    components of their absolute difference.
    """

    delta: float
    spacing: float
    points: tuple[tuple[float, ...], ...]
    values: tuple[tuple[float, ...], ...]
    mollified: tuple[tuple[float, ...], ...]
    errors: tuple[float, ...]
    sup_error: float
    not_a_counterexample: bool


def _scalar_components(u) -> tuple[list[MultiPoly], bool, int]:
    """Components, harmonic-certainty, dimension for a map-like input."""
    h = u if isinstance(u, HarmonicMap) else make_harmonic_map(u)
    return list(h.body), h.certified, h.dimension


def mean_value_check(
    u, spec: MollifierSpec, points: Sequence[Sequence[float]], spacing: float = 1 / 256
) -> MeanValueReport:
    """sup over points and components of |(J_delta * u)(x) - u(x)|.

    Points must lie in the closed ball of radius 1 - delta (so the kernel
    stays inside the square [-1, 1]^n that the grid covers); each is snapped
    to its nearest grid node, and the snapped coordinates are what the
    report carries and where u is evaluated.  J_delta * u is the defining
    sum read at that node alone: u is sampled on the kernel's box of grid
    nodes centred there, so the value equals the direct sum over the whole
    sampled square, without the square being formed.  A non-harmonic input is
    *not* an error: the defect is computed and the report is flagged
    ``not_a_counterexample`` because a nonzero defect for a non-harmonic
    function contradicts nothing.
    """
    comps, certified, n = _scalar_components(u)
    if spec.dimension != n:
        raise ValueError(f"kernel dimension {spec.dimension} != map dimension {n}")
    if not points:
        raise ValueError("need at least one evaluation point")
    budget = 1.0 - spec.delta + 1e-9
    for pt in points:
        if math.hypot(*[float(x) for x in pt]) > budget:
            raise ValueError(
                f"point {tuple(pt)} leaves the ball of radius 1 - delta = "
                f"{1.0 - spec.delta:g} where the convolution identity applies"
            )
    axis = _grid_axis(spacing, 1.0)
    kern = kernel_field(spec, spacing)
    half = (kern.shape[0] - 1) // 2
    lowest = float(axis[0])
    snapped: list[tuple[float, ...]] = []
    values: list[tuple[float, ...]] = []
    mollified: list[tuple[float, ...]] = []
    errors: list[float] = []
    for pt in points:
        if len(pt) != n:
            raise ValueError(f"point has {len(pt)} coordinates, expected {n}")
        idx = [round((float(x) - lowest) / spacing) for x in pt]
        if not all(half <= i < len(axis) - half for i in idx):
            raise ValueError(
                f"point {tuple(pt)} is inside the masked margin at spacing {spacing!r}"
            )
        node = tuple(float(axis[i]) for i in idx)
        box = [axis[i - half : i + half + 1] for i in idx]
        exact = tuple(float(comp.evaluate(node)) for comp in comps)
        # symmetric kernel: correlation equals convolution
        approx = tuple(
            float(np.sum(poly_on_grid(comp, box) * kern)) * spacing**n for comp in comps
        )
        snapped.append(node)
        values.append(exact)
        mollified.append(approx)
        errors.append(max([0.0] + [abs(a - e) for a, e in zip(approx, exact)]))
    return MeanValueReport(
        delta=spec.delta,
        spacing=spacing,
        points=tuple(snapped),
        values=tuple(values),
        mollified=tuple(mollified),
        errors=tuple(errors),
        sup_error=max(errors),
        not_a_counterexample=not certified,
    )


@dataclass(frozen=True)
class MeanValueConvergence:
    """Defect sup-errors across spacings and the measured orders between them."""

    spacings: tuple[float, ...]
    sup_errors: tuple[float, ...]
    orders: tuple[float, ...]


def mean_value_convergence(
    u, spec: MollifierSpec, points: Sequence[Sequence[float]], spacings: Sequence[float]
) -> MeanValueConvergence:
    """Measure how the mean-value defect decays as the grid refines.

    ``orders[i]`` is log(e_i / e_{i+1}) / log(h_i / h_{i+1}).  The defect of
    the smooth bump decays faster than any fixed power, so on fine grids it
    reaches roundoff and the measured order collapses; pick spacings coarse
    enough that the defect stays above ~1e-12.
    """
    hs = tuple(float(h) for h in spacings)
    if len(hs) < 2 or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("spacings must be strictly decreasing, at least two")
    sups = tuple(
        mean_value_check(u, spec, points, spacing=h).sup_error for h in hs
    )
    orders = []
    for (h1, e1), (h2, e2) in zip(zip(hs, sups), zip(hs[1:], sups[1:])):
        if e1 <= 0.0 or e2 <= 0.0:
            orders.append(math.inf)
        else:
            orders.append(math.log(e1 / e2) / math.log(h1 / h2))
    return MeanValueConvergence(spacings=hs, sup_errors=sups, orders=tuple(orders))


# -- kernel gradient scaling ----------------------------------------------------


@dataclass(frozen=True)
class GradientScalingFit:
    """Least-squares exponent of ||grad J_delta||_q against delta."""

    dimension: int
    q: float
    exponent: float
    reference_exponent: float  # n/q - n - 1 from dimensional analysis
    log_intercept: float
    deltas: tuple[float, ...]
    norms: tuple[float, ...]
    max_fit_residual: float


@lru_cache(maxsize=4)
def _shell_table(n: int, nodes_per_delta: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, slopes) over the shells |y|^2 = m / N^2, m < N^2, of the lattice Z^n / N.

    counts[m] is the exact number of lattice points y with N^2 |y|^2 = m
    (each lies in the box |y_i| <= 1 that a kernel grid covers), and
    slopes[m] is |d/dt exp(-1/(1-t^2))| at t = sqrt(m * (1 / N^2)), to the
    bit the t of those points when N is a power of two.  Points with |y| >= 1
    have zero slope and are left out.  Read-only: the cache hands the same
    arrays to every caller.
    """
    shells = nodes_per_delta * nodes_per_delta
    counts = np.zeros(shells, dtype=np.int64)
    counts[0] = 1
    for _ in range(n):
        # one more axis: shell m gains the shells m - i^2 of the axes so far, 0 < |i| < N
        grown = counts.copy()
        for i in range(1, nodes_per_delta):
            grown[i * i :] += 2 * counts[: shells - i * i]
        counts = grown
    slopes = np.abs(_bump_radial_slope(np.sqrt(np.arange(shells) * (1.0 / shells))))
    counts.setflags(write=False)
    slopes.setflags(write=False)
    return counts, slopes


def _exact_dot(counts: np.ndarray, values: np.ndarray) -> float:
    """sum_m counts[m] * values[m], exactly rounded.

    Each value splits into two halves of at most 26 bits (Veltkamp), so every
    count below 2^27 times a half is an exact float and ``math.fsum`` rounds
    the whole sum once.  A shell of the lattice holds far fewer points than
    2^27 at any N whose table fits in memory.
    """
    split = values * 134217729.0  # 2^27 + 1
    high = split - (split - values)
    weights = counts.astype(float)
    return math.fsum(np.concatenate([weights * high, weights * (values - high)]).tolist())


def mollifier_gradient_scaling(
    q: float,
    spec: MollifierSpec,
    deltas: Sequence[float] | None = None,
    nodes_per_delta: int = 64,
) -> GradientScalingFit:
    """Fit log ||grad J_delta||_q against log delta across a delta grid.

    Each delta gets its own grid with spacing delta / nodes_per_delta, so
    the discretisation is scale-covariant and the fitted exponent measures
    the scaling law rather than resolution artifacts.  The bump's slope
    depends on |x| alone, and the nodes x = delta * y, y in Z^n / N, sit on
    the shells |y|^2 = m / N^2, m < N^2, inside the kernel's support; so
    ||grad J_delta||_q^q is the sum over those shells of the shell's exact
    node count times (c_n delta^(-n-1) |slope(sqrt(m) / N)|)^q, times
    (delta / N)^n, summed exactly rounded.  At a power-of-two N and delta
    that equals ``math.fsum`` over every node of the delta's grid, to the
    bit.  Dimensional analysis gives n/q - n - 1 (equal to -1 exactly when
    q = 1); the fit is reported against that reference, not asserted beyond
    it.
    """
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q!r}")
    if deltas is None:
        deltas = (0.5, 0.25, 0.125, 0.0625)
    ds = tuple(float(d) for d in deltas)
    if len(ds) < 2:
        raise ValueError("need at least two deltas to fit an exponent")
    if any(not 0.0 < d <= 0.5 for d in ds):
        raise ValueError(f"deltas must lie in (0, 1/2], got {ds}")
    if nodes_per_delta < 8:
        raise ValueError("nodes_per_delta below 8 cannot resolve the kernel")
    if nodes_per_delta != int(nodes_per_delta):
        raise ValueError(f"nodes_per_delta must be a whole number, got {nodes_per_delta!r}")
    n = spec.dimension
    counts, slopes = _shell_table(n, int(nodes_per_delta))
    norms = []
    for d in ds:
        # |grad J_delta|(x) = c_n delta^(-n-1) |slope(|x| / delta)| on each shell
        mags = spec.normalization * d ** (-n - 1) * slopes
        total = _exact_dot(counts, mags**q) * (d / nodes_per_delta) ** n
        norms.append(total ** (1.0 / q))
    slope, intercept, resid = _least_squares_line(
        [math.log(d) for d in ds], [math.log(v) for v in norms], "deltas"
    )
    return GradientScalingFit(
        dimension=n,
        q=float(q),
        exponent=slope,
        reference_exponent=n / q - n - 1,
        log_intercept=intercept,
        deltas=ds,
        norms=tuple(norms),
        max_fit_residual=resid,
    )
