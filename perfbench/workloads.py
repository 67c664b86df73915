"""The benchmark's workloads: seeded item lists with closed-form output checks.

An item is one public library call (or, on ``fresh-maps``, one map build
and the call that queries it).  Each workload is a generator of items, so
the work done between items (building the maps that later items query,
computing exact references for the Monte Carlo items) is part of the
pass's wall time but not of any item's latency.

Every input comes from the workload seed: map specs ``(n, k, seed)``,
multi-indices, Monte Carlo seeds and mean-value points.  The map families
are built here from the public constructors rather than taken from
``suite``, so that the work a workload asks for stays fixed while the
library changes under it.

Each check compares against a closed form, not against the path being
timed, and returns ``(ok, entry)``; the entries make up the pass's report,
which is rendered with the library's ``render_json`` and digested.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

# library modules each workload imports; set-up time ends once they are in
MODULES = {
    "identities-cached": ("harmonics", "identities", "reporting"),
    "fresh-maps": ("harmonics", "energetics", "identities", "reporting"),
    "numeric-crosschecks": (
        "polynomials",
        "integration",
        "harmonics",
        "energetics",
        "mollifier",
        "reporting",
    ),
}

CLI_RADII = (0.3, 0.7, 1.0)
IDENTITY_DIMS = range(2, 10)
FRESH_DIMS = range(3, 9)
NINE_TENTHS = Fraction(9, 10)
MC_SAMPLES = 300_000
MC_SIGMAS = 5.0  # failure threshold, wide enough that no seed trips it
MC_REPORTED_SIGMAS = 3.0  # the suite's threshold, counted but not enforced
MEAN_VALUE_BOUND = 1e-4
SCALING_BOUND = 0.05

# The large-offset integrand whose Monte Carlo variance is lost to
# cancellation: s2 - N mean^2 rounds to zero and the standard error comes out
# as 0.0, so the 5-sigma check cannot pass.  Kept in the workload so that
# the defect shows; it is counted in pass_frac but not as an unexpected
# failure.
KNOWN_FAILURE_VARIANCE = (
    "Monte Carlo variance of 1e8 + x1^2/1000 cancels to standard_error 0.0"
)


class Item(NamedTuple):
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, Any]]
    known_failure: str = ""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


# -- checks --------------------------------------------------------------------


def _zero_residual(report) -> tuple[bool, Any]:
    return report.normalized_residual == 0.0, report


def _margin(n: int, k: int, report) -> tuple[bool, Any]:
    # homogeneous degree-k maps have margin exactly 2 (n + k - 2) / (n - 2)
    return report.margin_ratio == float(Fraction(2 * (n + k - 2), n - 2)), report


def _concentration(n: int, got: float) -> tuple[bool, Any]:
    want = float(1 - NINE_TENTHS**n)
    return got == want, {"dimension": n, "fraction": got}


def _monte_carlo(exact: float, constant: bool, result) -> tuple[bool, Any]:
    err = abs(result.value - exact)
    se = result.standard_error

    def within(sigmas: float) -> bool:
        if constant:  # zero variance is right; only rounding separates the two
            return err <= 1e-12 * abs(exact)
        # a non-constant integrand has positive variance, so a zero
        # standard error is itself a wrong output
        return se > 0.0 and err <= sigmas * se

    entry = {
        "value": result.value,
        "standard_error": se,
        "samples": result.samples,
        "exact": exact,
        "within_3_sigma": within(MC_REPORTED_SIGMAS),
    }
    return within(MC_SIGMAS), entry


def _mean_value(report) -> tuple[bool, Any]:
    return report.sup_error < MEAN_VALUE_BOUND, report


def _mean_value_control(moment: float, report) -> tuple[bool, Any]:
    # |x|^2 is not harmonic: its defect is the kernel's second moment at
    # every point, bounded away from zero
    errors = report.errors
    ok = all(e > 1e-3 for e in errors) and abs(report.sup_error - moment) < 1e-6
    return ok, report


def _scaling(fit) -> tuple[bool, Any]:
    return abs(fit.exponent - fit.reference_exponent) < SCALING_BOUND, fit


# -- inputs ----------------------------------------------------------------------


def map_family(h, n: int, seed: int) -> list[Callable[[], Any]]:
    """Builders of identity, zonal k = 0..5 and random k = 1..4, as ``standard_maps``."""
    builders = [partial(h.identity_map, n)]
    builders.extend(partial(h.zonal_solid_harmonic, n, k) for k in range(0, 6))
    builders.extend(partial(h.random_harmonic_polynomial, n, k, seed + 13 * k) for k in range(1, 5))
    return builders


def interleaved(gen: np.random.Generator, groups: list[list]) -> list:
    """The members of all groups in a seeded random merge that keeps each group's order.

    The box the benchmark runs on slows down in phases of tens of seconds.
    In a fixed order, items of one size (and so the items that set a
    percentile) run back to back and all land in the same phase; spread
    over the pass, they sample the whole run.  Each group holds the work of
    one dimension, which shares the monomial cache, so keeping its order
    keeps which item pays for each cache miss the same for every seed.
    """
    picks = gen.permutation([g for g, members in enumerate(groups) for _ in members])
    members = [iter(group) for group in groups]
    return [next(members[g]) for g in picks]


def even_multi_indices(n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Even multi-indices of total degree <= 8, drawn as the mc-oracle item list draws them.

    The exponent patterns come from a stream keyed by the dimension alone and
    the seed only permutes the variables, so every seed integrates monomials
    of the same degrees: the sampling cost of an item, and with it the
    median item, does not move with the seed.
    """
    shapes = np.random.Generator(np.random.Philox(key=n))
    order = np.random.Generator(np.random.Philox(key=seed))
    out = []
    while len(out) < count:
        alpha = [int(2 * e) for e in shapes.integers(0, 3, size=n)]
        if sum(alpha) <= 8:
            out.append(tuple(alpha[i] for i in order.permutation(n)))
    return out


def grid_points(gen: np.random.Generator, n: int, count: int, radius: float) -> list:
    """Distinct points on the 1/32 lattice inside the ball of the given radius."""
    points: list = []
    top = int(radius * 32)
    while len(points) < count:
        pt = tuple(float(c) / 32 for c in gen.integers(-top, top + 1, size=n))
        if math.hypot(*pt) <= radius and pt not in points:
            points.append(pt)
    return points


def distinct_seeds(gen: np.random.Generator, count: int, taken: set) -> list[int]:
    out = []
    while len(out) < count:
        s = int(gen.integers(0, 2**31))
        if s not in taken:
            taken.add(s)
            out.append(s)
    return out


# -- workloads -----------------------------------------------------------------


def identities_cached(lib, seed: int, workers: int) -> Iterator[Item]:
    """Criteria 03, 04 and 08: every map queried at three radii and once at r = 1.

    The dimensions' map families are interleaved in a seeded order; each
    map's queries stay together, so every query after its first hits the
    caches that first one filled.
    """
    h, ident = lib.harmonics, lib.identities
    families = [[(n, build) for build in map_family(h, n, seed)] for n in IDENTITY_DIMS]
    for n, build in interleaved(_rng(seed, 0), families):
        u = build()
        for r in CLI_RADII:
            for name in ("pohozaev_residual", "green_residual"):
                call = partial(getattr(ident, name), u, r)
                yield Item(f"{name}[{u.label}, r={r}]", call, _zero_residual)
        if n >= 3 and u.degree != 0:
            call = partial(ident.minimiser_bound_check, u)
            yield Item(f"minimiser_bound_check[{u.label}]", call, partial(_margin, n, u.degree))


def _fresh_bound(lib, n: int, k: int, s: int):
    u = lib.harmonics.random_harmonic_polynomial(n, k, s)
    return lib.identities.minimiser_bound_check(u)


def _fresh_concentration(lib, n: int):
    return lib.energetics.concentration_fraction(lib.harmonics.identity_map(n), NINE_TENTHS)


def fresh_maps(lib, seed: int, workers: int) -> Iterator[Item]:
    """Every map new and queried once, dimensions interleaved in a seeded order."""
    gen = _rng(seed, 1)
    taken: set = set()
    groups: dict[int, list[Item]] = {n: [] for n in range(2, 201)}
    for n in FRESH_DIMS:
        for k in range(2, 5):
            for s in distinct_seeds(gen, 3, taken):
                groups[n].append(
                    Item(
                        f"minimiser_bound_check[random(n={n}, k={k}, seed={s})]",
                        partial(_fresh_bound, lib, n, k, s),
                        partial(_margin, n, k),
                    )
                )
    for n, group in groups.items():
        group.append(
            Item(
                f"concentration_fraction[identity(n={n}), 9/10]",
                partial(_fresh_concentration, lib, n),
                partial(_concentration, n),
            )
        )
    yield from interleaved(gen, list(groups.values()))


def numeric_crosschecks(lib, seed: int, workers: int) -> Iterator[Item]:
    """Monte Carlo and grid-mollifier cross-checks against exact references."""
    integ, h, energy, moll, poly = (
        lib.integration,
        lib.harmonics,
        lib.energetics,
        lib.mollifier,
        lib.polynomials,
    )
    gen = _rng(seed, 2)
    taken: set = set()

    def mc_spec(samples: int, stream: int):
        return integ.QuadratureSpec(
            method="monte_carlo", samples=samples, seed=stream, workers=workers
        )

    for n in (2, 5, 10):
        for j, alpha in enumerate(even_multi_indices(n, 10, seed + n)):
            p = poly.MultiPoly(n, {alpha: Fraction(1)})
            exact = integ.integrate_poly_sphere(p, 1).value
            spec = mc_spec(MC_SAMPLES, seed + 1000 * n + j)
            call = partial(integ.integrate_poly_sphere, p, 1.0, spec)
            check = partial(_monte_carlo, exact, not any(alpha))
            yield Item(f"mc_sphere[n={n}, alpha={alpha}]", call, check)

    for (n, k), s in zip(((5, 3), (6, 3)), distinct_seeds(gen, 2, taken)):
        u = h.random_harmonic_polynomial(n, k, s)
        exact = energy.dirichlet_energy_result(u, 1).value
        call = partial(energy.dirichlet_energy_result, u, 1, mc_spec(MC_SAMPLES, s))
        yield Item(f"mc_dirichlet_energy[{u.label}]", call, partial(_monte_carlo, exact, False))

    offset = poly.MultiPoly(3, {(0, 0, 0): Fraction(10**8), (2, 0, 0): Fraction(1, 1000)})
    exact = integ.integrate_poly_ball(offset, 1).value
    (stream,) = distinct_seeds(gen, 1, taken)
    yield Item(
        "mc_ball[n=3, 1e8 + x1^2/1000]",
        partial(integ.integrate_poly_ball, offset, 1.0, mc_spec(200_000, stream)),
        partial(_monte_carlo, exact, False),
        known_failure=KNOWN_FAILURE_VARIANCE,
    )

    spec2 = moll.MollifierSpec(dimension=2, delta=0.25)
    points2 = grid_points(gen, 2, 6, 1.0 - spec2.delta)
    s_a, s_b = distinct_seeds(gen, 2, taken)
    maps2 = [h.zonal_solid_harmonic(2, k) for k in range(1, 5)]
    maps2 += [h.random_harmonic_polynomial(2, 3, s_a), h.random_harmonic_polynomial(2, 4, s_b)]
    for u in maps2:
        call = partial(moll.mean_value_check, u, spec2, points2, spacing=1 / 256)
        yield Item(f"mean_value_check[{u.label}, h=1/256]", call, _mean_value)
    control = poly.MultiPoly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    yield Item(
        "mean_value_check[|x|^2 control, h=1/256]",
        partial(moll.mean_value_check, control, spec2, points2, spacing=1 / 256),
        partial(_mean_value_control, spec2.second_moment()),
    )

    spec3 = moll.MollifierSpec(dimension=3, delta=0.25)
    points3 = grid_points(gen, 3, 3, 1.0 - spec3.delta)
    (s3,) = distinct_seeds(gen, 1, taken)
    u3 = h.random_harmonic_polynomial(3, 3, s3)
    yield Item(
        f"mean_value_check[{u3.label}, h=1/128]",
        partial(moll.mean_value_check, u3, spec3, points3, spacing=1 / 128),
        _mean_value,
    )

    for n in (2, 3):
        spec = moll.MollifierSpec(dimension=n, delta=0.25)
        for q in (1.0, 1.5, 2.0):
            call = partial(moll.mollifier_gradient_scaling, q, spec, nodes_per_delta=64)
            yield Item(f"mollifier_gradient_scaling[n={n}, q={q:g}]", call, _scaling)


WORKLOADS = {
    "identities-cached": identities_cached,
    "fresh-maps": fresh_maps,
    "numeric-crosschecks": numeric_crosschecks,
}
