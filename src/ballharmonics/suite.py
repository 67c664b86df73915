"""The full verification battery behind `ballharmonics suite`.

Each check function returns a :class:`CheckResult` whose ``details`` dict
carries the measured numbers, so failures are diagnosable from the report
alone and reports are byte-identical across runs with one (seed, workers)
configuration.  Each check is the only definition of its acceptance
criterion: tests/test_acceptance.py asserts on the returned result and adds
nothing but runtime budgets, so a passing suite means a passing gate.

Criteria 03, 04 and 08 read one identity scan (:func:`identity_reports`,
``identities.identity_scan`` over :data:`IDENTITY_DIMS`), which
:func:`run_suite` runs once and hands to each of the three checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._version import VERSION
from .energetics import (
    concentration_fraction,
    dirichlet_energy,
    dirichlet_energy_result,
    energy_profile,
    fit_decay_exponent,
    half_radius_theta,
    verify_decay_bound,
)
from .exactmath import PiRational, gamma_half
from .geometry import (
    ShellSpec,
    shell_volume_fraction,
    shell_width_for_mass,
    unit_ball_volume,
    volume_argmax,
)
from .harmonics import (
    harmonic_sum,
    identity_map,
    random_harmonic_polynomial,
    standard_maps,
    zonal_solid_harmonic,
)
from .identities import (
    GREEN,
    MINIMISER_BOUND,
    POHOZAEV,
    ResidualReport,
    identity_scan,
    minimiser_bound_check,
    volume_decay_chain,
)
from .integration import QuadratureSpec, integrate_poly_sphere
from .mollifier import (
    MollifierSpec,
    _radial_bump_integral,
    mean_value_check,
    mean_value_convergence,
    mollifier_gradient_scaling,
)
from .polynomials import MultiPoly


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict


@dataclass(frozen=True)
class SuiteReport:
    version: str
    seed: int
    workers: int
    checks: tuple[CheckResult, ...]
    passed: bool


def _result(name: str, passed: bool, **details) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), details=dict(details))


# -- 1: volume peak --------------------------------------------------------------


def check_volume_peak() -> CheckResult:
    argmax = volume_argmax(200)
    v5 = unit_ball_volume(5).volume
    reference = 8.0 * math.pi**2 / 15.0
    rel_err = abs(v5 - reference) / reference
    return _result(
        "volume-peak",
        argmax == 5 and rel_err < 1e-12,
        argmax=argmax,
        v5=v5,
        reference=reference,
        rel_err=rel_err,
    )


# -- 2: identity-map energy ------------------------------------------------------


def check_identity_energy() -> CheckResult:
    worst = 0.0
    worst_at = ""
    for n in range(1, 51):
        u = identity_map(n)
        vol = unit_ball_volume(n).volume
        for r in (0.3, 0.7, 1.0):
            got = dirichlet_energy(u, r)
            want = n * vol * r**n
            rel = abs(got - want) / want
            if rel > worst:
                worst, worst_at = rel, f"n={n} r={r:g}"
    return _result(
        "identity-energy",
        worst < 1e-12,
        worst_rel_err=worst,
        worst_at=worst_at,
    )


# -- 3 and 4: variational identities, from the scan that 8 reads too -------------

IDENTITY_DIMS = range(2, 11)


def identity_reports(seed: int) -> tuple[ResidualReport, ...]:
    return tuple(identity_scan(IDENTITY_DIMS, seed))


def _residual_check(kind: str, reports: Sequence[ResidualReport]) -> CheckResult:
    worst = 0.0
    worst_at = ""
    count = 0
    for report in reports:
        if report.identity_name != kind:
            continue
        count += 1
        if report.normalized_residual > worst:
            worst = report.normalized_residual
            worst_at = f"{report.map_label} r={report.radius:g}"
    return _result(
        f"{kind}-identity",
        worst < 1e-10,
        checks=count,
        worst_normalized_residual=worst,
        worst_at=worst_at,
    )


def check_pohozaev(reports: Sequence[ResidualReport]) -> CheckResult:
    return _residual_check(POHOZAEV, reports)


def check_green(reports: Sequence[ResidualReport]) -> CheckResult:
    return _residual_check(GREEN, reports)


# -- 5: decay law ----------------------------------------------------------------

DYADIC_RADII = (0.0625, 0.125, 0.25, 0.5, 1.0)


def check_decay_fit(seed: int) -> CheckResult:
    worst_fit = 0.0
    worst_at = ""
    bounds_hold = True
    margins_monotone = True
    bound_maps = 0
    for n in range(2, 7):
        fitted = [zonal_solid_harmonic(n, k) for k in range(1, 5)]
        fitted.append(random_harmonic_polynomial(n, 3, seed + n))
        for u in fitted:
            fit = fit_decay_exponent(energy_profile(u, DYADIC_RADII))
            err = abs(fit.exponent - (n + 2 * u.degree - 2))
            if err > worst_fit:
                worst_fit, worst_at = err, u.label
        # the bound with C = 1 holds for every beta <= n - 0.1: margins grow
        # with beta, so the top beta binds; smaller betas witness the growth
        betas = (n - 0.1, n - 0.5, n / 2, 0.5)
        for u in standard_maps(n, seed):
            if u.degree is None or u.degree < 1:
                continue
            reports = [verify_decay_bound(u, beta, 1.0, DYADIC_RADII) for beta in betas]
            bounds_hold = bounds_hold and all(rep.holds for rep in reports)
            margins_monotone = margins_monotone and all(
                a.worst_margin >= b.worst_margin for a, b in zip(reports, reports[1:])
            )
            bound_maps += 1
    return _result(
        "decay-exponent",
        worst_fit < 1e-9 and bounds_hold and margins_monotone,
        worst_fit_error=worst_fit,
        worst_at=worst_at,
        decay_bounds_hold=bounds_hold,
        margins_monotone_in_beta=margins_monotone,
        bound_maps_checked=bound_maps,
    )


# -- 6: dyadic contraction -------------------------------------------------------


def check_dyadic_contraction(seed: int) -> CheckResult:
    worst = 0.0
    worst_at = ""
    all_below_one = True
    count = 0
    for n in range(2, 7):
        maps = standard_maps(n, seed)
        maps.append(
            harmonic_sum(
                [zonal_solid_harmonic(n, 1), zonal_solid_harmonic(n, 3)],
                label=f"mixed(n={n})",
            )
        )
        maps.append(random_harmonic_polynomial(n, 2, seed + n))
        for u in maps:
            if u.degree == 0:
                continue  # constants carry no energy to contract
            theta = half_radius_theta(u, 1.0)
            all_below_one = all_below_one and theta < 1.0
            count += 1
            if u.degree is not None:
                want = 2.0 ** -(n + 2 * u.degree - 2)
                err = abs(theta - want) / want
                if err > worst:
                    worst, worst_at = err, u.label
    return _result(
        "dyadic-contraction",
        worst < 1e-12 and all_below_one,
        worst_rel_err=worst,
        worst_at=worst_at,
        all_below_one=all_below_one,
        maps_checked=count,
    )


# -- 7: boundary concentration ---------------------------------------------------


def check_concentration() -> CheckResult:
    outside = {}
    exact_ok = True
    for n in range(2, 201):
        u = identity_map(n)
        outside[n] = concentration_fraction(u, 0.9)
        # exactly E(1) = n |B^n| = n pi^(n/2) / Gamma(n/2 + 1) and E(0.9)/E(1) = 0.9^n,
        # where 0.9 stands for its binary value
        rational, pi_halves = gamma_half(n + 2)
        full = dirichlet_energy_result(u)
        exact_ok = (
            exact_ok
            and full.exact == PiRational(n / rational, (n - pi_halves) // 2)
            and dirichlet_energy_result(u, 0.9).ratio(full) == Fraction(0.9) ** n
        )
    worst = max(
        abs(f - shell_volume_fraction(ShellSpec(n, 0.9))) for n, f in outside.items()
    )
    worst_power = max(abs(f - (1 - 0.9**n)) for n, f in outside.items())
    values = list(outside.values())
    increasing = all(a < b for a, b in zip(values, values[1:]))
    # n = 88 is where 0.9^n first drops below 1e-4
    threshold_ok = (
        all(f > 1.0 - 1e-4 for n, f in outside.items() if n >= 88)
        and outside[87] <= 1.0 - 1e-4
        and 0.9**87 > 1e-4 > 0.9**88
    )
    return _result(
        "boundary-concentration",
        worst < 1e-12 and worst_power < 1e-12 and increasing and threshold_ok and exact_ok,
        worst_abs_err=worst,
        strictly_increasing=increasing,
        fraction_n87=outside[87],
        fraction_n88=outside[88],
        half_mass_width_n100=shell_width_for_mass(100, 0.5),
        worst_abs_err_vs_power=worst_power,
        above_threshold_from_n88=threshold_ok,
        exact_energy_and_power_ratio=exact_ok,
    )


# -- 8: minimiser bound ----------------------------------------------------------


def check_minimiser_bound(reports: Sequence[ResidualReport]) -> CheckResult:
    worst = 0.0
    for n in range(3, 51):
        report = minimiser_bound_check(identity_map(n))
        want = 2.0 * (n - 1) / (n - 2)
        worst = max(worst, abs(report.margin_ratio - want) / want)
    # the scan checks the bound on every non-constant map with n >= 3
    margins = [r.margin_ratio for r in reports if r.identity_name == MINIMISER_BOUND]
    margins_ok = all(m > 1.0 for m in margins)
    worst_margin = min(margins, default=math.inf)
    return _result(
        "minimiser-bound",
        worst < 1e-12 and margins_ok,
        worst_identity_rel_err=worst,
        all_margins_above_one=margins_ok,
        smallest_margin=worst_margin,
    )


# -- 9: the O(1/n) constant ------------------------------------------------------


def check_c1_rate() -> CheckResult:
    # the reported constant is exact rational data (2/(n-2)), so the full
    # 3..200 scan runs on floats of that; the energy pipeline corroborates
    # the report (bound holds, margin, constant) on a spot-check range
    spot_ok = True
    for n in range(3, 41):
        report = minimiser_bound_check(identity_map(n))
        want = 2.0 / (n - 2)
        spot_ok = spot_ok and report.margin_ratio > 1.0
        # within 1e-15 both absolutely and relative to the constant
        spot_ok = spot_ok and abs(report.constant - want) < 1e-15 * min(1.0, want)
    # c1 n as a float two ways: the product of the rounded c1, and the
    # rounded exact product; both must fall strictly
    products = [float(Fraction(2, n - 2)) * n for n in range(3, 201)]
    rounded = [float(Fraction(2 * n, n - 2)) for n in range(3, 201)]
    monotone = all(a > b for seq in (products, rounded) for a, b in zip(seq, seq[1:]))
    float_worst = max(abs(x - 2.0 * n / (n - 2)) for n, x in enumerate(products, start=3))
    # |c1 n - 2| = 4/(n-2) in exact arithmetic: equality at n = 22, below 1/5 after
    tail_ok = all(
        abs(Fraction(2 * n, n - 2) - 2) <= Fraction(1, 5) for n in range(22, 201)
    ) and all(
        abs(Fraction(2 * n, n - 2) - 2) < Fraction(1, 5) for n in range(23, 201)
    )
    boundary_gap = float(abs(Fraction(2 * 22, 20) - 2))
    chain = volume_decay_chain(3, 200)
    return _result(
        "c1-rate",
        monotone and tail_ok and spot_ok and float_worst < 1e-12 and chain.argmax_is_interior,
        monotone_decreasing=monotone,
        pipeline_spot_check=spot_ok,
        float_worst_err=float_worst,
        gap_at_n22=boundary_gap,
        tail_below_one_fifth=tail_ok,
        surface_energy_argmax=chain.argmax_dimension,
        surface_energy_max=chain.max_surface_energy,
    )


# -- 10: mean-value property -----------------------------------------------------

MEAN_VALUE_POINTS = (
    (0.0, 0.0),
    (0.25, 0.0),
    (0.0, -0.375),
    (0.375, 0.25),
    (-0.5, -0.5),
    (0.625, 0.125),
)


def check_mean_value(seed: int) -> CheckResult:
    spec = MollifierSpec(dimension=2, delta=0.25)
    maps = [zonal_solid_harmonic(2, k) for k in range(1, 5)]
    maps.append(random_harmonic_polynomial(2, 3, seed))
    maps.append(random_harmonic_polynomial(2, 4, seed + 1))
    sup_error = 0.0
    for u in maps:
        report = mean_value_check(u, spec, MEAN_VALUE_POINTS, spacing=1 / 256)
        sup_error = max(sup_error, report.sup_error)
    conv = mean_value_convergence(
        zonal_solid_harmonic(2, 4), spec, MEAN_VALUE_POINTS, (1 / 16, 1 / 32, 1 / 64)
    )
    order = min(conv.orders)
    # control: |x|^2 is not harmonic; its defect is exactly the kernel's
    # second moment, which refining the grid cannot shrink
    control = MultiPoly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    defects = [
        mean_value_check(control, spec, MEAN_VALUE_POINTS, spacing=h).sup_error
        for h in (1 / 64, 1 / 128)
    ]
    moment = spec.second_moment()
    # the persistent floor holds at every spacing; the match against the
    # continuum moment is only as good as the grid, so test it at the finest
    control_ok = all(d > 1e-3 for d in defects) and abs(defects[-1] - moment) < 1e-6
    return _result(
        "mean-value",
        sup_error < 1e-4 and order >= 1.8 and control_ok,
        sup_error=sup_error,
        convergence_order=order,
        control_defects=tuple(defects),
        kernel_second_moment=moment,
        control_bounded_away=control_ok,
    )


# -- 11: Monte Carlo oracle agreement --------------------------------------------


def _even_multi_indices(n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    gen = np.random.Generator(np.random.Philox(key=seed))
    out = []
    while len(out) < count:
        alpha = tuple(int(2 * e) for e in gen.integers(0, 3, size=n))
        if sum(alpha) <= 8:
            out.append(alpha)
    return out


def check_mc_oracle(seed: int, workers: int = 1) -> CheckResult:
    agreements = {}
    passed = True
    for n in (2, 5, 10):
        alphas = _even_multi_indices(n, 10, seed + n)
        hits = 0
        for j, alpha in enumerate(alphas):
            poly = MultiPoly(n, {alpha: Fraction(1)})
            exact = integrate_poly_sphere(poly).value
            spec = QuadratureSpec(
                method="monte_carlo",
                samples=1_000_000,
                seed=seed + 1000 * n + j,
                workers=workers,
            )
            mc = integrate_poly_sphere(poly, 1.0, spec)
            if abs(mc.value - exact) <= 3.0 * mc.standard_error:
                hits += 1
        agreements[f"n{n}"] = hits
        passed = passed and hits >= 9
    return _result(
        "mc-oracle",
        passed,
        samples=1_000_000,
        hits_of_10_n2=agreements["n2"],
        hits_of_10_n5=agreements["n5"],
        hits_of_10_n10=agreements["n10"],
    )


# -- 12: mollifier gradient scaling ----------------------------------------------


def check_mollifier_scaling() -> CheckResult:
    worst = 0.0
    worst_at = ""
    worst_q1 = 0.0
    measured = {}
    for n in (2, 3):
        spec = MollifierSpec(dimension=n, delta=0.25)
        # by parts, ||grad J_delta||_1 = (n - 1) I_(n-2) / (I_(n-1) delta) with
        # I_p the integral of t^p exp(-1/(1-t^2)) over [0, 1]: no slope, no c_n
        l1_times_delta = (n - 1) * _radial_bump_integral(n - 2) / _radial_bump_integral(n - 1)
        for q in (1.0, 1.5, 2.0):
            fit = mollifier_gradient_scaling(q, spec)
            err = abs(fit.exponent - fit.reference_exponent)
            measured[f"n{n}_q{q:g}"] = fit.exponent
            if err > worst:
                worst, worst_at = err, f"n={n} q={q:g}"
            if q == 1.0:
                for d, norm in zip(fit.deltas, fit.norms):
                    closed = l1_times_delta / d
                    worst_q1 = max(worst_q1, abs(norm - closed) / closed)
    return _result(
        "mollifier-scaling",
        worst < 0.05 and worst_q1 < 1e-5,
        worst_exponent_gap=worst,
        worst_at=worst_at,
        **measured,
        worst_q1_rel_gap=worst_q1,
    )


# -- 13: explicit desk-scale exclusions -------------------------------------------


def check_scope_notes() -> CheckResult:
    # documentation check: these claims are out of finite-computation reach
    # and are covered only by the polynomial-family property checks above
    return _result(
        "scope-notes",
        True,
        excluded_1="limits of arbitrary weakly harmonic sequences (verified on polynomial families only)",
        excluded_2="a single universal decay constant across all maps (explicit constants per family only)",
        excluded_3="distributional-solution generality (desk-scale checks use certified polynomial maps)",
    )


# -- driver -----------------------------------------------------------------------


def run_suite(seed: int = 7, workers: int = 1) -> SuiteReport:
    scan = identity_reports(seed)
    checks = (
        check_volume_peak(),
        check_identity_energy(),
        check_pohozaev(scan),
        check_green(scan),
        check_decay_fit(seed),
        check_dyadic_contraction(seed),
        check_concentration(),
        check_minimiser_bound(scan),
        check_c1_rate(),
        check_mean_value(seed),
        check_mc_oracle(seed, workers),
        check_mollifier_scaling(),
        check_scope_notes(),
    )
    return SuiteReport(
        version=VERSION,
        seed=seed,
        workers=workers,
        checks=checks,
        passed=all(c.passed for c in checks),
    )
