"""Acceptance gate: thirteen numbered criteria, one test and verdict line each.

Every test prints ``criterion NN (name): PASS`` / ``... FAIL`` so the verbose
log carries a single line per criterion.  Each criterion is defined once, by
its ``check_*`` in ``ballharmonics.suite``; a test calls that check, asserts
on its verdict and headline details, and asserts the runtime budget.
Planted-defect tests monkeypatch a mutant into the package and assert that
the check it feeds fails.
"""

import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from ballharmonics import energetics, geometry, identities, integration, mollifier, suite
from ballharmonics.integration import EXACT
from ballharmonics.suite import (
    check_c1_rate,
    check_concentration,
    check_decay_fit,
    check_dyadic_contraction,
    check_green,
    check_identity_energy,
    check_mc_oracle,
    check_mean_value,
    check_minimiser_bound,
    check_mollifier_scaling,
    check_pohozaev,
    check_scope_notes,
    check_volume_peak,
    identity_reports,
)

SEED = 7


def verdict(number, name):
    """Decorator printing the one-line verdict for a criterion."""

    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} ({name}): FAIL")
                raise
            print(f"criterion {number:02d} ({name}): PASS")

        run.__name__ = fn.__name__
        return run

    return wrap


def timed(check, *args, **kwargs):
    start = time.perf_counter()
    result = check(*args, **kwargs)
    return result, time.perf_counter() - start


def scanned(check, seed):
    """Criteria 03, 04 and 08 read one identity scan; run it, then the check."""
    return check(identity_reports(seed))


@pytest.fixture
def sphere_factor_off(monkeypatch):
    """Plant a relative error in every exact sphere factor, past the profile cache."""

    def plant(rel: Fraction) -> None:
        factor = integration._sphere_monomial_rational

        def mutant(n, d):
            return factor(n, d) * (1 + rel)

        for module in (integration, energetics):
            monkeypatch.setattr(module, "_sphere_monomial_rational", mutant)

    energetics._radial_profile.cache_clear()
    yield plant
    energetics._radial_profile.cache_clear()


@verdict(1, "volume peak")
def test_criterion_01_volume_peak():
    result = check_volume_peak()
    assert result.passed, result.details
    assert result.details["argmax"] == 5
    assert result.details["rel_err"] < 1e-12
    # the CLI table renders the same numbers, within the runtime budget
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ballharmonics.cli", "volumes", "--n-max", "200"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert f"# volume_argmax: {result.details['argmax']}" in proc.stdout
    row5 = next(line for line in proc.stdout.splitlines() if line.startswith("5,"))
    assert float(row5.split(",")[1]) == result.details["v5"]
    assert elapsed < 1.0, f"volumes took {elapsed:.2f}s"


class TestCriterion01CanFail:
    """An argmax that lands one dimension past the peak."""

    def test_argmax_off_by_one_fails(self, monkeypatch):
        monkeypatch.setattr(suite, "volume_argmax", lambda n_max: geometry.volume_argmax(n_max) + 1)
        result = check_volume_peak()
        assert result.details["argmax"] == 6
        assert result.details["rel_err"] < 1e-12
        assert not result.passed


@verdict(2, "identity-map energy")
def test_criterion_02_identity_energy():
    result, elapsed = timed(check_identity_energy)
    assert result.passed, result.details
    assert result.details["worst_rel_err"] < 1e-12
    assert elapsed < 1.0, f"energy scan took {elapsed:.2f}s"


class TestCriterion02CanFail:
    """An exact sphere factor off in its tenth digit."""

    def test_sphere_factor_off_by_1e_10_fails(self, sphere_factor_off):
        sphere_factor_off(Fraction(1, 10**10))
        result = check_identity_energy()
        assert result.details["worst_rel_err"] == pytest.approx(1e-10, rel=1e-3)
        assert not result.passed


@verdict(3, "inner variation identity")
def test_criterion_03_pohozaev():
    result, elapsed = timed(scanned, check_pohozaev, SEED)
    assert result.passed, result.details
    assert result.details["worst_normalized_residual"] < 1e-10
    # dimensions 2..10, identity + zonal 0..5 + random 1..4 (n >= 2), three radii
    assert result.details["checks"] == 9 * 11 * 3
    assert elapsed < 30.0, f"scan took {elapsed:.2f}s"


@verdict(4, "boundary flux identity")
def test_criterion_04_green():
    result, elapsed = timed(scanned, check_green, SEED)
    assert result.passed, result.details
    assert result.details["worst_normalized_residual"] < 1e-10
    assert result.details["checks"] == 9 * 11 * 3
    assert elapsed < 30.0, f"scan took {elapsed:.2f}s"


class TestCriteria03And04CanFail:
    """A wrong power of r on one side of each identity."""

    def test_normal_energy_lifted_by_minus_one_fails_pohozaev(self, monkeypatch):
        monkeypatch.setattr(
            identities,
            "normal_energy_result",
            lambda u, r=1, spec=EXACT: energetics._energy(u, r, spec, "pairing", lift=-1),
        )
        assert not scanned(check_pohozaev, SEED).passed

    def test_flux_not_lifted_fails_green(self, monkeypatch):
        monkeypatch.setattr(
            identities,
            "_flux_result",
            lambda u, r, spec: energetics._energy(u, r, spec, "flux", lift=0),
        )
        assert not scanned(check_green, SEED).passed


@verdict(5, "energy decay law")
def test_criterion_05_decay_law():
    result = check_decay_fit(SEED)
    assert result.passed, result.details
    assert result.details["worst_fit_error"] < 1e-9
    assert result.details["decay_bounds_hold"]
    assert result.details["margins_monotone_in_beta"]
    # dimensions 2..6: identity, zonal 1..5 and random 1..4 of standard_maps
    assert result.details["bound_maps_checked"] == 5 * 10


@verdict(6, "dyadic contraction")
def test_criterion_06_dyadic_contraction():
    result = check_dyadic_contraction(SEED)
    assert result.passed, result.details
    assert result.details["all_below_one"]
    assert result.details["worst_rel_err"] < 1e-12
    # dimensions 2..6: the ten non-constant standard maps, a mixed and a random map
    assert result.details["maps_checked"] == 5 * 12


@verdict(7, "boundary concentration")
def test_criterion_07_concentration():
    result = check_concentration()
    assert result.passed, result.details
    assert result.details["worst_abs_err"] < 1e-12
    assert result.details["worst_abs_err_vs_power"] < 1e-12
    assert result.details["strictly_increasing"]
    assert result.details["above_threshold_from_n88"]
    assert result.details["fraction_n87"] <= 1 - 1e-4 < result.details["fraction_n88"]
    assert result.details["exact_energy_and_power_ratio"]


class TestCriterion07CanFail:
    """An exact sphere factor off by 1e-14, inside every float tolerance."""

    def test_sphere_factor_off_by_1e_14_fails(self, sphere_factor_off):
        sphere_factor_off(Fraction(1, 10**14))
        result = check_concentration()
        # the float comparisons cannot see it; the exact E(1) = n |B^n| can
        assert result.details["worst_abs_err"] < 1e-12
        assert not result.details["exact_energy_and_power_ratio"]
        assert not result.passed


class TestCriteria05To07CanFail:
    """The ball's radial power off by one: E(r) picks up a stray factor r."""

    @pytest.fixture(autouse=True)
    def ball_power_off_by_one(self, monkeypatch):
        radial = integration._radial_integral

        def mutant(n, profile, r, ball=False, lift=0):
            return radial(n, profile, r, ball, lift + 1 if ball else lift)

        for module in (integration, energetics):
            monkeypatch.setattr(module, "_radial_integral", mutant)

    def test_decay_fit_fails(self):
        result = check_decay_fit(SEED)
        assert result.details["worst_fit_error"] == pytest.approx(1.0, abs=1e-9)
        assert not result.passed

    def test_dyadic_contraction_fails(self):
        result = check_dyadic_contraction(SEED)
        assert result.details["worst_rel_err"] == pytest.approx(0.5, rel=1e-12)
        assert not result.passed

    def test_concentration_fails(self):
        assert not check_concentration().passed


@verdict(8, "minimiser bound")
def test_criterion_08_minimiser_bound():
    result = scanned(check_minimiser_bound, SEED)
    assert result.passed, result.details
    assert result.details["worst_identity_rel_err"] < 1e-12
    assert result.details["all_margins_above_one"]
    assert result.details["smallest_margin"] > 1.0


class TestCriterion08CanFail:
    """A surface energy scaled down to the identity map's margin, so c1 H(1) only ties E(1)."""

    def test_surface_energy_scaled_to_the_identity_margin_fails(self, monkeypatch):
        surface = energetics.surface_dirichlet_result

        def mutant(u, r=1, spec=EXACT):
            n = u.dimension
            return surface(u, r, spec).scaled(Fraction(n - 2, 2 * (n - 1)))

        monkeypatch.setattr(identities, "surface_dirichlet_result", mutant)
        result = scanned(check_minimiser_bound, SEED)
        # the identity map's ratio 2 (n - 1) / (n - 2) becomes exactly 1, 3/4 below the 4 due at n = 3
        assert result.details["worst_identity_rel_err"] == 0.75
        assert result.details["smallest_margin"] == 1.0
        assert not result.details["all_margins_above_one"]
        assert not result.passed


@verdict(9, "O(1/n) constant")
def test_criterion_09_c1_rate():
    result = check_c1_rate()
    assert result.passed, result.details
    assert result.details["monotone_decreasing"]
    assert result.details["tail_below_one_fifth"]
    assert result.details["pipeline_spot_check"]
    assert result.details["float_worst_err"] < 1e-12
    # |c1 n - 2| = 4/(n - 2) reaches the 0.2 threshold exactly at n = 22
    assert result.details["gap_at_n22"] == 0.2


class TestCriterion09CanFail:
    """The report's constant taken as 2/(n - 1) in place of c1 = 2/(n - 2)."""

    def test_wrong_constant_in_the_report_fails(self, monkeypatch):
        report = identities._report

        def mutant(name, u, *sides, **bound):
            if "constant" in bound:
                bound["constant"] = float(Fraction(2, u.dimension - 1))
            return report(name, u, *sides, **bound)

        monkeypatch.setattr(identities, "_report", mutant)
        result = check_c1_rate()
        # the floats of the exact c1 n still fall; only the pipeline's report is off
        assert result.details["monotone_decreasing"]
        assert not result.details["pipeline_spot_check"]
        assert not result.passed


@verdict(10, "mean-value property")
def test_criterion_10_mean_value():
    result, elapsed = timed(check_mean_value, SEED)
    assert result.details["sup_error"] < 1e-4
    assert result.details["convergence_order"] >= 1.8
    assert all(d > 1e-3 for d in result.details["control_defects"])
    assert result.passed
    assert elapsed < 120.0, f"mean-value took {elapsed:.2f}s"


class TestCriterion10CanFail:
    """A kernel that integrates to 2 doubles every mollified value."""

    @pytest.fixture(autouse=True)
    def fresh_kernel_constants(self):
        mollifier._bump_second_moment.cache_clear()
        yield
        mollifier._bump_second_moment.cache_clear()

    def test_doubled_normalization_fails(self, monkeypatch):
        normalization = mollifier._bump_normalization
        monkeypatch.setattr(mollifier, "_bump_normalization", lambda n: 2.0 * normalization(n))
        result = check_mean_value(SEED)
        assert result.details["sup_error"] > 1e-4
        assert not result.passed


@verdict(11, "Monte Carlo oracle")
def test_criterion_11_mc_oracle():
    result, elapsed = timed(check_mc_oracle, SEED, workers=1)
    assert result.details["samples"] == 1_000_000
    assert result.details["hits_of_10_n2"] >= 9
    assert result.details["hits_of_10_n5"] >= 9
    assert result.details["hits_of_10_n10"] >= 9
    assert result.passed
    assert elapsed < 60.0, f"oracle took {elapsed:.2f}s"


class TestCriterion11CanFail:
    """A planted bias that the oracle's 3-sigma window must catch."""

    def test_means_shifted_by_ten_standard_errors_fail(self, monkeypatch):
        blocks = integration._mc_blocks

        def biased(*args):
            mean, stderr = blocks(*args)
            return mean + 10.0 * stderr, stderr

        monkeypatch.setattr(integration, "_mc_blocks", biased)
        result = check_mc_oracle(SEED, workers=1)
        # only a zero-variance integrand, whose shift is 0, could still hit
        assert max(result.details[f"hits_of_10_n{n}"] for n in (2, 5, 10)) <= 1
        assert not result.passed


@verdict(12, "mollifier scaling")
def test_criterion_12_mollifier_scaling():
    result = check_mollifier_scaling()
    assert result.passed
    assert result.details["worst_exponent_gap"] < 0.05
    # q = 1 reproduces the 1/delta blow-up of the kernel gradient in any n
    assert result.details["n2_q1"] == pytest.approx(-1.0, abs=0.05)
    # and the integrated-by-parts closed form of ||grad J_delta||_1 itself
    assert result.details["worst_q1_rel_gap"] < 1e-5


class TestCriterion12CanFail:
    """Planted defects that the fitted exponents alone do not see."""

    @pytest.fixture(autouse=True)
    def fresh_shell_tables(self):
        mollifier._shell_table.cache_clear()
        yield
        mollifier._shell_table.cache_clear()

    def test_wrong_slope_fails(self, monkeypatch):
        slope = mollifier._bump_radial_slope
        monkeypatch.setattr(
            mollifier, "_bump_radial_slope", lambda t: 7.0 * slope(t) * (1.0 + np.asarray(t) ** 3)
        )
        result = check_mollifier_scaling()
        # every norm is off by the same factor at every delta, so the exponents still fit
        assert result.details["worst_exponent_gap"] < 0.05
        assert not result.passed

    def test_doubled_normalization_fails(self, monkeypatch):
        normalization = mollifier._bump_normalization
        monkeypatch.setattr(mollifier, "_bump_normalization", lambda n: 2.0 * normalization(n))
        result = check_mollifier_scaling()
        assert result.details["worst_q1_rel_gap"] == pytest.approx(1.0, rel=1e-5)
        assert not result.passed


@verdict(13, "documented exclusions")
def test_criterion_13_scope_notes():
    result = check_scope_notes()
    assert result.passed
    notes = " ".join(str(v) for v in result.details.values())
    assert "weakly harmonic sequences" in notes
    assert "decay constant" in notes
    assert "distributional" in notes
    readme_path = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    readme = readme_path.read_text(encoding="utf-8")
    assert "Scope" in readme or "scope" in readme
