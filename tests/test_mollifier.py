"""Grid mollification: kernel normalisation, mean-value defects, scaling laws."""

import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballharmonics import mollifier
from ballharmonics.harmonics import (
    HarmonicMap,
    identity_map,
    random_harmonic_polynomial,
    zonal_solid_harmonic,
)
from ballharmonics.mollifier import (
    GRID_DIMENSION_CAP,
    MollifierSpec,
    kernel_field,
    mean_value_check,
    mean_value_convergence,
    mollifier_gradient_scaling,
)
from ballharmonics.polynomials import MultiPoly, VectorPoly, as_vector, parse_poly

from oracles import (
    coordinate_of,
    direct_mollify_at,
    gradient_magnitude_at_radii,
    index_of,
    sample_scalar_on_grid,
)


SPEC2 = MollifierSpec(dimension=2, delta=0.25)


def _run_fresh(*args, address_space_cap: int | None = None):
    """Run an interpreter on args with this checkout's src first on the path; its stdout.

    ``address_space_cap`` caps the child's address space in bytes, with BLAS
    held to one thread so that thread stacks do not eat into the cap.
    """
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    cap = None
    if address_space_cap is not None:
        resource = pytest.importorskip("resource")
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (address_space_cap, address_space_cap))

    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestKernel:
    def test_normalisation_on_grid(self):
        kern = kernel_field(SPEC2, 1 / 128)
        grid_integral = float(np.sum(kern)) * (1 / 128) ** 2
        assert grid_integral == pytest.approx(1.0, abs=1e-6)

    def test_center_value_scales_like_delta_power(self):
        # J_delta(0) = delta^(-n) J(0), at the middle entry of the (2K+1)^n array
        ka = kernel_field(MollifierSpec(dimension=2, delta=0.5), 1 / 128)
        kb = kernel_field(MollifierSpec(dimension=2, delta=0.25), 1 / 128)
        assert ka.shape == (129, 129) and kb.shape == (65, 65)
        assert kb[32, 32] / ka[64, 64] == pytest.approx(4.0, rel=1e-12)

    def test_support_radius(self):
        # offsets -K..K with K h = delta: the array ends on the support boundary
        kern = kernel_field(SPEC2, 1 / 64)
        assert kern.shape == (33, 33)
        # vanishes on the support boundary and is positive just inside it
        assert kern[0, 16] == kern[16, 32] == kern[0, 0] == 0.0
        assert kern[1, 16] > 0.0 and kern[16, 31] > 0.0

    def test_second_moment_positive_and_scales(self):
        m_half = MollifierSpec(dimension=2, delta=0.5).second_moment()
        m_quarter = MollifierSpec(dimension=2, delta=0.25).second_moment()
        assert m_half > 0
        assert m_quarter == pytest.approx(m_half / 4, rel=1e-10)

    @pytest.mark.parametrize("power", range(5))
    def test_radial_integral_within_one_ulp_of_mpmath(self, power):
        # powers n - 1 and n + 1 for n <= 3, against a 40-digit value
        with mpmath.workdps(40):
            exact = mpmath.quad(lambda t: t**power * mpmath.exp(-1 / (1 - t * t)), [0, 1])
            error = abs(mpmath.mpf(mollifier._radial_bump_integral(power)) - exact)
        assert error <= math.ulp(float(exact))

    def test_radial_integral_guard_fires_on_a_coarse_rule(self, monkeypatch):
        monkeypatch.setattr(mollifier, "_TANH_SINH_STEP", 1 / 2)
        with pytest.raises(ArithmeticError, match="exceeds 1e-10"):
            mollifier._radial_bump_integral(2)

    def test_radial_integral_guard_is_relative_to_a_tiny_integral(self, monkeypatch):
        # at power 399 the integral is 5.3e-15 and the coarse rule reads 2.8e-15,
        # an error far below 1e-10 that an absolute check let through
        monkeypatch.setattr(mollifier, "_TANH_SINH_STEP", 1 / 2)
        with pytest.raises(ArithmeticError, match="exceeds 1e-10 of 2.8"):
            mollifier._radial_bump_integral(399)

    @pytest.mark.parametrize("power", [100, 399])
    def test_radial_integral_at_a_high_power_passes_its_relative_check(self, power):
        # the kept step meets the relative check, and is good to 1e-14 against mpmath
        with mpmath.workdps(40):
            exact = mpmath.quad(lambda t: t**power * mpmath.exp(-1 / (1 - t * t)), [0, 1])
            error = abs(mpmath.mpf(mollifier._radial_bump_integral(power)) - exact)
        assert error <= 1e-14 * exact

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            MollifierSpec(dimension=2, delta=0.75)
        with pytest.raises(ValueError):
            MollifierSpec(dimension=2, delta=0.0)
        with pytest.raises(ValueError):
            MollifierSpec(dimension=GRID_DIMENSION_CAP + 1, delta=0.25)

    @pytest.mark.parametrize(
        "dimension, spacing, nodes", [(2, "1 / 1048576", 524289**2), (3, "1 / 4096", 2049**3)]
    )
    def test_kernel_box_over_the_node_cap_is_refused_before_allocating(
        self, dimension, spacing, nodes
    ):
        # the box needs 2 TiB in 2D and 64 GiB in 3D; the child's address space is
        # capped at 4 GiB, so an attempt to allocate it ends in numpy's MemoryError
        script = (
            "from ballharmonics.mollifier import MollifierSpec, kernel_field\n"
            "try:\n"
            f"    kernel_field(MollifierSpec({dimension}, 0.25), {spacing})\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        out = _run_fresh("-c", script, address_space_cap=4 << 30)
        assert f" {nodes} nodes" in out and "allocate" in out, out


class TestConvolution:
    POINTS = ((0.0, 0.0), (0.25, -0.25), (0.5, 0.125), (-0.625, 0.5))

    def test_constants_are_fixed_points(self):
        # the residual for a constant input is exactly the kernel's grid
        # normalisation error, which shrinks with the spacing
        one = MultiPoly.constant(2, 1)
        for spacing, budget in ((1 / 64, 1e-5), (1 / 128, 1e-6)):
            field = sample_scalar_on_grid(one, spacing)
            for point in self.POINTS:
                smoothed = direct_mollify_at(field, spacing, SPEC2, index_of(point, spacing))
                assert abs(smoothed - 1.0) < budget

    def test_linear_functions_preserved(self):
        # first moments of the symmetric kernel vanish
        p = MultiPoly(2, {(1, 0): 1, (0, 1): Fraction(-1, 2)})
        field = sample_scalar_on_grid(p, 1 / 128)
        for point in self.POINTS:
            smoothed = direct_mollify_at(field, 1 / 128, SPEC2, index_of(point, 1 / 128))
            assert smoothed == pytest.approx(float(p.evaluate(point)), abs=1e-6)

    def test_margin_is_masked(self):
        # the kernel's footprint leaves the grid within delta of its edge
        h = 1 / 32
        field = sample_scalar_on_grid(MultiPoly.constant(2, 1), h)
        for point in ((-1.0, -1.0), (0.0, 1.0), (-0.75 - h, 0.0)):
            with pytest.raises(ValueError, match="masked margin"):
                direct_mollify_at(field, h, SPEC2, index_of(point, h))
        # the last node outside the margin sums the whole footprint, as the centre does
        edge = direct_mollify_at(field, h, SPEC2, index_of((-0.75, 0.0), h))
        assert edge == pytest.approx(direct_mollify_at(field, h, SPEC2, index_of((0.0, 0.0), h)))


class TestMeanValue:
    POINTS = ((0.0, 0.0), (0.25, 0.0), (-0.5, -0.5), (0.375, 0.25))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_harmonic_defect_tiny(self, k):
        u = zonal_solid_harmonic(2, k)
        report = mean_value_check(u, SPEC2, self.POINTS, spacing=1 / 128)
        assert report.sup_error < 1e-7
        assert not report.not_a_counterexample

    def test_random_harmonic_defect_tiny(self):
        u = random_harmonic_polynomial(2, 4, 19)
        report = mean_value_check(u, SPEC2, self.POINTS, spacing=1 / 128)
        assert report.sup_error < 1e-6

    def test_control_defect_equals_second_moment(self):
        # |x|^2 has constant laplacian 4, and J_delta * |x|^2 - |x|^2 is
        # exactly the kernel's second moment everywhere
        sq = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        report = mean_value_check(sq, SPEC2, self.POINTS, spacing=1 / 128)
        moment = SPEC2.second_moment()
        assert report.not_a_counterexample
        for err in report.errors:
            assert err == pytest.approx(moment, abs=1e-6)

    def test_report_carries_values(self):
        u = zonal_solid_harmonic(2, 2)
        report = mean_value_check(u, SPEC2, self.POINTS, spacing=1 / 64)
        for pt, (val,), (smooth,), err in zip(
            report.points, report.values, report.mollified, report.errors
        ):
            assert val == pytest.approx(float(u.body[0].evaluate(pt)))
            assert err == pytest.approx(abs(smooth - val), abs=1e-15)

    def test_point_outside_budget_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            mean_value_check(
                zonal_solid_harmonic(2, 1), SPEC2, [(0.9, 0.0)], spacing=1 / 64
            )

    def test_nan_point_rejected_as_leaving_the_ball(self):
        # hypot(...) > budget is False for NaN, so the point reached round()
        with pytest.raises(ValueError, match="leaves the ball"):
            mean_value_check(zonal_solid_harmonic(2, 1), SPEC2, [(math.nan, 0.1)], spacing=1 / 64)

    def test_point_in_masked_margin_rejected(self, monkeypatch):
        # the radius budget keeps every snapped point of a valid spec clear of
        # the margin, so a kernel array wider than its delta stands in for the
        # case: 65 x 65 entries reach 32 nodes, past the edge from x = 0.75
        wide_kernel = mollifier.kernel_field(MollifierSpec(dimension=2, delta=0.5), 1 / 64)
        assert wide_kernel.shape == (65, 65)
        monkeypatch.setattr(mollifier, "kernel_field", lambda spec, spacing: wide_kernel)
        with pytest.raises(ValueError, match="masked margin"):
            mean_value_check(
                zonal_solid_harmonic(2, 1), SPEC2, [(0.0, 0.0), (0.75, 0.0)], spacing=1 / 64
            )
        # the same wide array still fits around a point 1/2 from the edge
        report = mean_value_check(zonal_solid_harmonic(2, 1), SPEC2, [(0.5, 0.0)], spacing=1 / 64)
        assert report.points == ((0.5, 0.0),)

    def test_point_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="3 coordinates, expected 2"):
            mean_value_check(zonal_solid_harmonic(2, 2), SPEC2, [(0.0, 0.0, 0.0)], spacing=1 / 64)

    @pytest.mark.parametrize(
        "text,point",
        [
            (f"{10**308}*x1^2 - {10**308}*x2^2", (0.25, 0.0)),  # the sum overflows to inf
            (f"{10**308}*x1^2 - {10**308}*x2^2", (0.125, 0.125)),  # inf - inf in it: nan
            ("1.7e308*x1 + 1.7e308*x2", (0.53, 0.53)),  # finite terms, the node value is not
        ],
        ids=["inf", "nan", "node"],
    )
    def test_values_beyond_the_float_range_are_refused(self, text, point):
        # max([0.0, nan]) is 0.0, so a nan mollified sum once reported no error
        with pytest.raises(ValueError, match=re.escape(f"not finite at the point {point}")):
            mean_value_check(parse_poly(text, 2), SPEC2, [point], spacing=1 / 64)

    def test_map_past_the_grid_cap_is_refused_by_the_kernel_dimension(self):
        # a spec is capped at 3 dimensions, so comparing it with the map's
        # dimension is what refuses every larger map
        with pytest.raises(ValueError, match="kernel dimension 2 != map dimension 4"):
            mean_value_check(identity_map(4), SPEC2, [(0.0,) * 4], spacing=1 / 64)

    def test_non_dyadic_spacing_reads_u_at_the_centre_of_its_box(self):
        # at spacing 0.1 the lattice point 2 * 0.1 is 0.2, the centre of the
        # box the sum reads; -1 + 12 * 0.1 would be 0.20000000000000018
        u = zonal_solid_harmonic(2, 2)
        report = mean_value_check(u, MollifierSpec(2, 0.25), [(0.2, 0.0)], spacing=0.1)
        assert report.points == ((0.2, 0.0),)
        assert report.values == ((float(u.body[0].evaluate((0.2, 0.0))),),)

    def test_direct_sum_refuses_the_masked_margin(self):
        field = sample_scalar_on_grid(MultiPoly.constant(2, 1), 1 / 32)
        with pytest.raises(ValueError, match="masked margin"):
            direct_mollify_at(field, 1 / 32, SPEC2, (3, 16))

    @pytest.mark.parametrize(
        "spacing,message",
        [
            (0.0, "spacing must be positive"),
            (-1 / 64, "spacing must be positive"),
            (math.nan, "spacing must be positive"),
            (math.inf, "spacing must be positive"),
            (1e-320, "too fine"),
            (0.3, "integer multiple of spacing"),
            (1 / 3, "cannot resolve a kernel"),
        ],
    )
    def test_bad_spacing_rejected(self, spacing, message):
        with pytest.raises(ValueError, match=message):
            mean_value_check(zonal_solid_harmonic(2, 2), SPEC2, self.POINTS, spacing=spacing)

    def test_convergence_order_superquadratic(self):
        conv = mean_value_convergence(
            zonal_solid_harmonic(2, 4), SPEC2, self.POINTS, (1 / 16, 1 / 32, 1 / 64)
        )
        assert all(e > 0 for e in conv.sup_errors)
        assert all(a > b for a, b in zip(conv.sup_errors, conv.sup_errors[1:]))
        assert min(conv.orders) >= 1.8

    def test_convergence_script_writes_its_table(self, tmp_path):
        # the control's defect at the script's finest spacing sits on the kernel's second moment
        out = tmp_path / "mollifier.csv"
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "mollifier_convergence.py"
        _run_fresh(str(script), "--out", str(out))
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert rows[0] == "spacing,harmonic_defect,harmonic_order,control_defect,control_order"
        control_defect = float(rows[-1].split(",")[3])
        assert abs(control_defect - MollifierSpec(2, 0.25).second_moment()) < 1e-6


# -- the mean-value check reads the defining sum at its nodes only ----------------


@st.composite
def compositions(draw, n, d):
    """An exponent tuple of total degree d in n variables."""
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))


@st.composite
def grid_maps(draw, n):
    """Certified exact maps, or bare (generally non-harmonic) bodies of 1-3 components."""
    top = 1 if n == 1 else 4
    kind = draw(st.sampled_from(("zonal", "random", "identity", "bare")))
    if kind == "zonal":
        return zonal_solid_harmonic(n, draw(st.integers(0, top)))
    if kind == "random":
        return random_harmonic_polynomial(n, draw(st.integers(0, top)), draw(st.integers(0, 99)))
    if kind == "identity":
        return identity_map(n)
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=7)
    exps = st.integers(0, 4).flatmap(lambda d: compositions(n, d))
    comps = draw(
        st.lists(
            st.dictionaries(exps, coeffs, max_size=5).map(lambda t: MultiPoly(n, t)),
            min_size=1,
            max_size=3,
        )
    )
    return comps[0] if len(comps) == 1 else VectorPoly(comps)


@st.composite
def mean_value_cases(draw):
    n = draw(st.integers(1, 3))
    spacing = draw(st.sampled_from((1 / 16, 1 / 32, 1 / 64) + ((1 / 128,) if n <= 2 else ())))
    spec = MollifierSpec(dimension=n, delta=draw(st.sampled_from((0.125, 0.25, 0.3, 0.5))))
    half = round(1 / spacing)
    budget = 1.0 - spec.delta
    points = []
    for _ in range(draw(st.integers(1, 3))):
        idx = draw(st.lists(st.integers(-half, half), min_size=n, max_size=n))
        r = math.hypot(*[i * spacing for i in idx])
        if r > budget:
            # pull the lattice point towards 0 until it fits inside the budget
            idx = [int(i * budget / r) for i in idx]
        points.append(tuple(i * spacing for i in idx))
    return draw(grid_maps(n)), spec, points, spacing


class TestMeanValueRoute:
    @given(mean_value_cases())
    @settings(max_examples=60, deadline=None)
    def test_property_equals_the_direct_sum_on_the_whole_grid(self, case):
        u, spec, points, spacing = case
        report = mean_value_check(u, spec, points, spacing=spacing)
        comps = list(u.body) if isinstance(u, HarmonicMap) else list(as_vector(u))
        certified = u.certified if isinstance(u, HarmonicMap) else all(
            c.is_harmonic() for c in comps
        )
        assert report.not_a_counterexample == (not certified)
        for i, comp in enumerate(comps):
            field = sample_scalar_on_grid(comp, spacing)
            for j, pt in enumerate(points):
                idx = index_of(pt, spacing)
                node = coordinate_of(idx, spacing)
                assert report.points[j] == node
                assert report.values[j][i] == float(comp.evaluate(node))
                direct = direct_mollify_at(field, spacing, spec, idx)
                assert report.mollified[j][i] == direct
        assert report.errors == tuple(
            max([0.0] + [abs(a - e) for a, e in zip(m, v)])
            for m, v in zip(report.mollified, report.values)
        )
        assert report.sup_error == max(report.errors)

    def test_never_forms_the_whole_field(self, monkeypatch):
        # u is sampled on the kernel's box around each point, which never
        # spans the whole square [-1, 1] along an axis
        original = mollifier.poly_on_grid

        def box_only(p, axes):
            if any(a[0] <= -1.0 and a[-1] >= 1.0 for a in axes):
                raise AssertionError("the whole sampled field was formed")
            return original(p, axes)

        monkeypatch.setattr(mollifier, "poly_on_grid", box_only)
        u2 = random_harmonic_polynomial(2, 4, 19)
        assert mean_value_check(u2, SPEC2, TestMeanValue.POINTS, spacing=1 / 256).sup_error < 1e-6
        spec3 = MollifierSpec(dimension=3, delta=0.25)
        report = mean_value_check(identity_map(3), spec3, [(0.0, 0.25, -0.125)], spacing=1 / 32)
        assert len(report.mollified[0]) == 3

    def test_memory_is_the_kernel_box_not_the_grid(self):
        # the whole 257^3 grid would take 136 MB per array at h = 1/128
        spec3 = MollifierSpec(dimension=3, delta=0.25)
        u = random_harmonic_polynomial(3, 3, 5)
        points = [(0.0, -0.25, 0.125), (0.125, 0.125, 0.125), (-0.375, 0.25, 0.0)]
        tracemalloc.start()
        try:
            report = mean_value_check(u, spec3, points, spacing=1 / 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.sup_error < 1e-6
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize(
        "delta, expected",
        [
            ("2**-30", "((0.0, 0.0), (0.25, -0.5)) ((0.0,), (-0.1875,)) True"),
            ("0.25", f"the kernel box of {(2**32 + 1) ** 2} nodes exceeds"),
        ],
        ids=["2**-30", "0.25"],
    )
    def test_fine_spacing_costs_the_kernel_box_not_the_grid_axis(self, delta, expected):
        # at h = 2^-33 the grid axis alone holds 2^34 + 1 floats, 128 GiB, over the
        # child's 4 GiB cap; each node and box is formed from its index, so a
        # small kernel runs and a large one meets the node cap
        script = (
            "from ballharmonics.harmonics import zonal_solid_harmonic\n"
            "from ballharmonics.mollifier import MollifierSpec, mean_value_check\n"
            "try:\n"
            f"    spec = MollifierSpec(2, {delta})\n"
            "    points = [(0.0, 0.0), (0.25, -0.5)]\n"
            "    r = mean_value_check(zonal_solid_harmonic(2, 2), spec, points, spacing=2**-33)\n"
            "    print(r.points, r.values, r.sup_error < 1e-3)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        out = _run_fresh("-c", script, address_space_cap=4 << 30)
        assert expected in out, out

    def test_mean_value_check_does_not_import_scipy_signal(self):
        script = (
            "import sys\n"
            "from ballharmonics.harmonics import zonal_solid_harmonic\n"
            "from ballharmonics.mollifier import MollifierSpec, mean_value_check\n"
            "spec = MollifierSpec(dimension=2, delta=0.25)\n"
            "mean_value_check(zonal_solid_harmonic(2, 3), spec, [(0.25, 0.0)], spacing=1 / 64)\n"
            "print('scipy.signal' in sys.modules)\n"
        )
        assert _run_fresh("-c", script) == "False\n"

    def test_suite_and_mollify_load_no_scipy(self, tmp_path):
        # the kernel constants come from a tanh-sinh rule, not scipy's quad
        out = tmp_path / "mollify.csv"
        script = (
            "import sys\n"
            "import ballharmonics.suite\n"
            "from ballharmonics.cli import main\n"
            f"code = main(['mollify', '--out', {str(out)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert _run_fresh("-c", script) == "0 []\n"
        assert out.read_text().count("\n") > 1


class TestScaling:
    @pytest.mark.parametrize("n,q", [(2, 1.0), (2, 2.0), (3, 1.5)])
    def test_exponent_matches_dimensional_analysis(self, n, q):
        spec = MollifierSpec(dimension=n, delta=0.25)
        fit = mollifier_gradient_scaling(q, spec)
        assert fit.exponent == pytest.approx(n / q - n - 1, abs=0.05)
        assert fit.max_fit_residual < 1e-3

    def test_duplicate_deltas_raise_value_error(self):
        # equal deltas leave the log-log fit without a slope; this used to be a ZeroDivisionError
        with pytest.raises(ValueError, match="distinct deltas"):
            mollifier_gradient_scaling(1.0, MollifierSpec(2, 0.25), deltas=(0.25, 0.25))

    def test_norms_decrease_with_delta(self):
        spec = MollifierSpec(dimension=2, delta=0.25)
        fit = mollifier_gradient_scaling(1.0, spec)
        # gradient norms blow up as delta shrinks (negative exponent)
        assert all(a < b for a, b in zip(fit.norms, fit.norms[1:])) or all(
            a > b for a, b in zip(fit.norms, fit.norms[1:])
        )
        assert fit.exponent < 0


def least_squares_slope(xs, ys):
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    return math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx


def per_delta_norms(spec, q, deltas, nodes_per_delta=64):
    """||grad J_delta||_q over a radius mesh built afresh at spacing delta / nodes_per_delta.

    The mesh's q-th powers are summed by ``math.fsum``, exactly rounded.
    """
    n = spec.dimension
    norms = []
    for d in deltas:
        per_delta = MollifierSpec(dimension=n, delta=d)
        h = d / nodes_per_delta
        half = int(math.floor(d / h + 1e-12))
        axis = (np.arange(2 * half + 1) - half) * h
        total = np.zeros((1,) * n)
        for g in np.meshgrid(*[axis] * n, indexing="ij", sparse=True):
            total = total + g * g
        mags = gradient_magnitude_at_radii(per_delta, np.sqrt(total))
        norms.append((math.fsum((mags**q).ravel().tolist()) * h**n) ** (1.0 / q))
    return norms


def brute_force_shell_counts(n, nodes_per_delta):
    """Lattice points of Z^n / N per shell N^2 |y|^2 = m < N^2, by bincount of the whole mesh."""
    axis = np.arange(-nodes_per_delta, nodes_per_delta + 1)
    total = np.zeros((1,) * n, dtype=np.int64)
    for g in np.meshgrid(*[axis] * n, indexing="ij", sparse=True):
        total = total + g * g
    shells = nodes_per_delta**2
    inside = total[total < shells]
    return np.bincount(inside, minlength=shells)


class TestScalingFromOneUnitProfile:
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dyadic_deltas_match_per_delta_meshes_to_the_bit(self, n, q):
        # the n = 3 oracle visits (2N + 1)^3 nodes per delta in Python's fsum
        nodes_per_delta = 32 if n == 3 else 64
        spec = MollifierSpec(dimension=n, delta=0.25)
        fit = mollifier_gradient_scaling(q, spec, nodes_per_delta=nodes_per_delta)
        norms = per_delta_norms(spec, q, fit.deltas, nodes_per_delta)
        assert fit.deltas == (0.5, 0.25, 0.125, 0.0625)
        assert fit.norms == tuple(norms)
        xs = [math.log(d) for d in fit.deltas]
        assert fit.exponent == least_squares_slope(xs, [math.log(v) for v in norms])

    @pytest.mark.parametrize("n,q", [(1, 1.5), (2, 1.0), (2, 3.0), (3, 2.0)])
    def test_other_deltas_match_per_delta_meshes(self, n, q):
        deltas = (0.3, 0.2, 0.1)
        spec = MollifierSpec(dimension=n, delta=0.25)
        fit = mollifier_gradient_scaling(q, spec, deltas=deltas, nodes_per_delta=24)
        norms = per_delta_norms(spec, q, deltas, nodes_per_delta=24)
        assert fit.norms == pytest.approx(norms, rel=1e-12, abs=0)
        xs = [math.log(d) for d in deltas]
        reference = least_squares_slope(xs, [math.log(v) for v in norms])
        assert fit.exponent == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("nodes_per_delta", [8, 10, 24, 64])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shell_counts_match_a_bincount_of_the_whole_mesh(self, n, nodes_per_delta):
        counts, slopes = mollifier._shell_table(n, nodes_per_delta)
        np.testing.assert_array_equal(counts, brute_force_shell_counts(n, nodes_per_delta))
        assert slopes.shape == counts.shape

    def test_exact_dot_rounds_once(self):
        # 3 * (1 + 2^-52) rounds up to 3 + 2^-50, so a plain fsum of the products reads 2^-50
        counts = np.array([3, 3])
        assert mollifier._exact_dot(counts, np.array([1.0 + 2.0**-52, -1.0])) == 3 * 2.0**-52

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**26),
                st.floats(-1e290, 1e290, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_property_exact_dot_is_the_exact_sum_rounded(self, pairs):
        counts = np.array([c for c, _ in pairs], dtype=np.int64)
        values = np.array([v for _, v in pairs])
        exact = sum(Fraction(c) * Fraction(v) for c, v in pairs)
        assert mollifier._exact_dot(counts, values) == float(exact)

    def test_memory_is_the_shell_table_not_the_mesh(self):
        # a 129^3 float mesh alone is 17 MB; the shell table at N = 64 is 4096 shells
        mollifier._shell_table.cache_clear()
        spec = MollifierSpec(dimension=3, delta=0.25)
        tracemalloc.start()
        try:
            for q in (1.0, 1.5, 2.0):
                mollifier_gradient_scaling(q, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_fractional_nodes_per_delta_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            mollifier_gradient_scaling(1.0, SPEC2, nodes_per_delta=10.5)

