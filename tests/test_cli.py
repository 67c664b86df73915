"""End-to-end command-line behaviour: outputs, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ballharmonics import suite
from ballharmonics.cli import main
from ballharmonics.reporting import render_json

CLI = [sys.executable, "-m", "ballharmonics.cli"]


def run_cli(*args, env_extra=None, timeout=120):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


class TestVolumes:
    def test_table_and_argmax(self):
        proc = run_cli("volumes", "--n-max", "30")
        assert proc.returncode == 0
        assert "# volume_argmax: 5" in proc.stdout
        header = [l for l in proc.stdout.splitlines() if not l.startswith("#")][0]
        assert header == "n,volume,log_volume,sphere_area,shell_fraction,shell_width"

    def test_deterministic(self):
        a = run_cli("volumes", "--n-max", "50")
        b = run_cli("volumes", "--n-max", "50")
        assert a.stdout == b.stdout

    def test_does_not_import_numpy(self, tmp_path):
        # volume tables are log-space arithmetic: geometry reads exactmath, never numpy
        out = tmp_path / "volumes.csv"
        script = (
            "import sys\n"
            "from ballharmonics.cli import main\n"
            f"code = main(['volumes', '--out', {str(out)!r}])\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 False\n"
        assert "# volume_argmax: 5" in out.read_text()

    def test_n_max_validated(self):
        proc = run_cli("volumes", "--n-max", "3")
        assert proc.returncode == 2

    def test_writes_file_under_env_dir(self, tmp_path):
        proc = run_cli(
            "volumes",
            "--n-max",
            "8",
            "--out",
            "v.csv",
            env_extra={"BALLHARMONICS_OUTPUT_DIR": str(tmp_path)},
        )
        assert proc.returncode == 0
        assert (tmp_path / "v.csv").exists()


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("n-max = 10\nradius = 0.8\n")
        merged = run_cli("volumes", "--config", str(cfg), "--n-max", "6")
        assert merged.returncode == 0
        rows = [l for l in merged.stdout.splitlines() if l and not l.startswith("#")]
        assert rows[-1].startswith("6,")  # flag wins over the file's 10

    def test_unknown_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("definitely-not-an-option = 1\n")
        proc = run_cli("volumes", "--config", str(cfg))
        assert proc.returncode == 2
        assert "unknown option" in proc.stderr

    def test_missing_file_is_usage_error(self):
        proc = run_cli("volumes", "--config", "/definitely/not/here.cfg")
        assert proc.returncode == 2


class TestDecay:
    def test_verdict_fields(self, tmp_path):
        proc = run_cli(
            "decay",
            "--dimension",
            "3",
            "--map",
            "zonal:2",
            "--out",
            str(tmp_path / "decay.csv"),
        )
        assert proc.returncode == 0
        verdict = json.loads(proc.stdout)
        assert verdict["beta_hat"] == pytest.approx(5.0, abs=1e-9)
        assert verdict["theta_half"] == pytest.approx(2.0**-5, rel=1e-12)
        assert verdict["holds"] is True
        csv_lines = (tmp_path / "decay.csv").read_text().splitlines()
        assert any(line.startswith("r,") for line in csv_lines)

    @pytest.mark.parametrize(
        "flags",
        [("--beta", "nan"), ("--beta", "inf"), ("--constant", "inf"), ("--constant", "nan")],
    )
    def test_non_finite_beta_or_constant_is_usage_error(self, flags, tmp_path):
        # these used to print "holds": true, or die in a float division
        proc = run_cli("decay", "--map", "zonal:2", *flags, "--out", str(tmp_path / "d.csv"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "flags,code",
        [(("--beta", "1e9"), 1), (("--radii", "1e-320,1"), 0)],
    )
    def test_underflowing_bound_is_decided_from_the_logs(self, flags, code, tmp_path):
        proc = run_cli("decay", "--map", "zonal:2", *flags, "--out", str(tmp_path / "d.csv"))
        assert proc.returncode == code, proc.stderr
        assert json.loads(proc.stdout)["holds"] is (code == 0)

    def test_constant_map_prints_one_error_line(self):
        # every energy of a constant map is 0, so the fit has no sample; stderr
        # once carried a Python warning and its source line before the error
        proc = run_cli("decay", "--map", "zonal:0", "--out", "-")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert "got 0 of 5" in proc.stderr

    def test_zero_denominator_in_axis_is_usage_error(self, tmp_path):
        proc = run_cli(
            "decay", "--map", "zonal:1", "--axis", "1,0/0,0", "--out", str(tmp_path / "d.csv")
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_failing_bound_exits_one(self, tmp_path):
        # beta far above the true decay exponent cannot hold
        proc = run_cli(
            "decay",
            "--dimension",
            "3",
            "--map",
            "zonal:1",
            "--beta",
            "9",
            "--out",
            str(tmp_path / "d.csv"),
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["holds"] is False


class TestIdentities:
    def test_quick_suite_passes(self):
        proc = run_cli("identities", "--suite", "quick", "--dims", "2:4")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["max_normalized_residual"] == 0
        assert payload["residuals_within_tolerance"] is True
        assert payload["bound_margins_above_one"] is True
        assert payload["count"] == len(payload["reports"])

    def test_deterministic(self):
        a = run_cli("identities", "--suite", "quick", "--dims", "2:3")
        b = run_cli("identities", "--suite", "quick", "--dims", "2:3")
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "-1"])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        # an infinite tolerance passed every residual and exited 0
        proc = run_cli("identities", "--suite", "quick", "--dims", "2", "--tolerance", tolerance)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_does_not_import_scipy(self, tmp_path):
        # the map family lives in harmonics, so identities never loads the mollifier lab
        out = tmp_path / "identities.json"
        script = (
            "import sys\n"
            "from ballharmonics.cli import main\n"
            f"code = main(['identities', '--suite', 'quick', '--dims', '2:2', '--out', {str(out)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 []\n"
        assert json.loads(out.read_text())["count"] > 0

    def test_bad_suite_name(self):
        proc = run_cli("identities", "--suite", "nope")
        assert proc.returncode == 2

    def test_default_run_is_the_suites_identity_scan(self):
        # criteria 03, 04 and 08 and a default run read one scan, not two loops
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["identities", "--seed", "7"]) == 0
        payload = json.loads(out.getvalue())
        scan = suite.identity_reports(7)
        assert payload["reports"] == json.loads(render_json(scan))
        worst = max(
            check(scan).details["worst_normalized_residual"]
            for check in (suite.check_pohozaev, suite.check_green)
        )
        assert payload["max_normalized_residual"] == worst


class TestIntegrate:
    def test_exact_value(self):
        proc = run_cli(
            "integrate", "--poly", "x1^2 * x2^4", "--dimension", "5", "--domain", "sphere"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["value"] == pytest.approx(0.2506566197102059, rel=1e-12)
        assert payload["method"] == "exact"

    def test_monte_carlo_workers_invariant(self):
        args = (
            "integrate", "--poly", "x1^2", "--dimension", "3",
            "--method", "monte-carlo", "--samples", "50000", "--seed", "4",
        )
        a = run_cli(*args, "--workers", "1")
        b = run_cli(*args, "--workers", "4")
        assert json.loads(a.stdout)["value"] == json.loads(b.stdout)["value"]

    def test_non_finite_coefficient_is_usage_error(self):
        # 1e400 parses to inf; it used to drop every term and print 0
        proc = run_cli("integrate", "--poly", "1e400*x1^2", "--dimension", "2")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_monte_carlo_near_the_float_maximum(self):
        # the block sums overflowed to inf and the run exited 2 on a finite integral
        proc = run_cli(
            "integrate", "--poly", "1e308 * x1^2", "--dimension", "2", "--method", "monte-carlo"
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        exact = math.pi / 4 * 1e308
        assert abs(payload["value"] - exact) <= 4 * payload["standard_error"]

    @pytest.mark.parametrize("domain", ["sphere", "ball"])
    @pytest.mark.parametrize("radius", ["1e-300", "1e300"])
    def test_monte_carlo_at_an_extreme_radius(self, radius, domain):
        # every sample underflowed to 0 at 1e-300 (log_abs_value -inf, exit 0)
        # and overflowed at 1e300 (RuntimeWarnings, exit 2); a homogeneous
        # integrand is sampled on the unit domain and r^(n - 1 + d) or r^(n + d)
        # rides in the exact measure, so its log is the exact route's up to
        # the unit-domain estimate's own error
        def log_abs(method, r):
            proc = run_cli(
                "integrate", "--poly", "x1^2", "--dimension", "3", "--domain", domain,
                "--method", method, "--radius", r,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            return json.loads(proc.stdout)["log_abs_value"]

        got = log_abs("monte-carlo", radius) - log_abs("exact", radius)
        assert math.isfinite(got)
        assert got == pytest.approx(log_abs("monte-carlo", "1") - log_abs("exact", "1"), abs=1e-9)
        assert abs(got) < 0.01

    @pytest.mark.parametrize("radius", ["1e-300", "1e300"])
    def test_monte_carlo_of_mixed_degree_beyond_the_float_range(self, radius):
        # 1 + x1^2 at 1e-300 printed the constant's integral alone, exit 0;
        # at 1e300 numpy warned of overflow before the run exited 2
        proc = run_cli(
            "integrate", "--poly", "x1^2 + 1", "--dimension", "3",
            "--method", "monte-carlo", "--radius", radius,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: Monte Carlo on a polynomial of mixed degree")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_zero_denominator_is_usage_error(self):
        proc = run_cli("integrate", "--poly", "1/0*x1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_fewer_than_two_samples_is_usage_error(self, samples):
        # one draw used to print a value with standard_error 0 and exit 0
        proc = run_cli(
            "integrate", "--poly", "x1^2", "--method", "monte-carlo", "--samples", samples
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "at least 2 samples" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_poly_required(self):
        proc = run_cli("integrate", "--dimension", "2")
        assert proc.returncode == 2
        assert "--poly" in proc.stderr


class TestMakeHarmonic:
    def test_zonal_text(self):
        proc = run_cli("make-harmonic", "--kind", "zonal", "--dimension", "3", "--degree", "2")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "x1^2 - 1/2 * x2^2 - 1/2 * x3^2"

    def test_identity_lists_components(self):
        proc = run_cli("make-harmonic", "--kind", "identity", "--dimension", "3")
        assert proc.stdout.splitlines() == ["x1", "x2", "x3"]

    def test_random_map_at_high_dimension(self):
        # one recursion level per variable once made this a RecursionError traceback
        proc = run_cli("make-harmonic", "--kind", "random", "--dimension", "1200", "--degree", "1")
        assert proc.returncode == 0, proc.stderr
        assert "x1200" in proc.stdout and "Traceback" not in proc.stderr

    def test_random_deterministic(self):
        a = run_cli("make-harmonic", "--kind", "random", "--dimension", "2", "--degree", "3", "--seed", "5")
        b = run_cli("make-harmonic", "--kind", "random", "--dimension", "2", "--degree", "3", "--seed", "5")
        assert a.stdout == b.stdout


class TestMollify:
    def test_csv_and_flag(self):
        proc = run_cli("mollify", "--dimension", "2", "--map", "zonal:2", "--spacing", "1/128")
        assert proc.returncode == 0
        assert "abs_error" in proc.stdout
        assert "NOT-A-COUNTEREXAMPLE" not in proc.stdout

    def test_non_harmonic_is_flagged_not_failed(self):
        proc = run_cli(
            "mollify", "--dimension", "2", "--map", "poly:x1^2 + x2^2", "--spacing", "1/128"
        )
        assert proc.returncode == 0
        assert "NOT-A-COUNTEREXAMPLE" in proc.stdout

    def test_points_file(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0, 0\n0.25, -0.25\n")
        proc = run_cli(
            "mollify", "--dimension", "2", "--map", "zonal:3",
            "--spacing", "1/128", "--points", str(pts),
        )
        assert proc.returncode == 0
        rows = [l for l in proc.stdout.splitlines() if l and not l.startswith(("#", "x1"))]
        assert len(rows) == 2

    @pytest.mark.parametrize("dimension, spacing", [("2", "1/1048576"), ("3", "1/4096")])
    def test_kernel_box_beyond_memory_is_usage_error(self, dimension, spacing):
        # the kernel box needs 2 TiB in 2D and 64 GiB in 3D; the child's address
        # space is capped at 4 GiB, so numpy refuses it whatever the host's overcommit
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        proc = subprocess.run(
            CLI + ["mollify", "--dimension", dimension, "--spacing", spacing],
            capture_output=True,
            text=True,
            env=dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap_address_space,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "allocate" in lines[0]


class TestUsage:
    def test_no_command_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_bad_flag_value(self):
        proc = run_cli("volumes", "--n-max", "many")
        assert proc.returncode == 2

    def test_unknown_map_spec(self):
        proc = run_cli("decay", "--map", "spherical:2")
        assert proc.returncode == 2
        assert "map spec" in proc.stderr

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("ballharmonics ")


# -- exit-code contract under arbitrary flag values ---------------------------

NASTY = ("nan", "inf", "-inf", "1e-320", "1e400", "1/0", "0/0", "", "garbage", "-1", "0")
# values the code reads as numbers but that would ask for a huge grid
GRID_SIZED = {"1e-320", "-1", "0"}

# per command: flag -> valid values; every small example stays well under a
# second and two threads
VALID = {
    "volumes": {"n-max": ("5", "12", "60"), "radius": ("0.9", "1/2"), "mass": ("0.5", "0.99")},
    "concentration": {
        "n-max": ("2", "20", "60"), "radius": ("0.9", "1/3"), "mass": ("0.5", "1e-9"),
    },
    "decay": {
        "dimension": ("1", "2", "3", "4"),
        "map": ("identity", "zonal:0", "zonal:2", "random:3", "poly:x1^2 - x2^2", "file:/nonexistent"),
        "axis": ("1,0,0", "3/5,4/5", "0,1"),
        "seed": ("0", "11"),
        "radii": ("0.0625,0.125,0.25,0.5,1", "0.5,1", "1/3,1", "0.5"),
        "beta": ("2.5", "9", "-3", "1e9"),
        "constant": ("1", "1e-300", "1e300"),
    },
    "identities": {
        "suite": ("quick",),
        "dims": ("2:3", "2", "3", "3:2"),
        "radii": ("0.3,0.7,1", "1/3", "1e-320,1"),
        "tolerance": ("1e-10", "0"),
        "seed": ("0", "11"),
    },
    "integrate": {
        "poly": ("x1^2", "x1^2 * x2^4 + 3/4", "1e8 + x1^2/1000", "x3"),
        "dimension": ("1", "2", "3"),
        "domain": ("ball", "sphere"),
        "radius": ("1", "0.5", "1/3"),
        "method": ("exact", "monte-carlo"),
        "samples": ("1", "2", "20000"),
        "seed": ("0", "4"),
        "workers": ("1", "2"),
    },
    "make-harmonic": {
        "kind": ("identity", "zonal", "random", "spline"),
        "dimension": ("1", "2", "3", "4"),
        "degree": ("0", "1", "4"),
        "axis": ("1,0,0", "3/5,4/5"),
        "seed": ("0", "5"),
    },
    "mollify": {
        "delta": ("0.25", "0.5", "1/8"),
        "spacing": ("1/64", "1/32", "0.25", "0.3"),
        "map": ("zonal:2", "random:3", "poly:x1^2 + x2^2", "identity"),
        "axis": ("1,0", "3/5,4/5"),
        "seed": ("0", "11"),
        "points": ("/nonexistent.csv",),
    },
}
# defaults that would make an example slow; a drawn flag comes later and wins
FIXED = {
    "volumes": ["--n-max", "60"],
    "concentration": ["--n-max", "60"],
    "identities": ["--suite", "quick", "--dims", "2:3"],
    "mollify": ["--dimension", "2", "--spacing", "1/64"],
}


def flag_value(command, flag):
    nasty = NASTY
    if command == "mollify" and flag == "spacing":
        nasty = tuple(v for v in NASTY if v not in GRID_SIZED)
    return st.sampled_from(VALID[command][flag] + nasty)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    argv = [command] + FIXED.get(command, [])
    flags = draw(st.lists(st.sampled_from(sorted(VALID[command])), unique=True, max_size=4))
    for flag in flags:
        argv += [f"--{flag}", draw(flag_value(command, flag))]
    return argv


def exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv)
    except SystemExit as exc:
        return exc.code


@given(argv=invocations(), to_file=st.booleans())
@example(argv=["integrate", "--poly", "1/0*x1"], to_file=False)
@example(argv=["decay", "--map", "zonal:1", "--axis", "1,0/0,0"], to_file=False)
@example(argv=["decay", "--map", "zonal:2", "--beta", "inf"], to_file=False)
@example(argv=["decay", "--map", "zonal:2", "--beta", "1e9"], to_file=False)
@example(argv=["decay", "--map", "zonal:2", "--radii", "1e-320,1"], to_file=False)
@example(argv=["suite", "--seed", "garbage"], to_file=False)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_property_exit_code_contract(argv, to_file, tmp_path):
    # --out goes to stdout or a file under tmp_path, never into the tree
    out = str(tmp_path / "report.out") if to_file else "-"
    code = exit_code(argv + ["--out", out])
    assert code in (0, 1, 2), (argv, code)
