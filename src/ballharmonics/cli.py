"""Command-line surface: every verification suite behind one binary.

Subcommands: volumes, concentration, decay, identities, mollify, integrate,
make-harmonic, suite.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 usage error, a request too large for memory included.  Output is
deterministic: identical configuration (flags, config file, seed) gives
byte-identical CSV/JSON, and --workers only changes wall time.

Every flag can also be supplied from a config file (--config PATH) holding
lines of ``key = value`` with '#' comments, keys spelled like the long flags
without the leading dashes; explicit flags override file values.  The
environment variable BALLHARMONICS_OUTPUT_DIR sets the default --output-dir.

Map specs (for --map) are one of:
  identity               the identity map x -> x
  zonal:K                degree-K zonal harmonic about --axis (default e1)
  random:K               seeded random degree-K harmonic polynomial
  poly:TEXT              a scalar polynomial in the textual format
  file:PATH              one polynomial per line (vector map)
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, Sequence

from ._version import VERSION
from .reporting import config_line, fmt_float, render_csv, render_json, run_config

OUTPUT_DIR_ENV = "BALLHARMONICS_OUTPUT_DIR"


class UsageError(Exception):
    pass


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"expected an integer, got {text!r}") from exc


def _parse_float(text: str) -> float:
    # accept '1/256' so dyadic spacings can be written exactly
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"expected a number, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise UsageError(f"expected a comma-separated list of numbers, got {text!r}")
    return tuple(_parse_float(t.strip()) for t in items)


def _parse_range(text: str) -> tuple[int, int]:
    """'3' -> (3, 3); '2:10' -> (2, 10)."""
    parts = text.split(":")
    if len(parts) == 1:
        n = _parse_int(parts[0])
        return n, n
    if len(parts) == 2:
        lo, hi = _parse_int(parts[0]), _parse_int(parts[1])
        if hi < lo:
            raise UsageError(f"empty range {text!r}")
        return lo, hi
    raise UsageError(f"expected N or LO:HI, got {text!r}")


@dataclass(frozen=True)
class Opt:
    name: str
    parse: Callable[[str], Any]
    default: Any
    help: str


_COMMON = [
    Opt("config", str, None, "config file of key = value lines (flags override)"),
    Opt("output-dir", str, None, f"directory for report files (default ${OUTPUT_DIR_ENV} or '.')"),
]

COMMANDS: dict[str, list[Opt]] = {
    "volumes": _COMMON + [
        Opt("n-max", _parse_int, 25, "largest dimension to tabulate"),
        Opt("radius", _parse_float, 0.9, "inner radius for the shell-fraction column"),
        Opt("mass", _parse_float, 0.5, "target mass for the shell-width column"),
        Opt("out", str, "-", "CSV destination ('-' for stdout)"),
    ],
    "concentration": _COMMON + [
        Opt("n-max", _parse_int, 200, "largest dimension to scan"),
        Opt("radius", _parse_float, 0.9, "inner radius of the boundary shell"),
        Opt("mass", _parse_float, 0.5, "target mass for the shell-width column"),
        Opt("out", str, "-", "CSV destination ('-' for stdout)"),
    ],
    "decay": _COMMON + [
        Opt("dimension", _parse_int, 3, "ambient dimension n"),
        Opt("map", str, "identity", "map spec (see module docstring)"),
        Opt("axis", str, None, "zonal axis as comma-separated rationals"),
        Opt("seed", _parse_int, 11, "seed for random map specs"),
        Opt("radii", _parse_float_list, (0.0625, 0.125, 0.25, 0.5, 1.0), "increasing radius grid"),
        Opt("beta", _parse_float, None, "decay exponent to certify (default n - 0.5)"),
        Opt("constant", _parse_float, 1.0, "decay-bound constant C"),
        Opt("out", str, "decay.csv", "CSV destination for (r, E, log E) rows"),
    ],
    "identities": _COMMON + [
        Opt("suite", str, "default", "map family: 'default' or 'quick'"),
        Opt("dims", _parse_range, (2, 10), "dimension range LO:HI"),
        Opt("radii", _parse_float_list, (0.3, 0.7, 1.0), "radii to check at"),
        Opt("tolerance", _parse_float, 1e-10, "normalized-residual tolerance"),
        Opt("seed", _parse_int, 11, "seed for the random family members"),
        Opt("out", str, "-", "JSON destination ('-' for stdout)"),
    ],
    "integrate": _COMMON + [
        Opt("poly", str, None, "polynomial in the textual format (required)"),
        Opt("dimension", _parse_int, None, "ambient dimension (default: inferred)"),
        Opt("domain", str, "ball", "'ball' or 'sphere'"),
        Opt("radius", _parse_float, 1.0, "domain radius"),
        Opt("method", str, "exact", "'exact' or 'monte-carlo'"),
        Opt("samples", _parse_int, 100000, "Monte Carlo sample count"),
        Opt("seed", _parse_int, 0, "Monte Carlo seed"),
        Opt("workers", _parse_int, 1, "worker threads (wall time only)"),
        Opt("out", str, "-", "JSON destination ('-' for stdout)"),
    ],
    "make-harmonic": _COMMON + [
        Opt("kind", str, "zonal", "'identity', 'zonal' or 'random'"),
        Opt("dimension", _parse_int, 3, "ambient dimension n"),
        Opt("degree", _parse_int, 2, "homogeneity degree k"),
        Opt("axis", str, None, "zonal axis as comma-separated rationals"),
        Opt("seed", _parse_int, 0, "seed for 'random'"),
        Opt("out", str, "-", "text destination ('-' for stdout)"),
    ],
    "mollify": _COMMON + [
        Opt("dimension", _parse_int, 2, "ambient dimension n (grid cap 3)"),
        Opt("delta", _parse_float, 0.25, "kernel radius in (0, 1/2]"),
        Opt("spacing", _parse_float, 1 / 256, "grid spacing (accepts '1/256')"),
        Opt("map", str, "zonal:3", "map spec to smooth"),
        Opt("axis", str, None, "zonal axis as comma-separated rationals"),
        Opt("seed", _parse_int, 11, "seed for random map specs"),
        Opt("points", str, None, "CSV file of evaluation points (default: built-in set)"),
        Opt("out", str, "-", "CSV destination ('-' for stdout)"),
    ],
    "suite": _COMMON + [
        Opt("seed", _parse_int, 7, "seed for random maps and Monte Carlo"),
        Opt("workers", _parse_int, 1, "worker threads (wall time only)"),
        Opt("out", str, "suite_report.json", "JSON report destination"),
    ],
}


def _records(path: str, kind: str) -> Iterator[tuple[int, str, str]]:
    """(line number, text before any '#' comment, whole line) per non-blank line of a file.

    A --config or --points file is read through here; ``kind`` names it in
    the usage error raised when it cannot be read.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read {kind} file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, raw


def _load_config_file(path: str, allowed: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line, raw in _records(path, "config"):
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = value
    return values


def _resolve_options(command: str, ns: argparse.Namespace) -> dict[str, Any]:
    opts = {o.name: o for o in COMMANDS[command]}
    raw_flags = {
        name: getattr(ns, name.replace("-", "_")) for name in opts
    }
    file_values: dict[str, str] = {}
    config_path = raw_flags.get("config")
    if config_path is not None:
        file_values = _load_config_file(config_path, set(opts) - {"config"})
    resolved: dict[str, Any] = {}
    for name, opt in opts.items():
        raw = raw_flags.get(name)
        if raw is None:
            raw = file_values.get(name)
        resolved[name] = opt.default if raw is None else opt.parse(raw)
    if resolved["output-dir"] is None:
        resolved["output-dir"] = os.environ.get(OUTPUT_DIR_ENV, ".")
    return resolved


def _report_options(options: dict[str, Any]) -> dict[str, Any]:
    """Options as embedded in reports (config path itself is not semantic)."""
    return {k: v for k, v in options.items() if k != "config" and v is not None}


def _emit(text: str, out: str, output_dir: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    path = out if os.path.isabs(out) else os.path.join(output_dir, out)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}", file=sys.stderr)


def _parse_axis(text: str | None, n: int):
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise UsageError(f"axis needs {n} comma-separated entries, got {text!r}")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"axis entries must be rationals, got {text!r}") from exc


def _build_map(spec_text: str, n: int, seed: int, axis_text: str | None):
    from .harmonics import (
        identity_map,
        make_harmonic_map,
        random_harmonic_polynomial,
        zonal_solid_harmonic,
    )
    from .polynomials import parse_poly, parse_vector

    axis = _parse_axis(axis_text, n)
    if spec_text == "identity":
        return identity_map(n)
    if spec_text.startswith("zonal:"):
        k = _parse_int(spec_text.split(":", 1)[1])
        return zonal_solid_harmonic(n, k, axis)
    if spec_text.startswith("random:"):
        k = _parse_int(spec_text.split(":", 1)[1])
        return random_harmonic_polynomial(n, k, seed)
    if spec_text.startswith("poly:"):
        return make_harmonic_map(parse_poly(spec_text[5:], n), label="poly")
    if spec_text.startswith("file:"):
        path = spec_text[5:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read map file {path!r}: {exc}") from exc
        return make_harmonic_map(parse_vector(text, n), label=f"file:{os.path.basename(path)}")
    raise UsageError(f"unknown map spec {spec_text!r}")


# -- subcommand bodies -----------------------------------------------------------


def _cmd_volumes(options: dict[str, Any]) -> int:
    from .geometry import (
        shell_volume_fraction,
        shell_width_for_mass,
        sphere_area,
        unit_ball_volume,
        volume_argmax,
    )

    n_max = options["n-max"]
    if n_max < 5:
        raise UsageError("--n-max must be at least 5")
    radius, mass = options["radius"], options["mass"]
    rows = []
    for n in range(1, n_max + 1):
        bv = unit_ball_volume(n)
        rows.append(
            (
                n,
                bv.volume,
                bv.log_volume,
                sphere_area(n).area,
                shell_volume_fraction(n, radius),
                shell_width_for_mass(n, mass),
            )
        )
    comments = [
        config_line("volumes", _report_options(options)),
        f"volume_argmax: {volume_argmax(n_max)}",
        f"columns: shell_fraction at inner radius {fmt_float(radius)}, "
        f"shell_width at mass {fmt_float(mass)}",
    ]
    text = render_csv(
        ("n", "volume", "log_volume", "sphere_area", "shell_fraction", "shell_width"),
        rows,
        comments,
    )
    _emit(text, options["out"], options["output-dir"])
    return 0


def _cmd_concentration(options: dict[str, Any]) -> int:
    from .energetics import concentration_fraction
    from .geometry import shell_volume_fraction, shell_width_for_mass
    from .harmonics import identity_map

    n_max = options["n-max"]
    if n_max < 2:
        raise UsageError("--n-max must be at least 2")
    radius, mass = options["radius"], options["mass"]
    if not 0.0 < radius < 1.0:
        raise UsageError("--radius must lie strictly between 0 and 1")
    rows = []
    for n in range(1, n_max + 1):
        energy_frac = concentration_fraction(identity_map(n), radius)
        shell_frac = shell_volume_fraction(n, radius)
        rows.append(
            (
                n,
                energy_frac,
                shell_frac,
                abs(energy_frac - shell_frac),
                shell_width_for_mass(n, mass),
            )
        )
    comments = [
        config_line("concentration", _report_options(options)),
        "energy_outside_fraction uses the identity map; it matches the volume "
        "shell fraction because |grad(identity)|^2 is constant",
    ]
    text = render_csv(
        ("n", "energy_outside_fraction", "volume_shell_fraction", "abs_difference", "shell_width"),
        rows,
        comments,
    )
    _emit(text, options["out"], options["output-dir"])
    return 0


def _cmd_decay(options: dict[str, Any]) -> int:
    from .energetics import (
        energy_profile,
        fit_decay_exponent,
        half_radius_theta,
        verify_decay_bound,
    )

    n = options["dimension"]
    u = _build_map(options["map"], n, options["seed"], options["axis"])
    radii = options["radii"]
    beta = options["beta"] if options["beta"] is not None else n - 0.5
    constant = options["constant"]
    profile = energy_profile(u, radii)
    fit = fit_decay_exponent(profile)
    bound = verify_decay_bound(u, beta, constant, radii)
    theta = half_radius_theta(u, max(radii))
    csv_text = render_csv(
        ("r", "energy", "log_energy"),
        profile,
        [
            config_line("decay", _report_options(options)),
            f"map: {u.label}",
        ],
    )
    _emit(csv_text, options["out"], options["output-dir"])
    verdict = {
        "config": run_config("decay", _report_options(options)),
        "map": u.label,
        "beta_hat": fit.exponent,
        "log_amplitude": fit.log_amplitude,
        "fit_max_residual": fit.max_abs_residual,
        "beta": beta,
        "constant": constant,
        "worst_margin": bound.worst_margin,
        "worst_pair": list(bound.worst_pair),
        "theta_half": theta,
        "holds": bound.holds,
    }
    sys.stdout.write(render_json(verdict) + "\n")
    return 0 if bound.holds else 1


def _cmd_identities(options: dict[str, Any]) -> int:
    from .identities import MINIMISER_BOUND, identity_scan

    suite_name = options["suite"]
    if suite_name == "default":
        caps = (5, 4)
    elif suite_name == "quick":
        caps = (2, 2)
    else:
        raise UsageError(f"unknown suite {options['suite']!r} (use 'default' or 'quick')")
    lo, hi = options["dims"]
    if lo < 2:
        raise UsageError("identity checks need dimension >= 2")
    tolerance = options["tolerance"]
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise UsageError(f"--tolerance must be finite and non-negative, got {tolerance!r}")
    reports = list(identity_scan(range(lo, hi + 1), options["seed"], options["radii"], *caps))
    margins = [rep.margin_ratio for rep in reports if rep.identity_name == MINIMISER_BOUND]
    residuals = [rep.normalized_residual for rep in reports if rep.identity_name != MINIMISER_BOUND]
    margins_ok = all(margin > 1.0 for margin in margins)
    worst = max([0.0] + residuals)
    residuals_ok = worst <= tolerance
    payload = {
        "config": run_config("identities", _report_options(options)),
        "count": len(reports),
        "max_normalized_residual": worst,
        "tolerance": tolerance,
        "residuals_within_tolerance": residuals_ok,
        "bound_margins_above_one": margins_ok,
        "reports": reports,
    }
    _emit(render_json(payload) + "\n", options["out"], options["output-dir"])
    return 0 if residuals_ok and margins_ok else 1


def _cmd_integrate(options: dict[str, Any]) -> int:
    from .integration import QuadratureSpec, integrate_poly_ball, integrate_poly_sphere
    from .polynomials import parse_poly

    if options["poly"] is None:
        raise UsageError("--poly is required")
    p = parse_poly(options["poly"], options["dimension"])
    domain = options["domain"]
    if domain not in ("ball", "sphere"):
        raise UsageError(f"--domain must be 'ball' or 'sphere', got {domain!r}")
    method = options["method"].replace("-", "_")
    if method not in ("exact", "monte_carlo"):
        raise UsageError(f"--method must be 'exact' or 'monte-carlo', got {options['method']!r}")
    spec = QuadratureSpec(
        method=method,
        samples=options["samples"] if method == "monte_carlo" else 0,
        seed=options["seed"],
        workers=options["workers"],
    )
    integrate = integrate_poly_ball if domain == "ball" else integrate_poly_sphere
    result = integrate(p, options["radius"], spec)
    payload = {
        "config": run_config("integrate", _report_options(options)),
        "dimension": p.dimension,
        "value": result.value,
        "log_abs_value": result.log_abs_value,
        "standard_error": result.standard_error,
        "method": result.method,
        "samples": result.samples,
    }
    _emit(render_json(payload) + "\n", options["out"], options["output-dir"])
    return 0


def _cmd_make_harmonic(options: dict[str, Any]) -> int:
    from .polynomials import format_vector

    kind = options["kind"]
    n = options["dimension"]
    if kind == "identity":
        spec_text = "identity"
    elif kind == "zonal":
        spec_text = f"zonal:{options['degree']}"
    elif kind == "random":
        spec_text = f"random:{options['degree']}"
    else:
        raise UsageError(f"--kind must be 'identity', 'zonal' or 'random', got {kind!r}")
    u = _build_map(spec_text, n, options["seed"], options["axis"])
    text = format_vector(u.body) + "\n"
    _emit(text, options["out"], options["output-dir"])
    return 0


_DEFAULT_POINT_SEEDS = (
    (0.0, 0.0, 0.0),
    (0.25, 0.0, 0.0),
    (0.0, -0.25, 0.125),
    (0.125, 0.125, 0.125),
    (-0.375, 0.25, 0.0),
)


def _load_points(path: str | None, n: int) -> list[tuple[float, ...]]:
    if path is None:
        return [pt[:n] for pt in _DEFAULT_POINT_SEEDS]
    points = []
    for lineno, line, _ in _records(path, "points"):
        parts = line.split(",")
        if len(parts) != n:
            raise UsageError(
                f"{path}:{lineno}: expected {n} coordinates, got {len(parts)}"
            )
        points.append(tuple(_parse_float(p.strip()) for p in parts))
    if not points:
        raise UsageError(f"points file {path!r} holds no points")
    return points


def _cmd_mollify(options: dict[str, Any]) -> int:
    from .mollifier import MollifierSpec, mean_value_check

    n = options["dimension"]
    u = _build_map(options["map"], n, options["seed"], options["axis"])
    spec = MollifierSpec(dimension=n, delta=options["delta"])
    points = _load_points(options["points"], n)
    report = mean_value_check(u, spec, points, spacing=options["spacing"])
    rows = []
    for pt, vals, smooth, err in zip(
        report.points, report.values, report.mollified, report.errors
    ):
        # vector maps pack their components into one ';'-joined cell
        value_cell = ";".join(fmt_float(v) for v in vals)
        smooth_cell = ";".join(fmt_float(v) for v in smooth)
        rows.append(tuple(pt) + (value_cell, smooth_cell, err))
    header = tuple(f"x{i + 1}" for i in range(n)) + ("value", "mollified", "abs_error")
    comments = [
        config_line("mollify", _report_options(options)),
        f"map: {u.label}",
        f"delta: {fmt_float(spec.delta)} spacing: {fmt_float(options['spacing'])}",
    ]
    if report.not_a_counterexample:
        comments.append(
            "NOT-A-COUNTEREXAMPLE: the input is not certified harmonic; a nonzero "
            "defect below is expected, not a falsification"
        )
    text = render_csv(header, rows, comments)
    _emit(text, options["out"], options["output-dir"])
    return 0


def _cmd_suite(options: dict[str, Any]) -> int:
    from .suite import run_suite

    checks = run_suite(seed=options["seed"], workers=options["workers"])
    passed = all(c.passed for c in checks)
    payload = {
        "config": run_config("suite", _report_options(options)),
        "passed": passed,
        "checks": checks,
    }
    _emit(render_json(payload) + "\n", options["out"], options["output-dir"])
    lines = []
    for check in checks:
        tag = "PASS" if check.passed else "FAIL"
        lines.append(f"{tag} {check.name}")
    done = sum(1 for c in checks if c.passed)
    lines.append(f"passed {done}/{len(checks)}")
    sys.stdout.write("\n".join(lines) + "\n")
    if not passed:
        failed = ", ".join(c.name for c in checks if not c.passed)
        print(f"failed checks: {failed}", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "volumes": _cmd_volumes,
    "concentration": _cmd_concentration,
    "decay": _cmd_decay,
    "identities": _cmd_identities,
    "integrate": _cmd_integrate,
    "make-harmonic": _cmd_make_harmonic,
    "mollify": _cmd_mollify,
    "suite": _cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballharmonics",
        description="Harmonic maps on the unit ball: exact energies, identities, "
        "and concentration checks.",
    )
    parser.add_argument("--version", action="version", version=f"ballharmonics {VERSION}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, opts in COMMANDS.items():
        sub = subs.add_parser(command, help=f"see '{command} --help'")
        for opt in opts:
            sub.add_argument(f"--{opt.name}", type=str, default=None, help=opt.help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        options = _resolve_options(ns.command, ns)
        return _HANDLERS[ns.command](options)
    except (UsageError, ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate; a bare one says nothing
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
