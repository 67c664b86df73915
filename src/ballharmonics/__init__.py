"""Harmonic polynomial maps on the unit ball, with exact energy bookkeeping.

The package builds harmonic maps (zonal, random, hand-written), integrates
polynomials over balls and spheres exactly or by seeded Monte Carlo, and
certifies the energy identities and concentration effects that make high
dimensions behave the way they do.

Submodules are imported lazily so that lightweight entry points (volume
tables, shell widths) never pay for numpy, the only runtime dependency.
"""

from __future__ import annotations

from importlib import import_module

from ._version import VERSION as __version__

_EXPORTS = {
    # exact scalars
    "PiRational": "exactmath",
    "as_fraction": "exactmath",
    "gamma_half": "exactmath",
    # polynomials
    "MultiPoly": "polynomials",
    "VectorPoly": "polynomials",
    "DimensionError": "polynomials",
    "parse_poly": "polynomials",
    "format_poly": "polynomials",
    "parse_vector": "polynomials",
    "format_vector": "polynomials",
    "gradient": "polynomials",
    "radial_pairing": "polynomials",
    "as_vector": "polynomials",
    # geometry
    "BallVolume": "geometry",
    "SphereArea": "geometry",
    "unit_ball_volume": "geometry",
    "sphere_area": "geometry",
    "volume_argmax": "geometry",
    "shell_volume_fraction": "geometry",
    "shell_width_for_mass": "geometry",
    # integration
    "QuadratureSpec": "integration",
    "EXACT": "integration",
    "IntegralResult": "integration",
    "integrate_poly_sphere": "integration",
    "integrate_poly_ball": "integration",
    # harmonic maps
    "HarmonicMap": "harmonics",
    "make_harmonic_map": "harmonics",
    "identity_map": "harmonics",
    "harmonic_sum": "harmonics",
    "zonal_solid_harmonic": "harmonics",
    "harmonic_projection": "harmonics",
    "harmonic_space_dimension": "harmonics",
    "random_harmonic_polynomial": "harmonics",
    "standard_maps": "harmonics",
    # energies
    "DecayFit": "energetics",
    "DecayBoundReport": "energetics",
    "dirichlet_energy": "energetics",
    "energy_profile": "energetics",
    "fit_decay_exponent": "energetics",
    "verify_decay_bound": "energetics",
    "concentration_fraction": "energetics",
    "half_radius_theta": "energetics",
    # variational identities
    "ResidualReport": "identities",
    "pohozaev_residual": "identities",
    "green_residual": "identities",
    "minimiser_bound_check": "identities",
    # mollifier lab
    "MollifierSpec": "mollifier",
    "MeanValueReport": "mollifier",
    "mean_value_check": "mollifier",
    "MeanValueConvergence": "mollifier",
    "mean_value_convergence": "mollifier",
    "GradientScalingFit": "mollifier",
    "mollifier_gradient_scaling": "mollifier",
    # verification suite
    "run_suite": "suite",
    "CheckResult": "suite",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
