"""Layer-boundary spans for a traced benchmark pass.

The tracer wraps public functions of the ``ballharmonics`` layers from the
outside: every module namespace (and class) that holds a wrapped function
object gets the wrapper in its place, so calls that go through a name
imported with ``from .polynomials import grad_norm_sq`` are traced too.
Spans live in memory until the pass ends; only a traced pass installs any
wrapper.

``exactmath`` and ``geometry`` are deliberately not wrapped: their work is
per-monomial ``PiRational`` arithmetic, so a span there would cost more than
it measures.  Their time counts as self time of the calling layer.
"""

from __future__ import annotations

import csv
import functools
import sys
import threading
from time import perf_counter

ITEM = "item"

# layer -> (module, qualified names).  The integration functions are split
# into the exact and Monte Carlo layers per call, from their spec argument.
LAYERS = {
    "polynomials": (
        "polynomials",
        (
            "MultiPoly.square",
            "MultiPoly.__mul__",
            "MultiPoly.partial_derivative",
            "grad_norm_sq",
            "radial_pairing",
        ),
    ),
    "integration": ("integration", ("integrate_poly_sphere", "integrate_poly_ball")),
    "harmonics": (
        "harmonics",
        (
            "make_harmonic_map",
            "identity_map",
            "zonal_solid_harmonic",
            "random_harmonic_polynomial",
            "harmonic_projection",
            "almansi_decomposition",
        ),
    ),
    "energetics": (
        "energetics",
        (
            "dirichlet_energy_result",
            "surface_energy_total_result",
            "normal_energy_result",
            "surface_dirichlet_result",
            "concentration_fraction",
        ),
    ),
    "identities": (
        "identities",
        ("pohozaev_residual", "green_residual", "minimiser_bound_check"),
    ),
    "mollifier": (
        "mollifier",
        ("sample_scalar_on_grid", "mollify", "mean_value_check", "mollifier_gradient_scaling"),
    ),
    "reporting": ("reporting", ("render_json",)),
}

# functions that call themselves through their module global: only the
# outermost call gets a span
REENTRANT = {"almansi_decomposition", "render_json"}

# (module, function) whose lru_cache statistics the per-layer report reads
CACHES = {
    "monomial": (("integration", "_sphere_monomial_rational"),),
    "square": (("energetics", "_grad_norm_sq_of"), ("energetics", "_pairing_sq_sum_of")),
    "flux": (("identities", "_flux_poly_of"),),
}


def term_count(obj) -> int:
    """Terms of a MultiPoly, or summed over a tuple of them."""
    if isinstance(obj, tuple):
        return sum(term_count(p) for p in obj)
    terms = getattr(obj, "_terms", None)
    if terms is None:
        terms = obj.terms()
    return len(terms)


def _spec_of(args, kwargs):
    if "spec" in kwargs:
        return kwargs["spec"]
    return args[2] if len(args) > 2 else None


def _integration_layer(args, kwargs) -> str:
    spec = _spec_of(args, kwargs)
    if spec is not None and spec.method == "monte_carlo":
        return "integration.mc"
    return "integration.exact"


def _integration_count(args, kwargs, out) -> int:
    spec = _spec_of(args, kwargs)
    if spec is not None and spec.method == "monte_carlo":
        return spec.samples
    return term_count(args[0])


def _grid_count(name: str):
    def count(args, kwargs, out) -> int:
        if name == "sample_scalar_on_grid":
            return int(out.values.size)
        if name == "mollify":
            return int(args[0].values.size)
        if name == "mollifier_gradient_scaling":
            nodes_per_delta = kwargs.get("nodes_per_delta", args[3] if len(args) > 3 else 64)
            return len(out.deltas) * (2 * nodes_per_delta + 1) ** out.dimension
        return 0

    return count


def _counter(layer: str, name: str):
    if layer == "polynomials":
        return lambda args, kwargs, out: term_count(out)
    if layer == "integration":
        return _integration_count
    if layer == "mollifier":
        return _grid_count(name)
    if name == "make_harmonic_map":
        return lambda args, kwargs, out: 1
    return None


class Tracer:
    """Spans ``(name, layer, start, end, parent, item, count)`` in call order."""

    def __init__(self):
        self.spans: list = []
        self.item = -1
        self._local = threading.local()  # per-thread stack of open spans
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, layer, fn, args=(), kwargs=None, count=None):
        """Call fn(*args, **kwargs) inside a span; the span is recorded even if fn raises."""
        kwargs = kwargs or {}
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        out = None
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = perf_counter()
            stack.pop()
            n = count(args, kwargs, out) if (count is not None and out is not None) else 0
            if callable(layer):
                layer = layer(args, kwargs)
            self.spans[index] = (name, layer, start, end, parent, self.item, n)

    def wrap(self, name: str, layer, fn, count=None):
        reentrant = name in REENTRANT
        active = threading.local()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if reentrant and getattr(active, "on", False):
                return fn(*args, **kwargs)
            active.on = True
            try:
                return self.span(name, layer, fn, args, kwargs, count)
            finally:
                active.on = False

        return wrapper

    def install(self, package: str = "ballharmonics") -> list[str]:
        """Wrap the layer functions of every imported layer module.

        Returns the names that an imported module no longer defines.
        """
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == package and m]
        missing = []
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules.get(f"{package}.{module_name}")
            if module is None:
                continue  # the pass never imported this layer
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    missing.append(f"{module_name}.{qualname}")
                    continue
                span_layer = _integration_layer if layer == "integration" else layer
                wrapper = self.wrap(attr, span_layer, original, _counter(layer, attr))
                targets = [owner] if owner_name else modules
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)
        return missing

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, item, n in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def layer_totals(self) -> dict:
        """Per layer: self seconds, span count, summed count, max count."""
        totals: dict = {}
        for span, own in zip(self.spans, self.self_times()):
            name, layer, start, end, parent, item, n = span
            t = totals.setdefault(layer, {"self_s": 0.0, "calls": 0, "count": 0, "max_count": 0})
            t["self_s"] += own
            t["calls"] += 1
            t["count"] += n
            t["max_count"] = max(t["max_count"], n)
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "layer", "start_s", "end_s", "parent", "item", "count"))
            out.writerows((i, *span) for i, span in enumerate(self.spans))


def cache_hit_ratio(package: str, kind: str) -> float:
    """hits / (hits + misses) over the caches of one kind; 0.0 when none ran."""
    hits = misses = 0
    for module_name, func_name in CACHES[kind]:
        module = sys.modules.get(f"{package}.{module_name}")
        info = getattr(getattr(module, func_name, None), "cache_info", None)
        if info is None:
            continue
        stats = info()
        hits += stats.hits
        misses += stats.misses
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(tracer: Tracer, package: str = "ballharmonics") -> dict:
    """The per-layer metrics of one traced pass, by name."""
    totals = tracer.layer_totals()
    empty = {"self_s": 0.0, "calls": 0, "count": 0, "max_count": 0}

    def get(layer):
        return totals.get(layer, empty)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    poly, exact, mc = get("polynomials"), get("integration.exact"), get("integration.mc")
    energy, ident, harm = get("energetics"), get("identities"), get("harmonics")
    moll, rep = get("mollifier"), get("reporting")
    monomial_hits = cache_hit_ratio(package, "monomial")
    return {
        "polynomials.self_s": (poly["self_s"], "s"),
        "polynomials.calls": (poly["calls"], "count"),
        "polynomials.terms_out": (poly["count"], "count"),
        "polynomials.max_terms": (poly["max_count"], "count"),
        "integration.exact.self_s": (exact["self_s"], "s"),
        "integration.exact.monomials": (exact["count"], "count"),
        "integration.exact.monomials_per_s": (rate(exact["count"], exact["self_s"]), "1/s"),
        "integration.exact.monomial_cache_hit_ratio": (monomial_hits, "ratio"),
        "energetics.self_s": (energy["self_s"], "s"),
        "energetics.calls": (energy["calls"], "count"),
        "energetics.square_cache_hit_ratio": (cache_hit_ratio(package, "square"), "ratio"),
        "identities.self_s": (ident["self_s"], "s"),
        "identities.calls": (ident["calls"], "count"),
        "identities.flux_cache_hit_ratio": (cache_hit_ratio(package, "flux"), "ratio"),
        "harmonics.self_s": (harm["self_s"], "s"),
        "harmonics.maps_built": (harm["count"], "count"),
        "integration.mc.self_s": (mc["self_s"], "s"),
        "integration.mc.samples": (mc["count"], "count"),
        "integration.mc.samples_per_s": (rate(mc["count"], mc["self_s"]), "1/s"),
        "mollifier.self_s": (moll["self_s"], "s"),
        "mollifier.grid_nodes": (moll["count"], "count"),
        "mollifier.nodes_per_s": (rate(moll["count"], moll["self_s"]), "1/s"),
        "reporting.self_s": (rep["self_s"], "s"),
    }
