"""Source-level rules that hold for the whole package."""

import ast
import math
import os
import pathlib
import re
import subprocess
import sys
from types import FunctionType

import pytest

import ballharmonics
from ballharmonics import _EXPORTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ballharmonics").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads_outside_own_definition(tree: ast.AST, attributes_only: bool = False) -> set[str]:
    """Names read as a bare name or an attribute, except inside the def or class of that
    name or an assignment that binds it."""
    reads: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            enclosing = enclosing | _bound_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes_only:
            if node.id not in enclosing:
                reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return reads


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements; runtime invariants must raise
    lines = [node.lineno for node in ast.walk(_parse(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements on lines {lines}"


def test_sources_found():
    assert len(SOURCES) > 10


def _module_level_definitions(path: pathlib.Path) -> list[str]:
    """Names of the functions and classes a module defines at top level, dunders aside."""
    return [
        node.name
        for node in _parse(path).body
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _bound_names(node: ast.Assign | ast.AnnAssign) -> set[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return {
        leaf.id
        for target in targets
        for leaf in ast.walk(target)
        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store)
    }


def _module_level_constants(path: pathlib.Path) -> list[str]:
    """Names a module binds by assignment at top level, dunders aside."""
    return [
        name
        for node in _parse(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for name in sorted(_bound_names(node))
        if not (name.startswith("__") and name.endswith("__"))
    ]


def _public_methods() -> list[tuple[str, str]]:
    """(class, attribute) for each method and property of an exported class, dunders aside."""
    kinds = (FunctionType, property, staticmethod, classmethod)
    return [
        (name, attr)
        for name in _EXPORTS
        if isinstance(cls := getattr(ballharmonics, name), type)
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and isinstance(value, kinds)
    ]


def test_every_export_and_definition_is_reached_by_the_package_or_a_script():
    # a public name, a module-level def, class or constant, or a public method
    # of an exported class that only tests reach is dead weight
    trees = [_parse(p) for p in SOURCES if p.name != "__init__.py"] + [_parse(p) for p in SCRIPTS]
    reached: set[str] = set().union(*map(_reads_outside_own_definition, trees))
    dead = sorted(set(_EXPORTS) - reached)
    assert not dead, f"exports that no module or script reaches: {dead}"
    dead = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in _module_level_definitions(path)
        if name not in reached
    ]
    assert not dead, f"definitions that no module or script reaches: {dead}"
    # a module-level constant may be read where it is bound, __init__.py included
    init = ROOT / "src" / "ballharmonics" / "__init__.py"
    read = reached | _reads_outside_own_definition(_parse(init))
    dead = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in _module_level_constants(path)
        if name not in read
    ]
    assert not dead, f"module-level constants that no module or script reads: {dead}"
    # a method is reached through an attribute, so a local of the same name does not count.
    # Blind spot: reads are matched by name alone, so a dead method passes while any
    # exported class has a live one of that name (a dead VectorPoly.evaluate passed
    # on MultiPoly.evaluate's callers)
    # MultiPoly.terms is exempt: it is the dense public view of a poly, which
    # test_dense_exponent_tuples_stay_in_polynomials forbids the package to read
    attributes = set().union(*(_reads_outside_own_definition(t, attributes_only=True) for t in trees))
    dead = [
        f"{cls}.{attr}"
        for cls, attr in _public_methods()
        if attr not in attributes and (cls, attr) != ("MultiPoly", "terms")
    ]
    assert not dead, f"methods that no module or script reaches: {dead}"


# render_json writes these dataclasses whole, so every field reaches a report
RENDERED_WHOLE = {
    "ResidualReport": "the identities command renders each report",
    "CheckResult": "the suite command renders each check",
    "MeanValueReport": "the benchmark's numeric-crosschecks report renders each check",
    "GradientScalingFit": "the benchmark's numeric-crosschecks report renders each fit",
}
UNREAD_FIELDS = {
    ("SphereArea", "log_area"): "the authoritative log, as BallVolume.log_volume is",
    ("DecayFit", "points_used"): "the count of samples the fit kept on their finite log",
}


def _dataclass_fields(tree: ast.AST) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of a class decorated with @dataclass."""
    return [
        (node.name, statement.target.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        )
        for statement in node.body
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
    ]


def test_every_dataclass_field_is_read_by_the_package_or_a_script():
    # a field that nothing reads restates what its caller already holds. An
    # attribute load counts as a read, and so does a string constant, since
    # energetics._energy reads a profile's density by getattr with its name.
    # Blind spot, as for methods: reads are matched by name alone, so a dead
    # field passes while any class has a live attribute of that name
    nodes = [node for p in SOURCES + SCRIPTS for node in ast.walk(_parse(p))]
    reads = {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    reads |= {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    fields = [field for path in SOURCES for field in _dataclass_fields(_parse(path))]
    assert set(RENDERED_WHOLE) | {cls for cls, _ in UNREAD_FIELDS} <= {cls for cls, _ in fields}
    dead = [
        f"{cls}.{name}"
        for cls, name in fields
        if name not in reads and cls not in RENDERED_WHOLE and (cls, name) not in UNREAD_FIELDS
    ]
    assert not dead, f"dataclass fields that no module or script reads: {dead}"
    kept = [f"{cls}.{name}" for cls, name in UNREAD_FIELDS if name in reads]
    assert not kept, f"allow-listed fields that are now read: {kept}"


# defaulted parameters that no caller passes, kept on purpose
UNPASSED_PARAMETERS = {
    ("pohozaev_residual", "spec"): "the Monte Carlo route of the identities (ROADMAP item 1)",
    ("green_residual", "spec"): "the Monte Carlo route of the identities (ROADMAP item 1)",
    ("minimiser_bound_check", "spec"): "the Monte Carlo route of the identities (ROADMAP item 1)",
    ("mollifier_gradient_scaling", "deltas"): "the whole-grid oracle tests pass other delta grids",
}


def _defaulted_parameters(tree: ast.AST) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position or None if keyword-only) per defaulted parameter.

    Public module-level functions and public methods of public classes count;
    a method's position leaves out ``self``.
    """
    found = []

    def visit(body, in_class: bool) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                visit(node.body, True)
            elif isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                if in_class and not static:
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                found.extend(
                    (node.name, arg.arg, i) for i, arg in enumerate(positional) if i >= first
                )
                found.extend(
                    (node.name, arg.arg, None)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                )

    visit(tree.body, False)
    return found


def test_every_defaulted_parameter_is_passed_by_some_caller():
    # a default that no call overrides is a constant dressed as an option. A
    # call passes a parameter by keyword, by position, or through *args (every
    # positional one) or **kwargs (every one); functools.partial(f, ...) counts
    # as a call of f. Blind spot: calls are matched by the called name alone
    keywords: set[tuple[str, str | None]] = set()
    positions: dict[str, float] = {}
    for path in SOURCES + SCRIPTS + PERFBENCH:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name, args = _called_name(node), node.args
            if name == "partial" and args:
                name, args = getattr(args[0], "id", getattr(args[0], "attr", None)), args[1:]
            keywords.update((name, k.arg) for k in node.keywords)
            reach = math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args)
            positions[name] = max(positions.get(name, 0), reach)
    unpassed = {
        (function, parameter)
        for path in SOURCES
        for function, parameter, position in _defaulted_parameters(_parse(path))
        if not {(function, parameter), (function, None)} & keywords
        and (position is None or positions.get(function, 0) <= position)
    }
    dead = sorted(f"{f}.{p}" for f, p in unpassed - set(UNPASSED_PARAMETERS))
    assert not dead, f"defaulted parameters that no caller passes: {dead}"
    passed = sorted(f"{f}.{p}" for f, p in set(UNPASSED_PARAMETERS) - unpassed)
    assert not passed, f"allow-listed parameters that a caller now passes: {passed}"


def test_unvalidated_constructor_stays_in_polynomials():
    # MultiPoly._canonical skips the exponent and coefficient checks, so only
    # the ring operations on already-valid operands may reach it
    users = {
        path.name
        for path in SOURCES + SCRIPTS + TESTS
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "_canonical"
    }
    assert users == {"polynomials.py"}, sorted(users)


def _nodes_with_their_def(node: ast.AST, name: str = "<module>"):
    """(name of the innermost def around it, node) for node and everything under it."""
    yield name, node
    name = node.name if isinstance(node, _FUNCTIONS) else name
    for child in ast.iter_child_nodes(node):
        yield from _nodes_with_their_def(child, name)


def _writes_slot(node: ast.AST, slot: str) -> bool:
    """An assignment to .<slot>, or a (object.__)setattr call naming the slot."""
    if isinstance(node, ast.Attribute):
        return node.attr == slot and not isinstance(node.ctx, ast.Load)
    if not isinstance(node, ast.Call):
        return False
    called = getattr(node.func, "id", getattr(node.func, "attr", None))
    return called in {"setattr", "__setattr__"} and any(
        isinstance(arg, ast.Constant) and arg.value == slot for arg in node.args
    )


def _slot_writers(slot: str) -> set[tuple[str, str]]:
    """(file, innermost def) of every write to the slot in src/, scripts/ and tests/."""
    return {
        (path.name, name)
        for path in SOURCES + SCRIPTS + TESTS
        for name, node in _nodes_with_their_def(_parse(path))
        if _writes_slot(node, slot)
    }


def test_one_writer_of_the_laplacian_series_and_one_walk():
    # the kept series is the one place a poly's Laplacians are computed:
    # _store sets it, _laplacian_series fills it, and no other def, in
    # polynomials.py or out of it, walks a Laplacian to learn what the series
    # already holds; only MultiPoly.variable hands _store a series, the one
    # a coordinate function is born with
    found = [
        (path.name, *pair)
        for path in SOURCES + SCRIPTS + TESTS
        for pair in _nodes_with_their_def(_parse(path))
    ]
    assert _slot_writers("_series") == {
        ("polynomials.py", "_store"),
        ("polynomials.py", "_laplacian_series"),
    }
    walkers = {
        (module, name)
        for module, name, node in found
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_laplacian_terms"
    }
    assert walkers == {("polynomials.py", "_laplacian_series")}, sorted(walkers)
    seeders = {
        (module, name)
        for module, name, node in found
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "_store"
        and (len(node.args) > 2 or node.keywords)
    }
    assert seeders == {("polynomials.py", "variable")}, sorted(seeders)


def _is_lru_cache(decorator: ast.expr) -> bool:
    called = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(called, "id", getattr(called, "attr", None)) == "lru_cache"


def test_profiles_are_kept_on_the_body_not_in_a_cache():
    # a cache keyed on a poly hashes every term of it on each lookup and keeps
    # old maps alive; what is computed from a body is kept on it instead: the
    # energy profile in VectorPoly._profile, which __init__ resets and
    # energetics._radial_profile fills
    bodies = {"MultiPoly", "VectorPoly", "HarmonicMap"}
    keyed = sorted(
        f"{path.name}:{node.name}({ast.unparse(arg)})"
        for path in SOURCES
        for node in ast.walk(_parse(path))
        if isinstance(node, _FUNCTIONS) and any(map(_is_lru_cache, node.decorator_list))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        # an unannotated parameter could take a body too
        if arg.annotation is None or bodies & set(re.findall(r"\w+", ast.unparse(arg.annotation)))
    )
    assert not keyed, keyed
    assert _slot_writers("_profile") == {
        ("polynomials.py", "__init__"),
        ("energetics.py", "_radial_profile"),
    }


def test_dense_exponent_tuples_stay_in_polynomials():
    # terms are keyed by (axis, exponent) pairs, so a term costs its degree to
    # read; MultiPoly.terms() and the constructor's dense n-tuples are the public
    # view, and a module that reads them (or calls the converters) pays n per term
    converters = {"_dense", "_key_of"}
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in SOURCES + SCRIPTS
        if path.name != "polynomials.py"
        for node in ast.walk(_parse(path))
        if (isinstance(node, ast.Attribute) and node.attr in converters | {"terms"})
        or (isinstance(node, ast.Name) and node.id in converters)
        or (isinstance(node, ast.alias) and node.name in converters)
    )
    assert not readers, readers


def test_radial_integrals_stay_in_integration_and_energetics():
    # integration decides how a radius enters an integral and energetics._energy
    # is the one reader of the energy densities: a module that samples or reads
    # a profile on its own grows a second Monte Carlo route
    callers = {
        path.name
        for path in SOURCES + SCRIPTS
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in {"_mc_integral", "_radial_integral"}
    }
    assert callers == {"integration.py", "energetics.py"}, sorted(callers)


def _called_name(node: ast.Call) -> str | None:
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def test_one_residual_report_builder():
    # identities._report scores the two sides and builds the report; an identity
    # that builds its own can drift from the others in what it scores or records
    builders = {
        (path.name, name)
        for path in SOURCES + SCRIPTS
        for name, node in _nodes_with_their_def(_parse(path))
        if isinstance(node, ast.Call) and _called_name(node) == "ResidualReport"
    }
    assert builders == {("identities.py", "_report")}, sorted(builders)


def test_monte_carlo_integrands_are_products_not_form_names():
    # _mc_integral takes the row products it sums; a form name passed as a string
    # would bring back a lookup table joined to the rows by name
    stringly = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES + SCRIPTS + TESTS
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call)
        and _called_name(node) == "_mc_integral"
        and any(
            isinstance(leaf, ast.JoinedStr)
            or (isinstance(leaf, ast.Constant) and isinstance(leaf.value, str))
            for arg in [*node.args, *(k.value for k in node.keywords)]
            for leaf in ast.walk(arg)
        )
    ]
    calls = sum(
        isinstance(node, ast.Call) and _called_name(node) == "_mc_integral"
        for path in SOURCES
        for node in ast.walk(_parse(path))
    )
    assert calls >= 2 and not stringly, stringly


def test_one_identity_scan():
    # identities.identity_scan is the one loop over maps, radii and identities:
    # the suite's criteria 03, 04 and 08 and the identities command read its reports
    residuals = {"pohozaev_residual", "green_residual"}
    readers = {
        path.name for path in SOURCES if residuals & _reads_outside_own_definition(_parse(path))
    }
    assert readers == {"identities.py"}, sorted(readers)
    cli = ROOT / "src" / "ballharmonics" / "cli.py"
    assert "standard_maps" not in _reads_outside_own_definition(_parse(cli))


def test_whole_grid_oracle_keeps_its_own_indexing():
    # tests/oracles.py samples the whole square and addresses its nodes by its
    # own arithmetic: borrowing the mean-value check's indexing would hold the
    # check to itself, so only the kernel and the evaluator may be shared
    imported = {
        alias.name
        for node in ast.walk(_parse(ROOT / "tests" / "oracles.py"))
        if isinstance(node, ast.ImportFrom) and node.module == "ballharmonics.mollifier"
        for alias in node.names
    }
    allowed = {"MollifierSpec", "kernel_field", "poly_on_grid", "_bump_radial_slope"}
    assert imported <= allowed, sorted(imported - allowed)


def _self_referencing_nested_functions(tree: ast.AST) -> list[str]:
    """Functions defined inside a function whose body reads their own name."""
    nested = [
        inner
        for outer in ast.walk(tree)
        if isinstance(outer, _FUNCTIONS)
        for statement in outer.body
        for inner in ast.walk(statement)
        if isinstance(inner, _FUNCTIONS)
    ]
    return sorted(
        {
            f"{f.name} (line {f.lineno})"
            for f in nested
            if any(
                isinstance(node, ast.Name) and node.id == f.name
                for statement in f.body
                for node in ast.walk(statement)
            )
        }
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_nested_function_refers_to_itself(path):
    # a closure that calls itself holds its own cell: a reference cycle that
    # keeps everything it closes over alive until a gc pass
    hits = _self_referencing_nested_functions(_parse(path))
    assert not hits, f"{path.name}: {hits}"


@pytest.mark.parametrize("path", SOURCES + SCRIPTS + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_scipy_import(path):
    # numpy is the only numerical dependency; the kernel's radial integral is a tanh-sinh rule
    roots = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert "scipy" not in roots, path.name


def test_identity_criteria_pass_under_optimize():
    # `python -O` strips assert statements; criteria 03, 04 and 08 must
    # still pass, and fast enough to run on every test run
    script = (
        "from ballharmonics import suite\n"
        "print(__debug__)\n"
        "scan = suite.identity_reports(7)\n"
        "for name in ('check_pohozaev', 'check_green', 'check_minimiser_bound'):\n"
        "    print(name, getattr(suite, name)(scan).passed)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "False",
        "check_pohozaev True",
        "check_green True",
        "check_minimiser_bound True",
        "",
    ]
