"""Source-level rules that hold for the whole package."""

import ast
import os
import pathlib
import subprocess
import sys
from types import FunctionType

import pytest

import ballharmonics
from ballharmonics import _EXPORTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ballharmonics").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads_outside_own_definition(tree: ast.AST, attributes_only: bool = False) -> set[str]:
    """Names read as a bare name or an attribute, except inside the def or class of that name."""
    reads: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
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
    # a public name, a module-level def or class, or a public method of an
    # exported class that only tests call is dead weight
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


def _writes_series(node: ast.AST) -> bool:
    """An assignment to ._series, or a (object.__)setattr call naming "_series"."""
    if isinstance(node, ast.Attribute):
        return node.attr == "_series" and not isinstance(node.ctx, ast.Load)
    if not isinstance(node, ast.Call):
        return False
    called = getattr(node.func, "id", getattr(node.func, "attr", None))
    return called in {"setattr", "__setattr__"} and any(
        isinstance(arg, ast.Constant) and arg.value == "_series" for arg in node.args
    )


def test_one_writer_of_the_laplacian_series_and_one_walk():
    # the kept series is the one place a poly's Laplacians are computed:
    # _store resets it, _laplacian_series fills it, and no other module walks
    # a Laplacian to learn what the series already holds
    found = [
        (path.name, *pair)
        for path in SOURCES + SCRIPTS + TESTS
        for pair in _nodes_with_their_def(_parse(path))
    ]
    writers = {(module, name) for module, name, node in found if _writes_series(node)}
    assert writers == {("polynomials.py", "_store"), ("polynomials.py", "_laplacian_series")}
    walkers = {
        module
        for module, _, node in found
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_laplacian_terms"
    }
    assert walkers == {"polynomials.py"}, sorted(walkers)


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
