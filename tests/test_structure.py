"""Structural rules of the package source, checked on its syntax trees.

- No handler catches everything: no bare ``except``, ``except Exception`` or
  ``except BaseException``.  A run is retried only on the one error that a
  fresh seed can cure, and every other error reaches the caller.
- No parallel layer: no module imports ``concurrent.futures``, ``threading``
  or ``multiprocessing``.  A sweep's and a network's runs are many small numpy
  calls, so they run serially, one after another.
- One error boundary: in ``cli.py`` only ``main`` handles exceptions, so the
  map from error to exit code is written once.
- ``linalg`` is the tests' reference for the batched fit: no module imports it.
- No module imports another module's ``_``-prefixed name.
- One seed derivation: ``generate_state`` appears in a single function.
- No module imports scipy, at module level or inside a function: the
  package needs numpy and the standard library only.
- One size limit: only ``errors.py`` reads ``MAX_DOUBLES``; every other
  module asks ``check_capacity``.
- One real-number rule: only ``errors.py`` reads ``sys.float_info``; every
  other module asks ``errors.finite``.
- Each result document is its dataclass, written by ``dataclasses.asdict``:
  the one ``to_dict`` is ``NetworkResult``'s, which adds the schema version.
- One level test: only ``invariance.level_pvalues`` calls ``fit_subsets``, so
  ``discover``, ``discover_targets`` and ``phi_S`` all test through it.
- One null-size limit per path: only ``level_pvalues``, where every test
  passes, and ``network_detect``, before it simulates, call ``check_null_size``.
- One report conversion: only ``invariance.level_reports`` builds a
  ``SubsetTestReport``, and only ``phi_S`` and ``DiscoveryResult.reports``
  call it, so the search keeps its evidence as arrays.
- One Monte-Carlo estimator: ``searchsorted`` appears only in
  ``invariance._null_pvalues``, so ``(1 + count) / (B + 1)`` is written once
  for ``mc_pvalue`` and ``level_pvalues``.
- One SVD fallback: outside ``linalg.py``, ``svd`` is used only in
  ``invariance._fit_environments``, for the pairs the Cholesky solve leaves
  uncertified; the empty column set is an ordinary width-0 solve.
- One target shape: only ``discovery._search`` and ``invariance.phi_S`` call
  ``target_cross_products``, so every fit takes its targets as one
  ``(values, X'y, y'y)`` triple, the dataset's own target included; no
  module reads ``target_sum_of_squares`` or ``cross_products``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "localicp"
MODULES = sorted(SRC.glob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}


def _names(node):
    """Exception names of one handler: ``except X``, ``except (X, Y)``, ``except m.X``."""
    if node is None:
        return ["<bare>"]
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return [e.attr if isinstance(e, ast.Attribute) else getattr(e, "id", "") for e in elts]


def test_sources_found():
    assert {"experiments.py", "discovery.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_catch_all_handlers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = [
        f"{path.name}:{node.lineno}: except {name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        for name in _names(node.type)
        if name in CATCH_ALL or name == "<bare>"
    ]
    assert offenders == []


class _Users(ast.NodeVisitor):
    """Innermost enclosing function of every use of the name ``target``."""

    def __init__(self, target):
        self.target = target
        self.scope = ["<module>"]
        self.users = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id == self.target:
            self.users.add(self.scope[-1])

    def visit_Attribute(self, node):
        if node.attr == self.target:
            self.users.add(self.scope[-1])
        self.generic_visit(node)


class _Callers(_Users):
    """Innermost enclosing function of every call of the name ``target``."""

    def visit_Name(self, node):
        pass

    def visit_Attribute(self, node):
        self.generic_visit(node)

    def visit_Call(self, node):
        if getattr(node.func, "attr", getattr(node.func, "id", None)) == self.target:
            self.users.add(self.scope[-1])
        self.generic_visit(node)


def _users(target, visitor_class=_Users):
    """(module file, function) of every use of ``target`` in the package."""
    users = set()
    for path in MODULES:
        visitor = visitor_class(target)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        users |= {(path.name, scope) for scope in visitor.users}
    return users


def test_seeds_derived_in_one_function():
    users = _users("generate_state")
    assert len(users) == 1, sorted(users)


def test_one_level_test_fits():
    assert _users("fit_subsets") == {("invariance.py", "level_pvalues")}


def test_null_size_checked_by_the_level_test_and_the_network():
    assert _users("check_null_size") == {("invariance.py", "level_pvalues"), ("experiments.py", "network_detect")}


def test_reports_built_in_one_function():
    assert _users("SubsetTestReport", _Callers) == {("invariance.py", "level_reports")}
    assert _users("level_reports") == {("invariance.py", "phi_S"), ("discovery.py", "reports")}


def test_one_monte_carlo_estimator():
    assert _users("searchsorted") == {("invariance.py", "_null_pvalues")}


def test_one_svd_fallback():
    users = {user for user in _users("svd") if user[0] != "linalg.py"}
    assert users == {("invariance.py", "_fit_environments")}


def test_one_target_shape():
    assert _users("target_cross_products", _Callers) == {("discovery.py", "_search"), ("invariance.py", "phi_S")}
    assert _users("target_sum_of_squares") == _users("cross_products") == set()


def test_size_limit_read_only_in_errors():
    users = _users("MAX_DOUBLES")
    assert {module for module, _ in users} == {"errors.py"}, sorted(users)


def test_finite_reals_judged_only_in_errors():
    users = _users("float_info")
    assert {module for module, _ in users} == {"errors.py"}, sorted(users)


def test_cli_handles_errors_only_in_main():
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    inside = {id(n) for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)}
    outside = [
        f"cli.py:{n.lineno}"
        for n in ast.walk(tree)
        if isinstance(n, ast.ExceptHandler) and id(n) not in inside
    ]
    assert inside and outside == []


def _package_imports(tree):
    """(module, name) of every import from the package; ``from .x import y`` gives ("x", "y")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("localicp."):
                    module, _, name = alias.name.removeprefix("localicp.").rpartition(".")
                    yield module, name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "localicp" or module.startswith("localicp."):
                module = module.removeprefix("localicp").removeprefix(".")
                for alias in node.names:
                    yield module, alias.name


def test_no_module_imports_linalg():
    offenders = [
        f"{path.name}: from .{module} import {name}"
        for path in MODULES
        for module, name in _package_imports(ast.parse(path.read_text(), filename=str(path)))
        if "linalg" in (module, name)
    ]
    assert offenders == []


def test_no_private_names_imported_across_modules():
    offenders = [
        f"{path.name}: from .{module} import {name}"
        for path in MODULES
        for module, name in _package_imports(ast.parse(path.read_text(), filename=str(path)))
        if name.startswith("_")
    ]
    assert offenders == []


def _imported_modules(tree):
    """Top-level names of the modules a file imports anywhere, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield (node.module or "").partition(".")[0]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", "")) == "import_module"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            yield str(node.args[0].value).partition(".")[0]


def test_imported_modules_sees_function_level_imports():
    source = "def f():\n    from scipy import stats\n    import scipy.special\n    importlib.import_module('scipy')\n"
    assert list(_imported_modules(ast.parse(source))) == ["scipy"] * 3


def test_no_module_imports_a_parallel_library():
    parallel = {"concurrent", "threading", "multiprocessing"}
    offenders = [
        f"{path.name}: {module}"
        for path in MODULES
        for module in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if module in parallel
    ]
    assert offenders == []


# The name predates the stricter rule: no scipy import at any level.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "scipy" not in set(_imported_modules(tree))


def test_one_to_dict():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        found += [
            f"{path.name}:{owner.get(id(f), '<function>')}"
            for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name == "to_dict"
        ]
    assert found == ["experiments.py:NetworkResult"]
