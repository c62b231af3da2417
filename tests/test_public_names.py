"""Every public function of a `fqsvt` module is named by another module of the package.

The package's `__init__` re-exports names and does not count as a user.
"""

import ast
from pathlib import Path

import fqsvt

SOURCES = Path(fqsvt.__file__).parent

# `cli.main` is the entry point. Bench's traced layers and BENCHMARK.json name
# `linalg.trace_norm` and `chebyshev.certify_filter`, which no module calls.
UNCALLED = {"cli.main", "linalg.trace_norm", "chebyshev.certify_filter"}


def modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCES.glob("*.py")) if path.stem != "__init__"}


def public_functions(tree: ast.Module) -> set:
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in exported}


def named(tree: ast.Module) -> set:
    """Every identifier that `tree` imports, reads or looks up as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_function_has_a_caller_in_another_module():
    trees = modules()
    uses = {name: named(tree) for name, tree in trees.items()}
    uncalled = {f"{module}.{function}"
                for module, tree in trees.items() for function in public_functions(tree)
                if not any(function in names for other, names in uses.items() if other != module)}
    assert uncalled == UNCALLED


def test_the_scan_sees_the_public_functions_of_every_module():
    found = {module: public_functions(tree) for module, tree in modules().items()}
    assert "synthesize_symmetric" in found["qsp"] and "main" in found["cli"]
    assert all(found[module] for module in ("bands", "baselines", "blockenc", "linalg", "qsvt"))
