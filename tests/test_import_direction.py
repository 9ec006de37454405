"""Modules of the package import each other at the top of the file, so the
order they depend on each other in is read off their first lines.  An
import inside a function hides an edge of that order, most often one that
would close a cycle; each such import is listed here with its reason, and
the top-level imports form no cycle."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polarblock"

# (module, function, imported module): why the import cannot be at the top
LOCAL_IMPORTS = {
    ("analysis", "theorem_threshold", "search"):
        "search imports analysis at the top (members_mask, is_minimal and "
        "the blocking predicates), and the parabolic threshold needs the "
        "PG(2,q) plane oracle of search",
}


def _package_modules(node):
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.level:
        names = ([node.module] if node.module
                 else [a.name for a in node.names])
    else:
        names = [node.module or ""]
    for name in names:
        name = name.removeprefix("polarblock.")
        if (PACKAGE / f"{name}.py").exists():
            yield name


def _imports(path):
    """(function or None at the top level, imported module) for each
    import of a package module in the file."""

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for name in _package_modules(child):
                    yield func, name
            else:
                yield from visit(child, func)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), None)


def test_function_local_imports_are_listed():
    found = {(path.stem, func, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for func, name in _imports(path) if func is not None}
    assert found == set(LOCAL_IMPORTS)


def test_top_level_imports_form_no_cycle():
    graph = {path.stem: {name for func, name in _imports(path)
                         if func is None and name != path.stem}
             for path in sorted(PACKAGE.glob("*.py"))}
    graph.pop("__init__")
    order = list(TopologicalSorter(graph).static_order())
    assert order.index("analysis") < order.index("search") < order.index(
        "constructions")
