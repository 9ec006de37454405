"""Every function, class, method and module-level name of the package has
a user outside tests: its name is used in src, demos or perfbench outside
its own definition, or a decorator factory its module defines receives it
(acceptance._criterion files each criterion in CRITERIA).  A helper that
only tests call is dead code kept alive by its tests.  Likewise every
instance attribute a method assigns (self.<name> = ...), and every field of
a dataclass or NamedTuple, is read outside its own line: loaded as an
attribute (x.<name>) or named by the string argument of getattr or hasattr;
a variable, keyword or other string of the same name is not a read.
Comments and docstrings do not count as uses, nor do the re-exports in the
package's __init__.py; a method that overrides one of a base class is
called through the base class."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polarblock"
USERS = [ROOT / "src", ROOT / "demos", ROOT / "perfbench"]

# helpers kept with tests as their only callers, and why
REFERENCES = {
    "no_blocking_below": "brute-force reference the search tests compare "
                         "exact optima against",
}


def _definitions(path):
    """(name, first line, last line) of each top-level function or class,
    of each name a top-level assignment binds that is not a dunder, and of
    each method that is not a dunder and overrides nothing."""
    module = importlib.import_module(
        "polarblock" if path.stem == "__init__" else f"polarblock.{path.stem}")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and isinstance(name.ctx, ast.Store)
                            and not name.id.startswith("__")):
                        yield name.id, node.lineno, node.end_lineno
        if not isinstance(node, kinds):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            bases = getattr(module, node.name).__mro__[1:]
            for item in node.body:
                if (isinstance(item, kinds)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))
                        and not any(hasattr(b, item.name) for b in bases)):
                    yield item.name, item.lineno, item.end_lineno


def _uses(path):
    """(identifier, line) for each name, attribute, imported name and
    keyword argument in the syntax tree, and for each string constant that
    is one identifier (getattr, setattr and patch tables use those).  The
    tree holds the expressions inside an f-string as nodes on every Python,
    where the tokenizer gives the whole f-string as one STRING token before
    3.12.  A top-level function is used at each decorator that is a call of
    a top-level function of the same module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                if (isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
                        and dec.func.id in functions):
                    yield node.name, dec.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (*node.name.split("."), node.asname):
                if name:
                    yield name, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def _reads(path):
    """(name, line) for each attribute load x.<name> in the syntax tree, and
    for each string constant passed as the name to getattr or hasattr."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            yield node.args[1].value, node.lineno


def _instance_attributes(path):
    """(name, first line, last line) of each self.<name> assignment in a
    method of a top-level class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for attr in ast.walk(target):
                    if (isinstance(attr, ast.Attribute)
                            and isinstance(attr.ctx, ast.Store)
                            and isinstance(attr.value, ast.Name)
                            and attr.value.id == "self"):
                        yield attr.attr, node.lineno, node.end_lineno


def _fields(path):
    """(name, first line, last line) of each annotated name in the body of
    a top-level class: the package's dataclass and NamedTuple fields."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    yield node.target.id, node.lineno, node.end_lineno


def _unused(definitions, uses_of=_uses):
    """The definitions (path, name, first line, last line) whose name is
    used (as uses_of finds uses) nowhere in src, demos or perfbench outside
    their own lines."""
    uses = {}
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            if ("tests" in path.relative_to(root).parts
                    or path == PACKAGE / "__init__.py"):
                continue
            for name, line in uses_of(path):
                uses.setdefault(name, []).append((path, line))
    dead = []
    for path, name, first, last in definitions:
        outside = [u for u in uses.get(name, ())
                   if not (u[0] == path and first <= u[1] <= last)]
        if not outside:
            dead.append(f"{path.name}:{first} {name}")
    return dead


def test_every_helper_has_a_caller_outside_tests():
    dead = _unused((path, name, first, last)
                   for path in sorted(PACKAGE.glob("*.py"))
                   for name, first, last in _definitions(path)
                   if name not in REFERENCES)
    assert not dead, dead


def test_every_instance_attribute_is_read_outside_tests():
    dead = _unused([(path, name, first, last)
                    for path in sorted(PACKAGE.glob("*.py"))
                    for name, first, last in _instance_attributes(path)],
                   _reads)
    assert not dead, dead


def test_every_field_is_read_outside_tests():
    dead = _unused([(path, name, first, last)
                    for path in sorted(PACKAGE.glob("*.py"))
                    for name, first, last in _fields(path)],
                   _reads)
    assert not dead, dead
