"""Guard against code that the package itself never calls or reads.

A module-level function or class, or a method other than a dunder, that
no module of ``nlsv`` references by name or attribute (``__init__.py``'s
re-exports do not count) is reachable only from tests: delete it, or
allow it below with the reason it stays.

A parameter of a function, method or nested function that its body
never reads is a setting with no effect: delete it.  Lambdas are exempt,
because they implement an interface whose arguments they may ignore
(a forecast's models at every origin, the identity Jacobian).
"""

import ast
from pathlib import Path

import nlsv

SRC = Path(nlsv.__file__).resolve().parent

ALLOWED = {
    # The relative standard error of the importance-sampling average: the
    # planned fit diagnostics report it at the optimum, and the SML
    # unbiasedness test standardizes its errors with it.
    "likelihood._rel_se",
}


def _definitions(stem: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, f"{stem}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, f"{stem}.{node.name}.{item.name}"


def test_every_definition_is_referenced_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [
        qualified
        for stem, tree in trees.items()
        for name, qualified in _definitions(stem, tree)
        if name not in referenced and qualified not in ALLOWED
    ]
    assert unreferenced == []


def _functions(node: ast.AST, prefix: str):
    """Every ``def`` under ``node``, nested ones included, with its
    qualified name."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                yield child, name
        yield from _functions(child, name)


def _unread_parameters(stem: str, tree: ast.Module):
    for func, qualified in _functions(tree, stem):
        args = func.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for name in params:
            if name not in read and name not in ("self", "cls"):
                yield f"{qualified}.{name}"


def test_every_parameter_is_read():
    unread = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in _unread_parameters(path.stem, ast.parse(path.read_text()))
    ]
    assert unread == []
