"""Guard against code that the package itself never calls or reads.

A module-level function or class, or a method other than a dunder, that
no module of ``nlsv`` references by name or attribute (``__init__.py``'s
re-exports do not count) is reachable only from tests: delete it, or
allow it below with the reason it stays.  The same holds for a member of
an ``Enum`` that no module references by name, as ``Family.RW``: it is a
case that only tests reach; and for a ``ClassVar`` constant of a class
that no module reads: it is a setting with no effect; and for a
module-level constant that no module reads, other than a dunder such as
``__version__``.

A parameter of a function, method or nested function that its body
never reads is a setting with no effect: delete it.  Lambdas are exempt,
because they implement an interface whose arguments they may ignore
(a forecast's models at every origin, the identity Jacobian).

A parameter with a default that no call in the package sets, by keyword
or by position, has one value in production: fold the value into the
body, or allow it below with the reason it stays.  Calls are matched by
name, and a call to a class counts toward its ``__init__``.  Dataclass
fields are out of scope, because the benchmark sets them.
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
    # The benchmark's objective evaluation builds its parameter vectors
    # from these two constants and passes the drift solves this walk
    # count; the next benchmark change deletes all three.
    "likelihood.LikelihoodConfig.rate",
    "likelihood.LikelihoodConfig.dampening_c",
    "likelihood.LikelihoodConfig.bridge_draws",
    # The commands yield ``series_csv`` text, but the benchmark writes its
    # input series with this function; the next benchmark change may
    # delete it.
    "data_io.write_series_csv",
    # Forecasts draw nothing, but the benchmark's forecast workload seeds
    # its stream with this id; the next benchmark change deletes it.
    "forecasting.STREAM_FORECAST",
}


def _is_enum(node: ast.ClassDef) -> bool:
    return any(
        (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)) == "Enum"
        for base in node.bases
    )


def _is_classvar(node: ast.AST) -> bool:
    """Whether the annotation ``node`` is ``ClassVar`` or ``ClassVar[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == "ClassVar"


def _definitions(stem: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, f"{stem}.{node.name}"
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, f"{stem}.{target.id}"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, f"{stem}.{node.name}.{item.name}"
                if _is_enum(node) and isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            yield target.id, f"{stem}.{node.name}.{target.id}"
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and _is_classvar(item.annotation)
                ):
                    yield item.target.id, f"{stem}.{node.name}.{item.target.id}"


def test_every_definition_is_referenced_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


#: Parameters that their body never reads, each with the reason it stays.
UNREAD_ALLOWED = {
    # Forecasts draw nothing since NL follows the Euler chain's law, but
    # the benchmark's forecast workload passes a stream here by position;
    # the next benchmark change deletes it.
    "forecasting.forecast_origin.rng",
    # ``forecast_targets`` maps IV at the one swap tenor, but the
    # benchmark's forecast workload passes the tenor here by position; the
    # next benchmark change deletes it.
    "forecasting.forecast_origin.swap_tenor",
    # The variance drift system walks the Y bridge alone, but the
    # benchmark's evaluation passes the price path here by position; the
    # next benchmark change deletes it.
    "eml.solve_variance_drift.x_obs",
    # Paths are always simulated under the physical measure, but the
    # benchmark's series set-up passes ``Measure.P`` here by position; the
    # next benchmark change deletes it.
    "simulate.simulate_paths.measure",
}


def test_every_parameter_is_read():
    unread = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in _unread_parameters(path.stem, ast.parse(path.read_text()))
        if name not in UNREAD_ALLOWED
    ]
    assert unread == []


#: Parameters with a default that no call in the package sets, each with
#: the reason it stays.
ONE_VALUE_ALLOWED = {
    # The console entry point ``nlsv = "nlsv.cli:main"`` calls it with no
    # argument, so argv always comes from sys.argv there.
    "cli.main.argv",
    # The rolling tests warm-start their in-sample fits with it.
    "forecasting.rolling_evaluation.init",
    # The benchmark writes its input series with ``write_series_csv`` in
    # the default unit; the next benchmark change may delete both.
    "data_io.write_series_csv.vxo_unit",
}


def _defaulted(tree: ast.Module, stem: str):
    """Every ``def`` with its qualified name, call name, the names of its
    parameters that callers fill by position, and its parameters that have
    a default.  A method's ``self`` or ``cls`` is not filled by position
    (the package has no static methods), and a class's ``__init__`` is
    called by the class's name."""
    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}.{child.name}", child.name)
            elif isinstance(child, ast.FunctionDef):
                qualified = f"{prefix}.{child.name}"
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args][bool(in_class):]
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                called_as = in_class if child.name == "__init__" else child.name
                yield qualified, called_as, positional, with_default
                yield from walk(child, qualified, None)
            else:
                yield from walk(child, prefix, in_class)

    yield from walk(tree, stem, None)


def test_every_default_is_overridden_somewhere():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # Per called name: how many positional arguments some call passes
    # (a starred one fills them all) and which keywords calls set (None
    # stands for a ``**`` mapping, which may set any of them).
    n_positional: dict[str, int] = {}
    keywords: dict[str, set] = {}
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = float("inf") if starred else len(node.args)
            n_positional[name] = max(n_positional.get(name, 0), count)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    never_set = [
        f"{qualified}.{param}"
        for stem, tree in trees.items()
        for qualified, called_as, positional, with_default in _defaulted(tree, stem)
        for param in with_default
        if not (
            param in positional and positional.index(param) < n_positional.get(called_as, 0)
            or keywords.get(called_as, set()) & {param, None}
        )
        and f"{qualified}.{param}" not in ONE_VALUE_ALLOWED
    ]
    assert never_set == []
