import ast
import inspect
import re
from pathlib import Path

import kgbohm
from kgbohm import cli, construction, errors, measure, minkowski, trajectory, wavefield

MODULES = (minkowski, wavefield, construction, trajectory, measure, errors)


def test_every_public_name_is_exported_as_the_same_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(kgbohm, name) is getattr(module, name), (module, name)
    assert sorted(kgbohm.__all__) == sorted(
        ["__version__", *(name for m in MODULES for name in m.__all__)]
    )
    assert len(set(kgbohm.__all__)) == len(kgbohm.__all__)


def test_cli_entry_points_are_plain_functions():
    assert {"build_parser", "main"} <= set(cli.__all__)
    for fn in (cli.build_parser, cli.main):
        assert inspect.isfunction(fn) and fn.__module__ == "kgbohm.cli"


def top_level_names(tree):
    """(name, statement) for each name a module-level statement defines."""
    for node in tree.body:
        for target in getattr(node, "targets", [getattr(node, "target", node)]):
            yield getattr(target, "id", getattr(target, "name", "")), node


def test_every_private_module_name_is_used():
    # a module-level _name that nothing else in the package reads is dead code
    trees = {
        path.name: ast.parse(path.read_text())
        for path in Path(kgbohm.__file__).parent.glob("*.py")
    }
    defined, used = [], []
    for module, tree in trees.items():
        for name, node in top_level_names(tree):
            if name.startswith("_") and not name.startswith("__"):
                defined.append((module, name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                used.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                used.append((module, node.name, node.lineno))
    unused = [
        (module, name)
        for module, name, first, last in defined
        if not any(
            n == name and (m != module or not first <= line <= last)
            for m, n, line in used
        )
    ]
    assert defined and unused == []


def test_thresholds_reach_verdicts_only_as_tolerances():
    # a verdict function takes a Tolerances, whose __post_init__ is the one
    # check of a tolerance, never a bare float; the defaults are its fields
    bare = {"tol", "ortho_tol", "node_tol"}
    found = []
    for path in Path(kgbohm.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                found += [(path.name, p.arg) for p in params if p and p.arg in bare]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if re.fullmatch(r"DEFAULT_\w+_TOL", node.id):
                    found.append((path.name, node.id))
    assert found == []


def test_every_public_name_has_a_caller():
    # A name in a module's __all__ is public only if the program uses it:
    # something in src/ reads it outside its own definition (__init__'s star
    # re-export names nothing), or the benchmark imports it from kgbohm.
    # Tests do not count: their oracles live in tests/support.py. NodeError
    # passes only through that import (bench/workloads.py catches it).
    src = Path(kgbohm.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "bench"
    spans = {}
    for module in MODULES:
        path = Path(module.__file__)
        for name, node in top_level_names(ast.parse(path.read_text())):
            if name in module.__all__:
                spans[name] = (path.name, node.lineno, node.end_lineno)
    assert sorted(spans) == sorted(n for m in MODULES for n in m.__all__)
    read = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            module, first, last = spans.get(name, (None, 0, 0))
            if path.name != module or not first <= node.lineno <= last:
                read.add(name)
    imported = {
        alias.name
        for path in bench.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "kgbohm" and not node.level
        for alias in node.names
    }
    assert "NodeError" in imported
    assert sorted(set(spans) - read - imported) == []
