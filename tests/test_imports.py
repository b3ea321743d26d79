"""Every name a module of the package imports is used there or exported,
every private module-level name is referenced outside its definition, and
every name the package exports is exported by one of its modules."""

import ast
import importlib
from pathlib import Path

import pytest

import reconkernel

MODULES = sorted(Path(reconkernel.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    # the local name each import binds, with its line; __future__ imports
    # switch on a compiler feature and bind nothing that is read
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def string_annotations(tree: ast.Module):
    # quoted annotations, and quoted type arguments such as Union[..., "T"]
    for node in ast.walk(tree):
        roots = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        if isinstance(node, ast.Subscript):
            roots.append(node.slice)
        for root in roots:
            for sub in ast.walk(root) if root is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        yield ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        pass  # a string key such as d["lambda"], not a type


def read_names(tree: ast.Module) -> set[str]:
    trees = [tree, *string_annotations(tree)]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def private_definitions(tree: ast.Module) -> dict[str, int]:
    # module-level functions, classes and constants named with one leading
    # underscore, each with the index of the statement that defines it
    out = {}
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update((name, i) for name in names if name.startswith("_") and not name.startswith("__"))
    return out


def referenced_names(node: ast.AST) -> set[str]:
    # names read as variables, also in quoted annotations, or as attributes
    trees = [node, *string_annotations(node)]
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for t in trees
        for n in ast.walk(t)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    }


def unreferenced_private_names(trees: dict[str, ast.Module]) -> dict[str, str]:
    # a private name counts as used when a top-level statement other than
    # its own definition reads it, in any module
    refs = {
        (mod, i): referenced_names(node) for mod, tree in trees.items() for i, node in enumerate(tree.body)
    }
    dead = {}
    for mod, tree in trees.items():
        for name, i in private_definitions(tree).items():
            if not any(name in names for key, names in refs.items() if key != (mod, i)):
                dead[name] = f"{mod}:{tree.body[i].lineno}"
    return dead


def test_the_scan_covers_the_package():
    assert {p.name for p in MODULES} >= {"__init__.py", "exact.py", "weno.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree) | exported_names(tree)
    dead = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert dead == {}, f"{path.name} imports names it never uses: {dead}"


def test_a_dead_import_is_caught():
    tree = ast.parse('from typing import Union\nimport os\n__all__ = ["os"]\nx: "Union[int, str]" = 1\n')
    assert set(imported_names(tree)) - read_names(tree) - exported_names(tree) == set()
    tree = ast.parse('from typing import Union, Sequence\nx: Sequence = ()\nd = {}\ny = d["lambda"]\n')
    assert set(imported_names(tree)) - read_names(tree) == {"Union"}


def test_every_private_name_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert unreferenced_private_names(trees) == {}


def test_a_dead_private_helper_is_caught():
    used = ast.parse("_LIMIT = 3\n\ndef _step(n):\n    return n + _LIMIT\n")
    caller = ast.parse("from .a import _step\n\ndef run():\n    return _step(1)\n")
    assert unreferenced_private_names({"a.py": used, "b.py": caller}) == {}
    dead = ast.parse("def _walk(n):\n    return _walk(n - 1) if n else 0\n_TABLE: dict = {}\n")
    assert unreferenced_private_names({"a.py": dead}) == {"_walk": "a.py:1", "_TABLE": "a.py:3"}


def test_every_package_export_is_a_module_export():
    # each name in reconkernel.__all__ is in the __all__ of a submodule, as
    # the very object the package binds
    modules = [importlib.import_module(f"reconkernel.{p.stem}") for p in MODULES if p.stem != "__init__"]
    for name in reconkernel.__all__:
        owners = [m for m in modules if name in getattr(m, "__all__", ())]
        assert owners, f"{name} is in the __all__ of no module"
        assert all(getattr(m, name) is getattr(reconkernel, name) for m in owners), name
