"""Every name a module of the package imports is used there or exported."""

import ast
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
