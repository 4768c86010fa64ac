"""Leftovers a refactor can leave in src/pmdiag: imports nothing uses and
private helpers nothing calls. Checked with the standard library's ast, so
no linter is needed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pmdiag"
# __init__.py imports to re-export
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def annotations(tree: ast.Module):
    """Every annotation in the module: of arguments, returns and annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def loaded_names(tree: ast.AST) -> set:
    """Names the code reads, including those inside string annotations such
    as "dict[FaultClass, int]". A name that only a docstring or comment
    mentions is not read."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= loaded_names(ast.parse(node.value, mode="eval"))
    return names


def test_every_module_is_checked():
    assert {"cli.py", "conformal.py", "core.py", "evaluation.py", "model.py", "preprocess.py", "synth.py"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = parse(name)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = loaded_names(tree)
    assert [b for b in bound if b not in used] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_private_definition_is_referenced(name):
    tree = parse(name)
    private = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    used = loaded_names(tree)
    assert [p for p in private if p not in used] == []


def test_docstrings_and_unused_imports_are_caught():
    """The checks' own cases: a name only a docstring mentions is unused, a
    string annotation is a use."""
    tree = ast.parse(
        'import json\nfrom .core import Dataset, ParseError\n'
        'def _helper(x: "list[Dataset]"):\n    """Raises ParseError; see json."""\n'
    )
    assert loaded_names(tree) & {"json", "Dataset", "ParseError", "_helper"} == {"Dataset"}
