"""Leftovers a refactor can leave in src/pmdiag: imports nothing uses and
private helpers nothing calls. Checked with the standard library's ast, so
no linter is needed."""

import ast
from pathlib import Path

import pytest

from test_readme import python_block

SRC = Path(__file__).resolve().parents[1] / "src" / "pmdiag"
# __init__.py has a check of its own
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
    assert {"cli.py", "config.py", "conformal.py", "core.py", "evaluation.py", "model.py", "pieces.py", "preprocess.py",
            "synth.py"} <= set(MODULES)


def test_package_namespace_holds_only_version():
    """The modules are the API: __init__.py holds its docstring and binds
    __version__, and re-exports nothing."""
    docstring, *rest = parse("__init__.py").body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert isinstance(docstring.value.value, str)
    assert [type(node) for node in rest] == [ast.Assign]
    (target,), value = rest[0].targets, rest[0].value
    assert isinstance(target, ast.Name) and target.id == "__version__"
    assert isinstance(value, ast.Constant) and isinstance(value.value, str)


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


@pytest.mark.parametrize(
    "step",
    [
        "conformal.calibrate_probs",
        "conformal.save_predictor",
        "evaluation.build_metrics",
        "evaluation.coverage_eval",
        "evaluation.stratified_split",
        "evaluation.split_calibration",
    ],
)
def test_each_stage_step_has_one_call_site_in_cli(step):
    """The stage commands and pipeline share each step of calibrate and
    evaluate: cli.py names each function once, through its module."""
    module, name = step.split(".")
    tree = parse("cli.py")
    sites = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == name
        and isinstance(node.value, ast.Name) and node.value.id == module
    ]
    assert len(sites) == 1
    assert name not in loaded_names(tree)


def test_pipeline_builds_no_dict_comprehension():
    """pipeline picks its rows by dataset position, from the positions the
    split returns: cmd_pipeline builds no dict comprehension, the shape its
    table keyed by manoeuvre id had."""
    tree = parse("cli.py")
    pipeline = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "cmd_pipeline")
    assert [node.lineno for node in ast.walk(pipeline) if isinstance(node, ast.DictComp)] == []


def mentioned(tree: ast.Module) -> set:
    """The names a module imports or reads, as names or as attributes."""
    imported = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return loaded_names(tree) | imported | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_split_does_not_name_dataset():
    """The split takes any sequence of labelled manoeuvres and returns
    positions: evaluation.py neither imports nor reads Dataset."""
    assert "Dataset" not in mentioned(parse("evaluation.py"))


def test_cli_leaves_validation_and_layer_widths_to_their_owners():
    """core validates every manoeuvre stream (iter_manoeuvres,
    valid_manoeuvres), and model.train takes its input width from its rows:
    cli.py names neither validate_manoeuvre nor DEFAULT_LAYER_DIMS, and
    _features takes no switch for its caller."""
    tree = parse("cli.py")
    assert mentioned(tree) & {"validate_manoeuvre", "DEFAULT_LAYER_DIMS"} == set()
    assert parameters(tree, "_features") == ["manoeuvres", "cfg"]


def test_train_takes_rows_labels_and_config():
    """The layer widths are the rows' width and DEFAULT_LAYER_DIMS[1:]; no
    parameter restates the width."""
    assert parameters(parse("model.py"), "train") == ["features", "labels", "cfg"]


def parameters(tree: ast.Module, function: str) -> list:
    """The parameter names of a module-level function."""
    a = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function).args
    return [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)]


def test_cli_does_not_name_dataset():
    """Every command hands its manoeuvres on as a plain sequence, and
    pipeline its provenance as a string: cli.py neither imports nor reads
    Dataset."""
    assert "Dataset" not in mentioned(parse("cli.py"))


@pytest.mark.parametrize("function", ["plan_dataset", "generate_dataset"])
def test_generated_dataset_has_one_seed(function):
    """A generated dataset is seeded by its SynthConfig's seed alone: the
    function takes no seed parameter."""
    assert "seed" not in parameters(parse("synth.py"), function)


def calls(tree: ast.AST, match) -> list:
    """The calls in a tree whose callee expression satisfies match(node)."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and match(node.func)]


def test_preprocess_has_one_kernel():
    """One path computes preprocess's steps: the block kernel smooths with
    the module's only np.convolve, takes the traces and the config and
    nothing else, and preprocess_rows is its only caller in src/pmdiag."""
    tree = parse("preprocess.py")
    assert len(calls(tree, lambda f: isinstance(f, ast.Attribute) and f.attr == "convolve")) == 1
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    a = functions["_kernel"].args
    assert [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)] == ["traces", "cfg"]
    assert a.vararg is None and a.kwarg is None
    callers = [(module, node.name) for module in MODULES for node in parse(module).body
               if isinstance(node, ast.FunctionDef)
               and calls(node, lambda f: (isinstance(f, ast.Name) and f.id == "_kernel")
                         or (isinstance(f, ast.Attribute) and f.attr == "_kernel"))]
    assert callers == [("preprocess.py", "preprocess_rows")]


ROOT = SRC.parents[1]
PACKAGE_MODULES = {Path(name).stem for name in MODULES}
# the tests load datasets through it, as the reference for pieces.share
UNNAMED_PUBLIC = {("core", "load_dataset")}


def references(tree: ast.AST, module: "str | None" = None, spans=False) -> set:
    """(module, name) of each package name a tree names: imported from a
    package module, or read as an attribute of one, or, in `module`'s own
    source, read as a plain name, or, with `spans`, as a string
    "module.name", the span name by which perfbench's tracer hooks a
    function."""
    found = set()
    for node in ast.walk(tree):
        if spans and isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value:
            found.add(tuple(node.value.split(".", 1)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in PACKAGE_MODULES:
            found |= {(node.module.split(".")[-1], alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in PACKAGE_MODULES:
            found.add((node.value.id, node.attr))
        elif module is not None and isinstance(node, ast.Name):
            found.add((module, node.id))
    return found


def test_every_public_name_is_used():
    """No public function or class is kept for its tests alone: each is named
    in src/pmdiag outside its own definition, in perfbench (whose self-test
    does not count), or in the README's library block."""
    outside = references(ast.parse(python_block("Library")))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if path.name != "selftest.py":
            outside |= references(ast.parse(path.read_text(encoding="utf-8")), spans=True)
    # each top-level statement's references, so that a definition's own do not count
    statements = {Path(name).stem: [(node, references(node, Path(name).stem)) for node in parse(name).body]
                  for name in MODULES}
    for module, body in statements.items():
        outside |= {ref for _, refs in body for ref in refs if ref[0] != module}
    unused = []
    for module, body in statements.items():
        for node, _ in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                named = {ref for other, refs in body if other is not node for ref in refs}
                if (module, node.name) not in outside | named | UNNAMED_PUBLIC:
                    unused.append(f"{module}.{node.name}")
    assert unused == []


def test_children_are_forked_in_one_place():
    """One shape of child: pieces.py names multiprocessing, Pipe and Process
    only inside start_forked, so every child and its pipe start there, and
    cli.py names none of them."""
    tree = parse("pieces.py")
    forking = {"multiprocessing", "Pipe", "Process"}

    def named(node) -> set:
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        if isinstance(node, ast.alias):
            return set(node.name.split("."))
        if isinstance(node, ast.ImportFrom):
            return set((node.module or "").split("."))
        return set()

    start_forked = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "start_forked")
    inside = {id(node) for node in ast.walk(start_forked)}
    assert any(named(node) & forking for node in ast.walk(start_forked))
    outside = [node for node in ast.walk(tree) if id(node) not in inside and named(node) & forking]
    assert [(node.lineno, sorted(named(node) & forking)) for node in outside] == []
    in_cli = [node for node in ast.walk(parse("cli.py")) if named(node) & forking]
    assert [(node.lineno, sorted(named(node) & forking)) for node in in_cli] == []


def package_imports(tree: ast.Module) -> set:
    """The package modules a module imports, relatively (`from . import m`,
    `from .m import x`) or by the package's name (`pmdiag.m`)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("pmdiag.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "pmdiag"):
            parts = (node.module or "").split(".")[0 if node.level else 1 :]
            found |= {parts[0]} if parts and parts[0] else {alias.name for alias in node.names}
    return found


def test_run_config_and_pieces_stand_apart_from_the_cli():
    """pieces.py imports no package module but core, so it shares out any
    load; config.py and pieces.py import nothing from cli.py."""
    assert package_imports(parse("pieces.py")) == {"core"}
    assert "cli" not in package_imports(parse("config.py"))


def test_docstrings_and_unused_imports_are_caught():
    """The checks' own cases: a name only a docstring mentions is unused, a
    string annotation is a use."""
    tree = ast.parse(
        'import json\nfrom .core import Dataset, ParseError\n'
        'def _helper(x: "list[Dataset]"):\n    """Raises ParseError; see json."""\n'
    )
    assert loaded_names(tree) & {"json", "Dataset", "ParseError", "_helper"} == {"Dataset"}


def test_cli_has_one_dataset_loader_and_one_preprocess_call():
    """cli.py loads every dataset file through _load, never through
    core.load_dataset, and preprocesses every run of manoeuvres in one
    preprocess.preprocess_rows call, in _features."""
    tree = parse("cli.py")
    named = [
        node for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "load_dataset")
        or (isinstance(node, ast.Attribute) and node.attr == "load_dataset")
        or (isinstance(node, ast.alias) and node.name == "load_dataset")
    ]
    assert named == []
    rows = calls(tree, lambda f: isinstance(f, ast.Attribute) and f.attr == "preprocess_rows")
    assert len(rows) == 1


def test_feature_vector_is_built_only_by_load_features():
    """Feature rows go from preprocessing through training, calibration and
    features.jsonl as one (n, width) matrix: FeatureVector is only the record
    type of preprocess.load_features, the one place that builds it, and
    cli.py does not name it."""

    def builds(f) -> bool:
        return (isinstance(f, ast.Name) and f.id == "FeatureVector") or (
            isinstance(f, ast.Attribute) and f.attr == "FeatureVector")

    everywhere = [(module, node.lineno) for module in MODULES for node in calls(parse(module), builds)]
    load_features = next(n for n in parse("preprocess.py").body
                         if isinstance(n, ast.FunctionDef) and n.name == "load_features")
    inside = [("preprocess.py", node.lineno) for node in calls(load_features, builds)]
    assert everywhere == inside and len(inside) == 1
    assert "FeatureVector" not in mentioned(parse("cli.py"))


def test_json_type_rule_lives_in_core():
    """Which JSON value a field takes is one decision, core.json_type_error's:
    no other module tests a value against bool with isinstance, and each
    reader of a JSON file calls the rule."""

    def names_bool(node) -> bool:
        kinds = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds)

    bool_tests = [(module, node.lineno) for module in MODULES if module != "core.py"
                  for node in calls(parse(module), lambda f: isinstance(f, ast.Name) and f.id == "isinstance")
                  if len(node.args) == 2 and names_bool(node.args[1])]
    assert bool_tests == []
    readers = {("model.py", "load_model"), ("preprocess.py", "load_features"), ("conformal.py", "load_predictor"),
               ("config.py", "_build_section"), ("core.py", "_manoeuvre_from_obj")}
    for module, name in sorted(readers):
        function = next(n for n in parse(module).body if isinstance(n, ast.FunctionDef) and n.name == name)
        assert calls(function, lambda f: isinstance(f, ast.Name) and f.id == "json_type_error"), (module, name)


def test_synth_has_one_manoeuvre_generator():
    """Every class of trace comes from one call: synth.py builds a Manoeuvre
    in one place, and DatasetPlan.manoeuvre has no branch on the class."""
    tree = parse("synth.py")
    assert len(calls(tree, lambda f: isinstance(f, ast.Name) and f.id == "Manoeuvre")) == 1
    plan = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "DatasetPlan")
    manoeuvre = next(n for n in plan.body if isinstance(n, ast.FunctionDef) and n.name == "manoeuvre")
    assert not any(isinstance(node, (ast.If, ast.IfExp)) for node in ast.walk(manoeuvre))
