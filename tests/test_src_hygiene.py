"""``src/repro`` holds only what the program runs.

Every top-level function and class defined under ``src/repro`` must be
named from code that is not a test: ``src/repro`` itself, ``perf/``,
``benchmarks/`` or ``examples/``.  A definition only tests reach is an
oracle or a test helper, and belongs in ``tests/``.

A name counts when it appears as an identifier, an attribute, an import
alias or a string constant; the string case covers the entry points
``perf/tracing.py`` patches by name.  A package ``__init__`` re-export
(its ``from ... import`` lines and ``__all__``) does not count, and the
``def``/``class`` statement itself does not name its definition.

An option only one value of which is ever used is a constant: every field
of a config dataclass must be set by that same non-test code, by keyword
or position in a constructor call, or as a string subscript key (the CLI
collects ``FaultPolicy`` arguments in a dict).

The frontend's and the PDG's records are built by the hundred thousand,
so none of them carries a per-instance ``__dict__``.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

from repro.fusion import prepare_pdg
from repro.lang import ast_nodes, ir
from repro.lang.lexer import Token, tokenize
from repro.lang.lowering import lower_module
from repro.lang.parser import parse
from repro.pdg.graph import DataEdge, Vertex

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
NON_TEST_DIRS = ("perf", "benchmarks", "examples")


def _top_level_definitions() -> dict[str, list[str]]:
    definitions: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.setdefault(node.name, []).append(
                    str(path.relative_to(ROOT)))
    return definitions


def _is_reexport(node: ast.stmt) -> bool:
    if isinstance(node, ast.ImportFrom):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _names(tree: ast.Module, package_init: bool) -> set[str]:
    roots = [node for node in tree.body
             if not (package_init and _is_reexport(node))]
    names: set[str] = set()
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                if node.asname is not None:
                    names.add(node.asname)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.add(node.value)
    return names


def _non_test_names() -> set[str]:
    names: set[str] = set()
    for path in PACKAGE.rglob("*.py"):
        names |= _names(ast.parse(path.read_text()),
                        package_init=path.name == "__init__.py")
    for directory in NON_TEST_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            names |= _names(ast.parse(path.read_text()), package_init=False)
    return names


def test_every_src_definition_is_named_from_non_test_code():
    used = _non_test_names()
    test_only = {name: paths
                 for name, paths in _top_level_definitions().items()
                 if name not in used}
    assert not test_only, (
        "top-level definitions in src/repro that only tests name; move "
        "them into tests/ or delete them: "
        + ", ".join(f"{name} ({', '.join(paths)})"
                    for name, paths in sorted(test_only.items())))


#: Config classes the option rule covers besides the ``*Config`` ones.
CONFIG_CLASSES = ("EngineSettings", "FaultPolicy")


def _config_fields() -> dict[str, list[str]]:
    """Field names of every dataclass under ``src/repro`` whose name ends
    in ``Config``, plus :data:`CONFIG_CLASSES`, in declaration order."""
    fields: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or not (
                    node.name.endswith("Config")
                    or node.name in CONFIG_CLASSES):
                continue
            if not any("dataclass" in ast.unparse(decorator)
                       for decorator in node.decorator_list):
                continue
            fields[node.name] = [
                statement.target.id for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)]
    return fields


def _callee_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


def _set_fields(config_fields: dict[str, list[str]]) -> set[tuple[str, str]]:
    """``(class, field)`` pairs that non-test code sets: by keyword or
    position in a constructor call, or as a string subscript key."""
    paths = list(PACKAGE.rglob("*.py"))
    for directory in NON_TEST_DIRS:
        paths.extend((ROOT / directory).rglob("*.py"))
    set_pairs: set[tuple[str, str]] = set()
    subscript_keys: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.slice, ast.Constant) \
                    and isinstance(node.slice.value, str):
                subscript_keys.add(node.slice.value)
            if not isinstance(node, ast.Call):
                continue
            cls = _callee_name(node)
            if cls not in config_fields:
                continue
            positional = [arg for arg in node.args
                          if not isinstance(arg, ast.Starred)]
            for name in config_fields[cls][:len(positional)]:
                set_pairs.add((cls, name))
            for keyword in node.keywords:
                if keyword.arg is not None:
                    set_pairs.add((cls, keyword.arg))
    for cls, names in config_fields.items():
        set_pairs.update((cls, name) for name in names
                         if name in subscript_keys)
    return set_pairs


def test_every_config_field_is_set_from_non_test_code():
    """An option only one value of which is ever used is a constant: every
    config field must be set somewhere outside the tests."""
    config_fields = _config_fields()
    set_pairs = _set_fields(config_fields)
    unset = [f"{cls}.{name}" for cls, names in sorted(config_fields.items())
             for name in names if (cls, name) not in set_pairs]
    assert not unset, (
        "config fields that no non-test code sets; make them module "
        "constants: " + ", ".join(unset))


#: Reaches every AST node class and every IR statement class.
RECORDS_SOURCE = """
extern sink;
fun g(a) { return a; }
fun f(a) {
  x = -a;
  b = !(x < 1) && true;
  p = null;
  while (b) { b = false; }
  if (b) { sink(p); } else { x = g(2); }
  return x;
}
"""


def _ast_records(node, found: list) -> None:
    found.append(node)
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        for child in value if isinstance(value, list) else [value]:
            if dataclasses.is_dataclass(child):
                _ast_records(child, found)


def test_frontend_and_pdg_records_have_no_instance_dict():
    module = parse(RECORDS_SOURCE)
    program = lower_module(module)
    pdg = prepare_pdg(program)
    records: list = []
    _ast_records(module, records)
    ast_classes = {cls for cls in vars(ast_nodes).values()
                   if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    assert {type(record) for record in records} == ast_classes
    stmts = [stmt for function in program.functions.values()
             for stmt in function.statements()]
    assert {type(stmt) for stmt in stmts} == set(ir.Stmt.__subclasses__())
    records += stmts
    records += [op for stmt in stmts for op in stmt.operands()]
    assert {ir.Var, ir.Const} <= {type(record) for record in records}
    records += tokenize(RECORDS_SOURCE)
    records += pdg.vertices
    records += [edge for vertex in pdg.vertices
                for edge in pdg.data_preds(vertex)]
    assert {Token, Vertex, DataEdge} <= {type(record) for record in records}
    with_dict = sorted({type(record).__name__ for record in records
                        if hasattr(record, "__dict__")})
    assert not with_dict, f"records with a __dict__: {with_dict}"
