"""Guard against runtime escape hatches: every environment read in
``src/repro`` must use a key from an explicit allowlist.

A new ``REPRO_*`` switch that picks between two implementations of one
behaviour is exactly what the equivalence suite replaced with the
test-side reference paths (``tests/reference.py``).  The scan is
static: it walks every module's AST, resolves each read's key to a
string — a literal, a module constant (also through ``from … import``),
or a parameter fed constants at every call site in its module — and
fails on a key outside the allowlist or a read it cannot resolve.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Environment variables the package may read, and nothing else.
ALLOWED = frozenset(
    {
        "REPRO_SANITIZE",
        "REPRO_METRICS",
        "REPRO_PROFILE",
    }
)

_UNRESOLVED = "<unresolved>"


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse(src: Path) -> dict[str, tuple[Path, ast.Module]]:
    return {
        _module_name(p, src): (p, ast.parse(p.read_text(), filename=str(p)))
        for p in sorted((src / "repro").rglob("*.py"))
    }


def _constants(modules) -> dict[str, dict[str, str]]:
    """Module-level ``NAME = "literal"`` bindings, then imported ones."""
    consts: dict[str, dict[str, str]] = {}
    for name, (_, tree) in modules.items():
        table = consts[name] = {}
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        table[target.id] = node.value.value
    for name, (_, tree) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in consts:
                for alias in node.names:
                    value = consts[node.module].get(alias.name)
                    if value is not None:
                        consts[name][alias.asname or alias.name] = value
    return consts


def _os_names(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """Local names bound to ``os``, ``os.environ`` and ``os.getenv``."""
    os_names, environ_names, getenv_names = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_names.add(alias.asname or "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name == "environ":
                    environ_names.add(alias.asname or "environ")
                elif alias.name == "getenv":
                    getenv_names.add(alias.asname or "getenv")
    return os_names, environ_names, getenv_names


def _parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    return {
        child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)
    }


def _enclosing_function(node, parents):
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


def _call_site_args(tree: ast.Module, func: ast.FunctionDef, param: str) -> list:
    """The argument passed for ``param`` at every call of ``func`` in
    the module (``None`` where a call leaves it to its default)."""
    names = [a.arg for a in func.args.posonlyargs + func.args.args]
    index = names.index(param)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id != func.name:
                continue
            keyword = next((k.value for k in node.keywords if k.arg == param), None)
            if keyword is not None:
                out.append(keyword)
            elif index < len(node.args):
                out.append(node.args[index])
            else:
                out.append(None)
    return out


def _resolve(expr, node, tree, table, parents) -> list[str]:
    """Every string the key expression can take, ``_UNRESOLVED`` for
    any it cannot pin down."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return [expr.value]
    if isinstance(expr, ast.Name):
        if expr.id in table:
            return [table[expr.id]]
        func = _enclosing_function(node, parents)
        params = (
            [a.arg for a in func.args.posonlyargs + func.args.args] if func else []
        )
        if expr.id in params:
            args = _call_site_args(tree, func, expr.id)
            if args and all(a is not None for a in args):
                keys: list[str] = []
                for arg in args:
                    keys.extend(_resolve(arg, arg, tree, table, parents))
                return keys
    return [_UNRESOLVED]


def environment_reads(src: Path = SRC) -> list[tuple[str, int, str]]:
    """``(module path, line, key)`` for every environment access."""
    modules = _parse(src)
    consts = _constants(modules)
    reads = []
    for name, (path, tree) in modules.items():
        os_names, environ_names, getenv_names = _os_names(tree)
        parents = _parents(tree)
        table = consts[name]
        rel = str(path.relative_to(src))

        def is_environ(expr) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id in environ_names
            return (
                isinstance(expr, ast.Attribute)
                and expr.attr == "environ"
                and isinstance(expr.value, ast.Name)
                and expr.value.id in os_names
            )

        def is_getenv(expr) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id in getenv_names
            return (
                isinstance(expr, ast.Attribute)
                and expr.attr == "getenv"
                and isinstance(expr.value, ast.Name)
                and expr.value.id in os_names
            )

        for node in ast.walk(tree):
            if is_getenv(node):
                call = parents.get(node)
                key = (
                    call.args[0]
                    if isinstance(call, ast.Call) and call.func is node and call.args
                    else None
                )
            elif is_environ(node):
                use = parents.get(node)
                call = parents.get(use)
                if isinstance(use, ast.Subscript) and use.value is node:
                    key = use.slice
                elif (
                    isinstance(use, ast.Attribute)
                    and isinstance(call, ast.Call)
                    and call.func is use
                    and call.args
                ):
                    key = call.args[0]
                elif isinstance(use, ast.Compare) and len(use.comparators) == 1:
                    key = use.left
                else:
                    key = None  # iterated, copied or passed on whole
            else:
                continue
            keys = (
                [_UNRESOLVED]
                if key is None
                else _resolve(key, node, tree, table, parents)
            )
            reads.extend((rel, node.lineno, k) for k in keys)
    return reads


def test_scan_finds_the_known_reads():
    """Not vacuous: the allowlisted toggles are seen where they live."""
    found = {key for _, _, key in environment_reads()}
    assert {"REPRO_SANITIZE", "REPRO_METRICS", "REPRO_PROFILE"} <= found


@pytest.mark.parametrize(
    "source, keys",
    [
        ('import os\nos.environ.get("REPRO_X")\n', ["REPRO_X"]),
        ('import os as o\nK = "REPRO_X"\no.environ[K]\n', ["REPRO_X"]),
        ('from os import getenv\ngetenv("REPRO_X")\n', ["REPRO_X"]),
        ('import os\n"REPRO_X" in os.environ\n', ["REPRO_X"]),
        (
            'import os\ndef f(n):\n    return os.environ.get(n)\nf("REPRO_X")\n',
            ["REPRO_X"],
        ),
        ("import os\ndict(os.environ)\n", [_UNRESOLVED]),
    ],
    ids=["get", "constant-subscript", "getenv", "contains", "parameter", "whole"],
)
def test_scan_resolves_read_forms(tmp_path, source, keys):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "mod.py").write_text(source)
    assert [key for _, _, key in environment_reads(tmp_path)] == keys


def test_no_environment_read_outside_the_allowlist():
    stray = [read for read in environment_reads() if read[2] not in ALLOWED]
    assert not stray, f"environment reads outside the allowlist: {stray}"
