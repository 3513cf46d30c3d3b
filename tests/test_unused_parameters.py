"""Every function in ``src/d2dgames`` and ``tools`` reads each parameter it
takes, the package uses each function and class it defines, and each module
of the package and of ``tools`` uses what it imports.

A parameter its body never reads is an option that does nothing, yet every
caller still has to pass it. Names starting with ``_`` are exempt. A private
top-level function or class that no package code loads is dead code, even
when a test still calls it. So is a public one, or a public method, unless
it is one of the few kept on purpose for tests and readers (``_KEPT``).
An import its module never loads is a dead dependency; a name the module
lists in ``__all__`` is exported, so it counts as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "d2dgames"
# the package and the scripts beside it; the definition scans read the package only
SOURCES = sorted(SRC.glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def _unread_parameters(tree: ast.AST) -> list[tuple[int, str, str]]:
    """``(line, function, parameter)`` for each parameter its function never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            name.id
            for stmt in body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        for param in params:
            if param is not None and not param.arg.startswith("_") and param.arg not in read:
                found.append((node.lineno, getattr(node, "name", "<lambda>"), param.arg))
    return found


def test_scanner_finds_unread_parameters():
    source = (
        "def f(a, b, _c, *args, d, **kw):\n"
        "    def g(x):\n"
        "        return a\n"
        "    return lambda y: d\n"
    )
    assert _unread_parameters(ast.parse(source)) == [
        (1, "f", "b"),
        (1, "f", "args"),
        (1, "f", "kw"),
        (2, "g", "x"),
        (4, "<lambda>", "y"),
    ]


def test_every_parameter_is_read():
    unread = [
        f"{path.relative_to(ROOT)}:{line} {function}({param})"
        for path in SOURCES
        for line, function, param in _unread_parameters(ast.parse(path.read_text("utf-8")))
    ]
    assert not unread, unread


def _unloaded_private_definitions(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """``(module, line, name)`` of each private top-level function or class that
    no code in ``trees`` loads, by name or as an attribute, outside its own definition."""
    loads = [
        (top, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = top.name
            if not name.startswith("_") or name.endswith("__"):
                continue
            if not any(loaded == name and where is not top for where, loaded in loads):
                found.append((module, top.lineno, name))
    return found


def test_scanner_finds_unloaded_private_definitions():
    trees = {
        "a": ast.parse(
            "def _used():\n    pass\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Dead:\n    pass\n"
            "def __getattr__(name):\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "b": ast.parse("import a\ndef _via_attribute():\n    pass\nx = a._via_attribute\n"),
    }
    assert _unloaded_private_definitions(trees) == [("a", 3, "_recursive"), ("a", 5, "_Dead")]
    trees["a"].body.append(ast.parse("y = _Dead").body[0])
    assert _unloaded_private_definitions(trees) == [("a", 3, "_recursive")]


def test_every_private_definition_is_used():
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(SRC.glob("*.py"))}
    unloaded = [
        f"{module}:{line} {name}" for module, line, name in _unloaded_private_definitions(trees)
    ]
    assert not unloaded, unloaded


# Public definitions that no package code loads, each kept on purpose.
_KEPT = {
    "auction.py bidder_demand": "the public single-bidder demand query",
    "coalition.py merge_split": "a paper mechanism beside the switch rule",
    "oracle.py grid_equilibrium": "the oracle's own bilevel grid search",
    "radio.py GainTensor.from_entries": "the test fixture that builds a tensor by link",
    "stackelberg.py choose_channel": "a paper mechanism: the follower's channel choice",
}


def _unloaded_public_definitions(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """``(module, line, name)`` of each public top-level function or class, and
    each public method (as ``Class.method``), whose name no code in ``trees``
    loads, by name or as an attribute."""
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (*functions, ast.ClassDef)):
                continue
            defined = [(top, top.name)]
            if isinstance(top, ast.ClassDef):
                methods = [f for f in top.body if isinstance(f, functions)]
                defined += [(f, f"{top.name}.{f.name}") for f in methods]
            for node, name in defined:
                if not node.name.startswith("_") and node.name not in loaded:
                    found.append((module, node.lineno, name))
    return found


def test_scanner_finds_unloaded_public_definitions():
    trees = {
        "a": ast.parse(
            "def used():\n    pass\n"
            "def dead():\n    pass\n"
            "class Box:\n"
            "    def read(self):\n        return used()\n"
            "    def unread(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
        ),
        "b": ast.parse("import a\nx = a.Box().read\n"),
    }
    assert _unloaded_public_definitions(trees) == [("a", 3, "dead"), ("a", 8, "Box.unread")]


def test_every_public_definition_is_used():
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(SRC.glob("*.py"))}
    unloaded = {f"{module} {name}" for module, _, name in _unloaded_public_definitions(trees)}
    # a keeper that is gone, or that package code now loads, leaves _KEPT too
    assert unloaded == set(_KEPT), sorted(unloaded ^ set(_KEPT))


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of each name the module imports but never loads and
    does not list in ``__all__``; ``from __future__`` imports are exempt."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append((node.lineno, name))
    return found


def test_scanner_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as js\n"
        "from math import log2, pi\n"
        "from typing import Any\n"
        "__all__ = ['pi']\n"
        "def f(x: Any):\n"
        "    return log2(x)\n"
    )
    assert _unused_imports(ast.parse(source)) == [(2, "os"), (3, "os"), (4, "js")]


def test_every_import_is_used():
    unused = [
        f"{path.relative_to(ROOT)} {name}"
        for path in SOURCES
        for _, name in _unused_imports(ast.parse(path.read_text("utf-8")))
    ]
    assert not unused, unused
