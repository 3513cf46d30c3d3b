"""Every function in ``src/d2dgames`` reads each parameter it takes, and the
package uses each private function and class it defines.

A parameter its body never reads is an option that does nothing, yet every
caller still has to pass it. Names starting with ``_`` are exempt. A private
top-level function or class that no package code loads is dead code, even
when a test still calls it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "d2dgames"


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
        f"{path.name}:{line} {function}({param})"
        for path in sorted(SRC.glob("*.py"))
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
