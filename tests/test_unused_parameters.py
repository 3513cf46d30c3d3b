"""Every function in ``src/d2dgames`` reads each parameter it takes.

A parameter its body never reads is an option that does nothing, yet every
caller still has to pass it. Names starting with ``_`` are exempt.
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
