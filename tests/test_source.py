"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bubbletree"


def unused_parameters(tree: ast.AST) -> list[tuple[str, int, str]]:
    """(function, line, parameter) for every parameter, other than self and
    cls, that the function's body never names."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        named = {
            n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)
        }
        name = getattr(node, "name", "<lambda>")
        found += [
            (name, node.lineno, a.arg)
            for a in params
            if a.arg not in ("self", "cls") and a.arg not in named
        ]
    return found


def test_unused_parameters_reports_only_unread_names():
    tree = ast.parse(
        "def f(self, a, b, *rest, c=1, **kw):\n"
        "    def g():\n"
        "        return a + kw['x']\n"
        "    return g, lambda u, v: u\n"
    )
    assert sorted(unused_parameters(tree)) == [
        ("<lambda>", 4, "v"), ("f", 1, "b"), ("f", 1, "c"), ("f", 1, "rest")
    ]


def test_no_function_in_the_package_has_a_dead_parameter():
    # a parameter nobody reads is a knob that does nothing, and a caller
    # still has to supply it
    dead = [
        f"{path.name}:{line} {func}({param})"
        for path in sorted(SRC.glob("*.py"))
        for func, line, param in unused_parameters(ast.parse(path.read_text("utf-8")))
    ]
    assert dead == []
