"""Checks on the package source itself."""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path
from typing import Mapping

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bubbletree"
BENCH = ROOT / "bench"

# tokens that carry no code of their own
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of lines holding code: blank lines, comment-only lines and the
    lines of module, class and function docstrings do not count."""
    doc_rows = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)
        ):
            doc_rows.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in doc_rows):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


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


def _own_scope(func: ast.AST):
    """The nodes of func's body that run in its own scope: nested functions,
    lambdas and classes are yielded but not entered."""
    stack = [*func.body]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree: ast.AST) -> list[tuple[str, int, str]]:
    """(function, line, name) for every local variable other than _ that its
    function assigns and never reads.  A read anywhere in the function, nested
    functions included, counts; names declared global or nonlocal are not
    locals of the function that declares them."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_scope(node))
        shared = {
            name for n in own if isinstance(n, (ast.Global, ast.Nonlocal))
            for name in n.names
        }
        read = {
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        first_store: dict[str, int] = {}
        for n in own:
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                first_store[n.id] = min(first_store.get(n.id, n.lineno), n.lineno)
        found += [
            (node.name, line, name)
            for name, line in first_store.items()
            if name != "_" and name not in shared | read
        ]
    return sorted(found, key=lambda f: (f[1], f[2]))


def import_faults(module: ast.Module) -> list[tuple[int, str]]:
    """(line, fault) for every import inside a function, and for every name
    an import binds that the module never reads.  An import from __future__
    binds no name to read."""
    read = {
        n.id for n in ast.walk(module) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    imports = (ast.Import, ast.ImportFrom)
    found = []
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                (n.lineno, f"import inside {node.name}")
                for n in _own_scope(node)
                if isinstance(n, imports)
            ]
        if isinstance(node, imports) and getattr(node, "module", None) != "__future__":
            bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            found += [
                (node.lineno, f"{name} is imported and never read")
                for name in bound
                if name not in read
            ]
    return sorted(found)


def names_read(node: ast.AST) -> Counter:
    """How often each identifier is read below node, as a name or as an
    attribute."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    )


def public_names(module: ast.Module) -> dict[str, ast.stmt]:
    """Top-level functions, classes and assigned names not starting with _,
    and as Class.name the methods and properties not starting with _ of
    every top-level class (dunders are exempt), each with the statement
    that defines it."""
    found = {}
    for stmt in module.body:
        if isinstance(stmt, ast.ClassDef):
            found.update(
                (f"{stmt.name}.{member.name}", member)
                for member in stmt.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not member.name.startswith("_")
            )
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        found.update((name, stmt) for name in names if not name.startswith("_"))
    return found


def unreferenced_names(modules: dict[str, str], readers: list[str]) -> dict[str, list[str]]:
    """Per module, the public names (public_names) that nothing in the
    modules or the readers reads outside the name's own definition.  Names
    are matched by identifier alone, so an attribute of the same name
    counts as a read, of a member of any class too."""
    parsed = {name: ast.parse(source) for name, source in modules.items()}
    read = sum((names_read(t) for t in [*parsed.values(), *map(ast.parse, readers)]), Counter())

    def unread(key: str, stmt: ast.stmt) -> bool:
        ident = key.rpartition(".")[2]
        return read[ident] == names_read(stmt)[ident]

    return {
        name: sorted(key for key, stmt in public_names(t).items() if unread(key, stmt))
        for name, t in parsed.items()
    }


def unread_private(modules: dict[str, str]) -> list[str]:
    """module.name for every top-level function or class whose name starts
    with _ that nothing in the modules reads outside its own definition.
    Names are matched by identifier alone, as in unreferenced_names; an
    import alone is no read."""
    parsed = {Path(name).stem: ast.parse(source) for name, source in modules.items()}
    read = sum(map(names_read, parsed.values()), Counter())
    return sorted(
        f"{name}.{stmt.name}"
        for name, module in parsed.items()
        for stmt in module.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and read[stmt.name] == names_read(stmt)[stmt.name]
    )


# The public names that nothing in src/ or bench/ reads, each with its role
# in the paper (constructions that only the tests exercise), or the library
# that calls an override.  Any other such name is a wrapper nobody needs and
# fails the rule below.
UNREAD_PUBLIC = {
    "bubbles.reduce_at": "one reduction step: rescale a cluster to a standard configuration",
    "bubbles.select_bubble_points": "the bubble points a concentration profile selects",
    "cli._Parser.error": "argparse calls it on a malformed command line, which exits 3",
    "curves.neck_area_factor": "the flat area form |gamma| (e^2s + e^-2s) on a neck cylinder",
    "curves.neck_path": "the certified short path across a neck",
    "curves.round_flat_area_ratio": "the round-to-flat area ratio, within [1, 4] on the disc",
    "curves.stabilize_four_marked": "the four-point invariant of a stabilized nodal fiber",
    "nets.mapspace_distance": "the metric in which the map-space cover's cells are small",
    "trees.edge_counts": "the stability chain |E_int| + 1 = |V| <= sum(deg)/3 <= |E_ext| - 2",
    "trees.reglue": "the inverse of split, rejoining pieces along their cut edges",
}


def surface_faults(modules: dict[str, str], readers: list[str], allowed: Mapping) -> list[str]:
    """The breaches of the rule that every public name has a reader: a name
    that nothing reads and allowed does not list, and an entry of allowed,
    keyed module.name, that names no unread public name (the name is gone,
    or something reads it now)."""
    unread = {
        f"{Path(module).stem}.{name}"
        for module, names in unreferenced_names(modules, readers).items()
        for name in names
    }
    return sorted(
        [f"{name} is public and nothing reads it" for name in unread - allowed.keys()]
        + [f"stale allowlist entry {name}" for name in allowed.keys() - unread]
    )


# The functions allowed to call a trusted constructor (a method named
# _certified, which skips the checks of the public one), each with what it
# builds.  Each states its proof in a "Certificate:" paragraph of its
# docstring, and the tests run the public check on what it builds.
CERTIFIED_CALLERS = {
    "bubbles.reduce": "the FiniteMetricSpace of a standard configuration's moduli matrix",
    "curves.FiberBatch.__getitem__": "the FiberPoint of a batch row, normalized when built",
    "curves._complete": "the FiberPoint of coordinates that _normal built, each once",
    "nets.FiniteMetricSpace.from_sphere": "the metric space of sphere points under the kernel's distances",
    "nets._normal": "the ProjPoint of a normalized pair of complex slots",
    "nets.greedy_net": "the Net that the farthest-point traversal stops at",
    "nets.minimal_net": "the Net whose balls the exact search found to cover",
    "trees._shape_to_tree": "the RootedTree whose boundary a shape's numbering makes valid",
}


def certified_callers(module: ast.Module) -> dict[str, ast.AST]:
    """The functions of a module that call a trusted constructor, an
    attribute named _certified, by dotted name (Class.method, outer.inner,
    or <module> for a call outside any function), each with its definition."""
    found = {}

    def visit(node: ast.AST, name: str, owner: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name, child)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "_certified"
            ):
                found.setdefault(name or "<module>", owner)
            visit(child, name, owner)

    visit(module, "", module)
    return found


def certificate_faults(modules: dict[str, str], allowed: Mapping) -> list[str]:
    """The breaches of the rule that only the functions allowed lists, keyed
    module.function, call a trusted constructor, and that each states its
    proof: a call from any other function, an allowed caller whose
    docstring has no "Certificate:", and an entry that calls none."""
    callers = {
        f"{Path(module).stem}.{name}": node
        for module, source in modules.items()
        for name, node in certified_callers(ast.parse(source)).items()
    }
    unproved = [
        name for name in callers.keys() & allowed.keys()
        if "Certificate:" not in (ast.get_docstring(callers[name]) or "")
    ]
    return sorted(
        [f"{name} calls a trusted constructor unlisted" for name in callers.keys() - allowed.keys()]
        + [f"{name} states no Certificate: in its docstring" for name in unproved]
        + [f"stale allowlist entry {name}" for name in allowed.keys() - callers.keys()]
    )


def test_code_lines_skips_blanks_comments_and_docstrings():
    sample = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "X = '''a string\n"
        "that is code'''  # trailing comment\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "    def f(self, a,\n"
        "          b):\n"
        '        """Function docstring."""\n'
        "        # inside\n"
        "        return (a +\n"
        "\n"
        "                b)\n"
    )
    # the two lines of X, class, the two lines of def, and return's two lines
    assert code_lines(sample) == 7


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


def test_unreferenced_names_skips_reads_inside_the_definition():
    modules = {
        "a.py": (
            "X = 1\n_Y = 2\nZ: int = 3\n"
            "def f(n):\n    return f(n - 1)\n"
            "def g():\n    return X\n"
            "class C:\n    pass\n"
        ),
        "b.py": "from a import C\nc = C\n",
    }
    assert unreferenced_names(modules, ["import a\na.g()\n"]) == {
        "a.py": ["Z", "f"],
        "b.py": ["c"],
    }


def test_unreferenced_names_takes_methods_and_properties_of_every_class():
    modules = {
        "a.py": (
            "class C:\n"
            "    def __len__(self):\n        return 0\n"
            "    def _hidden(self):\n        return 1\n"
            "    def used(self):\n        return self.used\n"
            "    @property\n    def size(self):\n        return self.kept()\n"
            "    @classmethod\n    def kept(cls):\n        return cls\n"
            "class _D:\n"
            "    def hook(self):\n        pass\n"
        ),
    }
    # dunders and private members are exempt, a read inside the member's
    # own definition does not count, and a private class's members count
    assert unreferenced_names(modules, ["a.C().used()\n"]) == {
        "a.py": ["C.size", "_D.hook"],
    }


def test_surface_rule_on_a_synthetic_package():
    modules = {
        "a.py": "def used():\n    pass\ndef listed():\n    pass\ndef unlisted():\n    pass\n",
        "b.py": "from a import used\nused()\n",
    }
    listed = {"a.listed": "role"}
    # an unlisted, unread name fails; a listed one passes
    assert surface_faults(modules, [], listed) == ["a.unlisted is public and nothing reads it"]
    full = {**listed, "a.unlisted": "role"}
    assert surface_faults(modules, [], full) == []
    # a stale entry fails, whether its name is missing or now read
    assert surface_faults(modules, [], {**full, "a.gone": "role"}) == [
        "stale allowlist entry a.gone"
    ]
    assert surface_faults(modules, ["from a import listed\nlisted()\n"], full) == [
        "stale allowlist entry a.listed"
    ]


def test_every_unread_public_name_has_a_role_in_the_paper():
    # a public wrapper that nothing uses is surface to learn and keep for no one
    modules = {path.name: path.read_text("utf-8") for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text("utf-8") for path in sorted(BENCH.glob("*.py"))]
    assert surface_faults(modules, readers, UNREAD_PUBLIC) == []


def test_private_rule_on_a_synthetic_package():
    modules = {
        "a.py": (
            "def _helper(n):\n    return _helper(n - 1)\n"
            "def _used():\n    pass\n"
            "class _Kept:\n    pass\n"
            "class _Left:\n    def method(self):\n        return _Left\n"
            "def public():\n    def _nested():\n        pass\n    return _used()\n"
            "_CONSTANT = 1\n"
        ),
        "b.py": "from a import _Kept, _helper\nx = _Kept\n",
    }
    # a read inside the definition, or an import alone, is no read; nested
    # definitions and private constants are not checked
    assert unread_private(modules) == ["a._Left", "a._helper"]


def test_every_private_helper_has_a_reader_in_the_package():
    # a private helper that only the tests call is code kept for no user;
    # the tests do not count as readers, and there is no allowlist
    modules = {path.name: path.read_text("utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_private(modules) == []


def test_certificate_rule_on_a_synthetic_package():
    modules = {
        "a.py": (
            "def proved():\n"
            '    """Builds one.\n\n    Certificate: by construction."""\n'
            "    return C._certified()\n"
            "def unproved():\n"
            '    """Builds one."""\n'
            "    return [C._certified() for _ in range(2)]\n"
            "def checked():\n"
            '    """Certificate: nothing to skip."""\n'
            "    return C()\n"
            "class K:\n"
            "    def make(self):\n"
            "        def inner():\n"
            "            return C._certified()\n"
            "        return inner\n"
        ),
        "b.py": "x = C._certified()\n",
    }
    allowed = {"a.proved": "role", "a.unproved": "role"}
    # an unlisted caller fails, nested or at top level; a listed caller
    # fails without its proof
    assert certificate_faults(modules, allowed) == [
        "a.K.make.inner calls a trusted constructor unlisted",
        "a.unproved states no Certificate: in its docstring",
        "b.<module> calls a trusted constructor unlisted",
    ]
    # listing a caller is not enough without its proof, and an entry whose
    # function calls no trusted constructor is stale
    full = {**allowed, "a.K.make.inner": "role", "b.<module>": "role"}
    assert certificate_faults(modules, {**full, "a.checked": "role"}) == [
        "a.K.make.inner states no Certificate: in its docstring",
        "a.unproved states no Certificate: in its docstring",
        "b.<module> states no Certificate: in its docstring",
        "stale allowlist entry a.checked",
    ]


def test_only_listed_callers_take_a_trusted_path_and_each_states_its_proof():
    # a trusted path skips checks, so each use must be one whose proof is
    # written down where a reader of the caller sees it
    modules = {path.name: path.read_text("utf-8") for path in sorted(SRC.glob("*.py"))}
    modules.update((path.name, path.read_text("utf-8")) for path in sorted(BENCH.glob("*.py")))
    assert certificate_faults(modules, CERTIFIED_CALLERS) == []


def test_unread_locals_reports_only_dead_assignments():
    tree = ast.parse(
        "def f(xs):\n"
        "    dead, kept = 1, 2\n"
        "    _ = 3\n"
        "    total = 0\n"
        "    seen = []\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = total + kept\n"
        "        inner = 4\n"
        "        return seen\n"
        "    for x in xs:\n"
        "        pass\n"
        "    return g\n"
    )
    assert unread_locals(tree) == [("f", 2, "dead"), ("g", 9, "inner"), ("f", 11, "x")]


def test_import_faults_on_a_synthetic_module():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: Mapping):\n"
        "    from json import dumps\n"
        "    def g():\n"
        "        import re\n"
        "        return re, os\n"
        "    return dumps(x), g\n"
    )
    # a name read only in an annotation or in a nested function counts
    assert import_faults(tree) == [
        (3, "np is imported and never read"),
        (4, "Sequence is imported and never read"),
        (6, "import inside f"),
        (8, "import inside g"),
    ]


def test_no_module_in_the_package_imports_in_a_function_or_imports_a_name_it_never_reads():
    # an import inside a function hides a cycle between modules, and a name
    # imported and never read is a dependency for nothing
    faults = [
        f"{path.name}:{line} {fault}"
        for path in sorted(SRC.glob("*.py"))
        for line, fault in import_faults(ast.parse(path.read_text("utf-8")))
    ]
    assert faults == []


def test_no_function_in_the_package_assigns_a_local_it_never_reads():
    # a value computed and dropped is work, and a reader's time, for nothing
    dead = [
        f"{path.name}:{line} {func}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for func, line, name in unread_locals(ast.parse(path.read_text("utf-8")))
    ]
    assert dead == []


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text("utf-8"))
        total += count
        print(f"{path.name:14} {count:5}")
    print(f"{'total':14} {total:5}")
