"""One Brownian path marcher, one chunk reducer and one way into an operation.

Every Gaussian path column in the package is drawn by `mc._march`, and every
Philox stream is keyed by `mc._chunks`, so a random stream has one place to
change and one place to pin (tests/test_mc_stream.py).  Every operation runs
through `Operation.execute`, and its parameters are parsed and defaulted by
the registry alone.  These tests read the source with `ast` and fail on a
draw, a stream, a run or a parameter default made anywhere else.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bbmlab"


def _calls(attr):
    """(module, enclosing function) of every call to a name or attribute
    `attr` in the package source."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == attr:
                    found.append((path.stem, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text()), None)
    return found


@pytest.mark.parametrize("attr, home", [
    ("standard_normal", ("mc", "_march")),
    ("Philox", ("mc", "_chunks")),
])
def test_one_site(attr, home):
    sites = _calls(attr)
    assert sites, f"no call to {attr} found"
    assert set(sites) == {home}, f"{attr} called outside {'.'.join(home)}: {sites}"


def test_operations_run_through_execute():
    assert set(_calls("run")) == {("operations", "execute")}


def test_registry_parameters_declared_once():
    """Each `_run_*` (with the module helpers it hands its parameters to)
    reads every parameter its registry entry declares, and only as `a[key]`:
    no lookup with a default and no re-parse of a value."""
    from bbmlab import operations

    text = (SRC / "operations.py").read_text()
    for pattern in ("args.get(", "float(args", "int(args"):
        assert pattern not in text, f"operations.py still has {pattern!r}"
    defs = {node.name: node for node in ast.parse(text).body
            if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        """Keys read from the first parameter of function `name`."""
        if name in seen:
            return set()
        seen.add(name)
        args = defs[name].args.args[0].arg
        passes = lambda n: isinstance(n, ast.Name) and n.id == args
        keys = set()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Subscript) and passes(node.value):
                assert isinstance(node.slice, ast.Constant), f"{name} reads a computed key"
                keys.add(node.slice.value)
            elif isinstance(node, ast.Attribute) and passes(node.value):
                raise AssertionError(f"{name} calls {args}.{node.attr}")
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None)
                assert not (callee in ("float", "int", "bool", "str")
                            and any(isinstance(a, ast.Subscript) and passes(a.value)
                                    for a in node.args)), f"{name} re-parses a value"
                if callee in defs and any(passes(a) for a in node.args):
                    keys |= reads(callee, seen)
        return keys

    for name, op in operations.REGISTRY.items():
        unread = set(op.parameters) - reads(op.run.__name__, set())
        assert not unread, f"{name} declares but never reads {sorted(unread)}"
