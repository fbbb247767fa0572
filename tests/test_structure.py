"""One Brownian path marcher and one chunk reducer.

Every Gaussian path column in the package is drawn by `mc._march`, and every
Philox stream is keyed by `mc._chunks`, so a random stream has one place to
change and one place to pin (tests/test_mc_stream.py).  These tests read the
source with `ast` and fail on a draw or a stream made anywhere else.
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
