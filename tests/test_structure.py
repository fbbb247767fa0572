"""One Brownian path marcher, one chunk reducer and one way into an operation.

Every Gaussian path column in the package is drawn by `mc._march`, and every
Philox stream is keyed by `mc._chunks`, so a random stream has one place to
change and one place to pin (tests/test_mc_stream.py).  The acceptance
criteria are timed by `acceptance.run_suite` alone, the one caller that
reports the time.  In `sim` a lineage key is mixed only where a particle is
born, every Brownian increment of the particle ledger is turned into a
normal (`ndtri`) by `_Ledger._move` alone, and replicates run through one
loop that derives their seeds.  A child's lineage id is derived only where
the ledger drains and where the lattice builds a block of a generation:
one way to derive it, and a traced count of `rng.child_id` calls that
counts one call per drain round with splits and one per lattice block.  Every
operation runs through `Operation.execute`, and its parameters are parsed
and defaulted by the registry alone.  `execute` is also the one place that
decides how result files reach disk: a run writes into `<out>.tmp`, which
replaces `<out>` whole on success and is removed on failure, so only it
removes a directory tree.  These tests read the source with `ast`
and fail on a draw, a stream, a key, a replicate seed, a run or a parameter
default made anywhere else.  The finite-difference grid options are exactly
those the registry exposes.  Eigenvectors have one path too: inverse
iteration in `spectral._eigenvector`, whose tridiagonal solver only the
TR-BDF2 stages share; no second LAPACK eigenvector routine is bound.
The package's constants are closed forms, not searches: importing every
module leaves `scipy.integrate`, `scipy.optimize` and `scipy.sparse` out of
the process.
"""

import ast
import subprocess
import sys
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
    ("perf_counter", ("acceptance", "run_suite")),
    ("ndtri", ("sim", "_move")),
    ("rmtree", ("operations", "execute")),
])
def test_one_site(attr, home):
    sites = _calls(attr)
    assert sites, f"no call to {attr} found"
    assert set(sites) == {home}, f"{attr} called outside {'.'.join(home)}: {sites}"


def test_lineage_keys_mixed_at_birth():
    """The ledger's one birth path and the lattice generations are the only
    places in the package that mix a lineage key."""
    assert set(_calls("key")) == {("sim", "_born"), ("sim", "run_discrete")}


def test_lineage_ids_derived_in_two_places():
    assert set(_calls("child_id")) == {("sim", "drain_until"), ("sim", "run_discrete")}


@pytest.mark.parametrize("attr, homes", [
    ("derive_seed", {"_replicates"}),
    ("run_continuous", {"_replicates", "run_coupled"}),
])
def test_one_replicate_loop(attr, homes):
    """Inside `sim`, one loop derives every replicate seed and runs the
    replicates; `run_coupled` runs its members on one seed."""
    sites = {where for module, where in _calls(attr) if module == "sim"}
    assert sites == homes, f"{attr} called in sim outside {sorted(homes)}: {sorted(sites)}"


def test_one_tridiagonal_solver_path():
    assert set(_calls("_solve_tridiagonal")) == {("spectral", "_eigenvector"),
                                                 ("pde", "implicit_solve")}
    named = [path.name for path in sorted(SRC.glob("*.py")) if "dstein" in path.read_text()]
    assert not named, f"dstein named in {named}"


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


def test_pde_grids_are_the_registry_grids():
    """Every `PdeGrids` field is a parameter an operation exposes, with the
    same default, so no grid option can be set by tests alone and a library
    call without grids solves on the CLI's grids."""
    from dataclasses import fields

    from bbmlab import operations
    from bbmlab.pde import PdeGrids

    exposed = {{"cfl": "cfl_pot"}.get(name, name): param.default
               for name, param in operations._GRIDS.items()}
    assert {f.name: f.default for f in fields(PdeGrids)} == exposed


def test_no_quadrature_solver_or_sparse_import():
    """A fresh interpreter that imports every module of the package has
    none of scipy's quadrature, optimization or sparse packages loaded."""
    modules = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    probe = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import bbmlab; "
             + "; ".join(f"import bbmlab.{m}" for m in modules)
             + "; print(' '.join(m for m in ('scipy.integrate', 'scipy.optimize', "
               "'scipy.sparse') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == []
