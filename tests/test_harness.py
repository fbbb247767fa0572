import csv
import dataclasses
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path
from unittest.mock import ANY

import pytest

from bbmlab import operations, spectral
from bbmlab.cli import main
from bbmlab.errors import ConfigurationError
from bbmlab.harness import report, run_experiment, spec_from_config
from bbmlab.pde import PiecewiseQ

CFG = """
[experiment]
name = demo
operation = spectrum
seed = 1
replicates = 1

[params]
n_max = 2

[ladder]
alpha = 0.9,1.1
"""


class TestSpec:
    def test_parse(self):
        spec = spec_from_config(CFG)
        assert spec.operation == "spectrum"
        assert spec.ladders == {"alpha": [0.9, 1.1]}
        assert len(spec.cells()) == 2

    def test_unknown_operation(self):
        with pytest.raises(ConfigurationError):
            spec_from_config(CFG.replace("spectrum", "frobnicate"))

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            spec_from_config(CFG.replace("n_max", "wings"))

    def test_invalid_ladder_value_rejected_before_running(self):
        with pytest.raises(ConfigurationError):
            spec_from_config(CFG.replace("0.9,1.1", "-1.0,1.1"))

    def test_hash_stable(self):
        a, b = spec_from_config(CFG), spec_from_config(CFG)
        assert a.spec_hash() == b.spec_hash()


class TestRun:
    def test_run_and_report(self, tmp_path):
        spec = spec_from_config(CFG)
        rec = run_experiment(spec, root=tmp_path)
        assert rec.status == "complete"
        assert len(rec.digests) == 4  # 2 cells x (csv + json)
        text, code = report(tmp_path)
        assert code == 0 and "ok" in text

    def test_idempotent_rerun(self, tmp_path):
        spec = spec_from_config(CFG)
        rec1 = run_experiment(spec, root=tmp_path)
        mtimes = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.csv")}
        rec2 = run_experiment(spec, root=tmp_path)
        assert rec1.digests == rec2.digests
        assert mtimes == {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.csv")}

    def test_tamper_flagged(self, tmp_path):
        spec = spec_from_config(CFG)
        run_experiment(spec, root=tmp_path)
        victim = next(tmp_path.rglob("*.csv"))
        victim.write_text("tampered\n")
        text, code = report(tmp_path)
        assert code == 1 and "DIGEST-MISMATCH" in text

    def test_empty_dir_report(self, tmp_path):
        text, code = report(tmp_path)
        assert code == 1 and "no experiments" in text


def _exits_in_one_line(argv, out, code):
    """Run `bbmlab argv` in a child process under a 3 GiB address-space
    limit, which keeps a grid that is allocated anyway from reaching the
    machine, and check its exit code, its one-line message and that it
    left nothing under `out`."""
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (3 * 2 ** 30, 3 * 2 ** 30))
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "bbmlab.cli", *argv.split(),
                           "--out", str(out)], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    prefix = {1: "validation error: ", 2: "numerical failure: "}[code]
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert not any(out.iterdir())
    return lines[0]


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["mass", "--s", "4", "--t-end", "8", "--alpha", "1",
                     "--n", "500", "--step", "0.1",
                     "--out", str(tmp_path)]) == 1  # missing seed
        assert main(["spectrum", "--alpha", "2.0", "--n-max", "2",
                     "--out", str(tmp_path)]) == 0

    def test_numerical_failure_exit(self, tmp_path, capsys):
        # T too close to 1 for the step budget
        code = main(["pde", "--xi", "0", "--t-end", "0.999999", "--rho", "50000",
                     "--alpha", "1.0", "--dx", "0.05", "--out", str(tmp_path)])
        assert code == 2

    def test_step_budget_refused_before_the_walk(self, tmp_path, monkeypatch):
        # the step-count bound exceeds the budget, so q is never evaluated
        calls = []
        value = PiecewiseQ.value
        monkeypatch.setattr(PiecewiseQ, "value", lambda q, t: calls.append(t) or value(q, t))
        code = main(["pde", "--alpha", "2", "--t-end", "0.99", "--rho", "500",
                     "--out", str(tmp_path)])
        assert code == 2 and calls == []

    @pytest.mark.parametrize("argv", [
        "mass --s 16 --t-end 64 --alpha 1 --beta 1 --n 1000 --step 1e-9 --seed 7",
        "gtilde --s 4 --t-end 16 --y 0.5 --alpha 1 --n 1000 --step 1e-9 --seed 7",
        "alpha2 --beta 1 --s-list 2,4 --t-end 512 --n 1000 --step 1e-12 --seed 7",
        "mass --s 16 --t-end 64 --alpha 1 --beta 1 --n 1000 --step 5e-324 --seed 7",
    ], ids=["mass", "gtilde", "alpha2", "mass_subnormal_step"])
    def test_path_grid_over_budget_exit(self, tmp_path, argv):
        # a tiny step asks for a path grid of hundreds of GiB, or for an
        # interval count that overflows to infinity: refused with one line
        # before anything is allocated
        _exits_in_one_line(argv, tmp_path, 2)

    @pytest.mark.parametrize("argv, code", [
        ("pde --t-end 0.5 --rho 1 --alpha 1 --dx 100", 1),
        ("kernel-g --s 4 --t-end 16 --alpha 1 --dx 100", 1),
        ("pde --t-end 0.5 --rho 1 --alpha 1 --x-max 1e6", 2),
        ("spectrum --alpha 1 --n-max 1 --q 1e-300", 2),
    ], ids=["pde-one-node", "kernel_g-one-node", "pde-2.56e8-nodes", "spectrum-q-1e-300"])
    def test_solver_grid_out_of_range_exit(self, tmp_path, argv, code):
        # a finite-difference grid of one node, or one far over the node or
        # point budget of its solver, is refused with one line before the
        # grid is allocated
        _exits_in_one_line(argv, tmp_path, code)

    @pytest.mark.parametrize("argv", [
        "spectrum --alpha 1e-3 --n-max 1",
        "weyl --alpha 1e-9",
        "galerkin --alpha 0.001",
        "simulate --alpha 1e-3 --t-end 2 --seed 1",
        "porism --alpha 1e-3 --t-list 2 --replicates 1 --seed 1",
        "pde --t-end 0.9 --rho 1 --alpha 1000",
        "kernel-g --s 0.5 --t-end 16 --alpha 300",
        "barriers --t-end 0.5 --eps1 0.05 --eps2 0.05 --alpha 5000",
        "gtilde --s 1 --t-end 2 --y 1e300 --n 100 --step 0.01 --seed 1",
    ], ids=["spectrum", "weyl", "galerkin", "simulate", "porism", "pde", "kernel_g",
            "barriers", "gtilde"])
    def test_overflow_exit(self, tmp_path, argv):
        # a Python float's ** or math.exp raises OverflowError where numpy
        # would saturate: the Weyl estimate's turning point (2 lambda)^(1/alpha)
        # for tiny alpha, int (1-t)^-alpha for huge alpha, the Gaussian
        # prefactor far out.  Each is a numerical failure in one line
        assert "a value overflowed" in _exits_in_one_line(argv, tmp_path, 2)

    @pytest.mark.parametrize("argv", [
        "spectrum --alpha 300 --n-max 2",
        "porism --alpha 1e9 --t-list 2 --replicates 1 --seed 1",
    ], ids=["spectrum", "porism"])
    def test_overflowing_potential_exit(self, tmp_path, argv):
        # |x|^alpha passes the double range at x_max = 30: numpy's warning
        # was a second line before LAPACK's failure
        line = _exits_in_one_line(argv, tmp_path, 2)
        assert "alpha = " in line and "x_max = 30" in line

    @pytest.mark.parametrize("argv", [
        "spectrum --alpha",
        "nosuch",
        "",
        "couple --alphas -1,1 --t-end 2 --seed 1",
    ], ids=["flag-without-value", "unknown-command", "no-command", "negative-list"])
    def test_usage_error_exit(self, tmp_path, argv):
        # argparse printed its usage and exited 2, the numerical-failure code
        _exits_in_one_line(argv, tmp_path, 1)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["mass", "-h"])
        assert done.value.code == 0 and "--seed" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        "pde --t-end 0.5 --rho 1 --alpha 1 --xi nan",
        "kernel-g --s 4 --t-end 16 --alpha 1 --x nan",
        "kernel-g --s 4 --t-end 16 --alpha 1 --y inf",
        "mass --s 4 --t-end 8 --n 100 --step 0.1 --seed 1 --x nan",
        "gtilde --s 4 --t-end 8 --n 100 --step 0.1 --seed 1 --x inf",
        "gtilde --s 4 --t-end 8 --n 100 --step 0.1 --seed 1 --y nan",
        "mto1 --alpha 1 --t-end 1 --functional x_indicator --x0 nan --n-sim 2 --n-mc 10 --seed 1",
        "mto2 --alpha 1 --t-end 1 --g-functional r_indicator --g-r0 nan --n-sim 2 --n-mc 10 "
        "--seed 1",
    ], ids=["pde-xi", "kernel_g-x", "kernel_g-y", "mass-x", "gtilde-x", "gtilde-y", "mto1-x0",
            "mto2-r0"])
    def test_non_finite_coordinate_exit(self, tmp_path, argv):
        # NaN went through: "value": NaN is not JSON, and an r_indicator at
        # r0 = nan read z = 0 from two empty sides
        assert "expected a finite number" in _exits_in_one_line(argv, tmp_path, 1)

    def test_time_axis_shorter_than_its_tolerance(self, tmp_path):
        # the walk planned no step for T <= 1e-15 (a zero-size array)
        assert main(["pde", "--t-end", "1e-300", "--rho", "1", "--alpha", "1",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "pde" / "field.json") as fh:
            assert json.load(fh)["diagnostics"]["steps"] == 1

    def test_subnormal_cfl_exit(self, tmp_path):
        # cfl / rho underflowed to 0 and _min_steps divided by it
        _exits_in_one_line("pde --t-end 0.5 --rho 5 --alpha 1 --cfl 5e-324", tmp_path, 2)

    def test_truncated_couple_exit(self, tmp_path):
        # the alpha = 4 member stops at t = 7 with 564 particles, so the chain
        # fails at the snapshot t = 8 that only the others reach
        line = _exits_in_one_line("couple --alphas 0.5,1,2,4 --t-end 8 --snapshots 4,8 "
                                  "--seed 7 --cap 1000", tmp_path, 2)
        assert line.endswith("inclusion chain at t = 8.0; "
                             "member 4.0 truncated at t = 7.0 with 564 particles (cap 1000)")

    def test_theta1_next_to_alpha_two(self, tmp_path):
        # theta1 ~ 1e6 at alpha = 1.999999: the run is exact and Z_t's factor
        # e^{theta1 t^{1-kappa}} is past the double range, written as inf
        assert main(["simulate", "--alpha", "1.999999", "--t-end", "1", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "simulate" / "stats.csv") as fh:
            assert [float(row["Z_t"]) for row in csv.DictReader(fh)] == [math.inf]

    def test_cli_covers_every_operation(self):
        import argparse

        from bbmlab import cli

        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers(dest="command")
        cli._add_operation_parsers(sub)
        covered = set(sub.choices)
        assert covered == set(operations.REGISTRY)

    def test_registry_covers_spec_surface(self):
        expected = {"spectrum", "weyl", "pde", "barriers", "galerkin", "kernel-g",
                    "mass", "gtilde", "alpha2", "simulate", "couple", "discrete",
                    "mto1", "mto2", "porism"}
        assert expected.issubset(set(operations.REGISTRY))

    def test_stochastic_outputs_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--alpha", "1.0", "--t-end", "3",
                         "--snapshots", "1.5,3", "--seed", "9",
                         "--out", str(out)]) == 0
        f1 = (out1 / "simulate" / "snapshots.csv").read_bytes()
        f2 = (out2 / "simulate" / "snapshots.csv").read_bytes()
        assert f1 == f2

    def test_porism_cap_truncates(self, tmp_path):
        # a cap of one particle stops a replicate at its first split, which
        # at rate 1 comes before t = 8 in all but e^-8 of them
        argv = ["porism", "--family", "Homogeneous", "--t-list", "4,8", "--replicates", "5",
                "--seed", "9"]
        for cap, out in (("1", tmp_path / "cap"), ("2000000", tmp_path / "free")):
            assert main(argv + ["--cap", cap, "--out", str(out)]) == 0
        capped = json.loads((tmp_path / "cap" / "porism" / "porism.json").read_text())
        free = json.loads((tmp_path / "free" / "porism" / "porism.json").read_text())
        assert capped["truncated"] == 5 and capped["rows"] == {}
        assert free["truncated"] == 0 and len(free["rows"]) == 2

    def test_alpha_2_has_no_theta1(self, tmp_path):
        # kappa = 1 at alpha = 2: Z_t and the centering are left out, as for
        # the homogeneous family, instead of an inf - inf that passes silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--alpha", "2", "--t-end", "5", "--snapshots", "2.5,5",
                         "--seed", "9", "--out", str(tmp_path)]) == 0
            assert main(["porism", "--alpha", "2", "--t-list", "2,3", "--replicates", "3",
                         "--seed", "9", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "simulate" / "stats.csv") as fh:
            z_t = [float(row["Z_t"]) for row in csv.DictReader(fh)]
        assert len(z_t) == 2 and all(math.isnan(z) for z in z_t)
        rows = json.loads((tmp_path / "porism" / "porism.json").read_text())["rows"]
        assert len(rows) == 2 and not any("centered_median" in r for r in rows.values())


def _accepts(check, value):
    try:
        check(value)
    except ValueError:  # ConfigurationError included
        return False
    return True


ZERO_REJECTED = [(name, key) for name, op in operations.REGISTRY.items()
                 for key, param in op.parameters.items() if not _accepts(param.parse, 0)]


class TestBoundary:
    """Every bad input exits with code 1 and a one-line message, never a traceback."""

    def _fails(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("validation error") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("name,key", ZERO_REJECTED)
    def test_zero_rejected(self, name, key, tmp_path, capsys):
        op = operations.REGISTRY[name]
        argv = [name, "--out", str(tmp_path), f"--{key.replace('_', '-')}", "0"]
        for other, param in op.parameters.items():
            if other != key and _accepts(param.parse, 1):
                argv += [f"--{other.replace('_', '-')}", "1"]
        assert f"{key}:" in self._fails(argv, capsys)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["mass", "--seed", "1"],
        ["mass", "--s", "4", "--t-end", "8", "--seed", str(2 ** 64)],
        ["mass", "--s", "1", "--t-end", "inf", "--seed", "1"],
        ["simulate", "--t-end", "1", "--seed", "1", "--family", "Foo"],
        ["couple", "--t-end", "1", "--seed", "1", "--alphas", "a,b"],
        ["accept", "--only", "x"],
        ["accept", "--only", "99"],
        ["accept", "--only", "0,3"],
        ["accept", "--only", ""],
        ["mto1", "--alpha", "1", "--t-end", "1", "--functional", "x_cylinder", "--n-sim", "5",
         "--n-mc", "200", "--seed", "1"],
        ["mto2", "--t-end", "1", "--f-functional", "weird", "--seed", "1"],
        ["mass", "--s", "1", "--t-end", "2", "--family", "SinPow", "--seed", "1"],
    ], ids=["missing-s", "seed-2**64", "t_end-inf", "family-Foo", "alphas-a,b", "only-x",
            "only-99", "only-0,3", "only-empty", "functional-x_cylinder",
            "f_functional-weird", "mass-family"])
    def test_bad_flags(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BBMLAB_OUT", raising=False)
        self._fails(argv, capsys)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t-end", "1", "--snapshots", "2"],
        ["simulate", "--t-end", "1", "--snapshots", "nan"],
        ["couple", "--alphas", "1,2", "--t-end", "1", "--snapshots", "3"],
        ["porism", "--t-list", "inf", "--replicates", "1"],
        ["porism", "--t-list", ","],
        ["alpha2", "--s-list", ","],
        ["alpha2", "--s-list", "4"],
        ["couple", "--alphas", ",", "--t-end", "1"],
    ], ids=["snapshot-beyond-t_end", "snapshot-nan", "couple-snapshot-beyond-t_end",
            "t_list-inf", "t_list-empty", "s_list-empty", "s_list-one", "alphas-empty"])
    def test_bad_grid_or_list(self, argv, tmp_path, capsys):
        """Snapshot grids and list parameters are checked by the function that
        needs them, before any simulation: one line, and no result file."""
        err = self._fails(argv + ["--seed", "1", "--out", str(tmp_path)], capsys)
        assert len(err.splitlines()) == 1
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t-end", "1", "--snapshots", "2"],
        ["porism", "--t-list", ","],
        ["porism", "--t-list", "inf", "--replicates", "1"],
    ], ids=["snapshot-beyond-t_end", "t_list-empty", "t_list-inf"])
    def test_bad_grid_rejected_before_spectral_solve(self, argv, tmp_path, monkeypatch,
                                                     capsys):
        """simulate and porism solve the spectrum for Z_t; a grid or time list
        they reject must fail before that solve is reached."""
        def unreachable(*args, **kwargs):
            raise AssertionError("spectral solve reached on rejected input")

        monkeypatch.setattr(spectral, "solve_spectrum", unreachable)
        err = self._fails(argv + ["--seed", "1", "--out", str(tmp_path)], capsys)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", [
        "garbage",
        CFG.replace("seed = 1", "seed = abc"),
        CFG.replace("replicates = 1", "replicates = two"),
        CFG.replace("operation = spectrum", "operation = porism").replace(
            "seed = 1", "seed = -1").replace("n_max", "replicates"),
        "[experiment]\nname = m\noperation = mass\nseed = 1\n[params]\nt_end = 8\n",
        CFG.replace("[ladder]", "alpha = 1\n[ladders]"),
        CFG.replace("replicates = 1", "replicate = 4"),
        CFG.replace("replicates = 1", "replicates = 1\nouptut = x"),
        CFG.replace("replicates = 1", "replicates = 3"),
    ], ids=["garbage", "seed-abc", "replicates-two", "seed-negative", "mass-without-s",
            "section-ladders", "key-replicate", "key-ouptut", "replicates-deterministic"])
    def test_bad_config(self, text, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        self._fails(["run", str(cfg), "--out", str(tmp_path / "runs")], capsys)
        assert not (tmp_path / "runs").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        self._fails(["run", str(tmp_path / "absent.cfg")], capsys)

    def test_force_reruns_every_cell(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CFG)
        argv = ["run", str(cfg), "--out", str(tmp_path / "runs")]
        assert main(argv) == 0
        marker = next((tmp_path / "runs").rglob("*.csv")).parent / "marker"
        marker.touch()
        assert main(argv) == 0 and marker.exists()  # a completed cell is skipped
        assert main(argv + ["--force"]) == 0 and not marker.exists()

    def test_result_csv_cells_are_numbers_or_ids(self, tmp_path):
        for argv in (["simulate", "--alpha", "1", "--t-end", "3", "--snapshots", "1.5,3"],
                     ["couple", "--alphas", "1,2", "--t-end", "3", "--snapshots", "1.5,3"],
                     ["discrete", "--alpha", "1", "--n-end", "6"]):
            assert main(argv + ["--seed", "5", "--out", str(tmp_path)]) == 0
        tables = sorted(tmp_path.rglob("*.csv"))
        assert {p.name for p in tables} >= {"snapshots.csv", "stats.csv", "lattice.csv",
                                           "snapshots_alpha_1p0.csv"}
        for table in tables:
            rows = list(csv.reader(table.read_text().splitlines()))[1:]
            assert rows
            for cell in (c for row in rows for c in row):
                if not re.fullmatch(r"[0-9a-f]{32}", cell):
                    float(cell)  # an int parses as a float too

    @pytest.mark.parametrize("value", ["no", "yes", "2", "-1", "0.5", "1.0", "true"])
    def test_homogeneous_is_0_or_1(self, value, tmp_path, capsys):
        argv = ["couple", "--alphas", "1", "--t-end", "0.5", "--seed", "1",
                "--homogeneous", value, "--out", str(tmp_path)]
        assert "homogeneous:" in self._fails(argv, capsys)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value,members", [("0", {"1p0"}), ("1", {"1p0", "inf"})])
    def test_homogeneous_member(self, value, members, tmp_path):
        assert main(["couple", "--alphas", "1", "--t-end", "0.5", "--seed", "1",
                     "--homogeneous", value, "--out", str(tmp_path)]) == 0
        written = {p.stem.removeprefix("snapshots_alpha_")
                   for p in (tmp_path / "couple").glob("snapshots_alpha_*.csv")}
        assert written == members

    @pytest.mark.parametrize("name", sorted(n for n, op in operations.REGISTRY.items()
                                            if not op.stochastic))
    def test_deterministic_operations_take_no_seed(self, name, tmp_path, capsys):
        assert "takes no seed" in self._fails([name, "--seed", "4", "--out", str(tmp_path)],
                                              capsys)
        assert not any(tmp_path.iterdir())
        with pytest.raises(ConfigurationError, match="takes no seed"):
            operations.REGISTRY[name].bind({"seed": 4})

    def _output_fails(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("output error") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        return err

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        self._output_fails(["spectrum", "--alpha", "1", "--n-max", "1",
                            "--out", str(blocker)], capsys)
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CFG)
        self._output_fails(["run", str(cfg), "--out", str(blocker)], capsys)
        assert blocker.read_text() == ""

    def test_result_file_cannot_be_written(self, tmp_path, capsys):
        # the run writes into spectrum.tmp, which cannot replace a file
        blocker = tmp_path / "spectrum"
        blocker.write_text("kept")
        err = self._output_fails(["spectrum", "--alpha", "1", "--n-max", "1",
                                  "--out", str(tmp_path)], capsys)
        assert str(blocker) in err and "PosixPath(" not in err
        assert blocker.read_text() == "kept"
        assert sorted(tmp_path.iterdir()) == [blocker]


PDE_LADDER = """
[experiment]
name = bad
operation = pde
seed = 1

[params]
t_end = 0.5
rho = 1
alpha = 1

[ladder]
dx = 0.0625,100
"""


class TestStaging:
    """`Operation.execute` runs into `<out>.tmp`: on success it replaces
    `<out>` whole, on any failure it is removed and `<out>` is left as it
    was."""

    def test_failing_cell_keeps_finished_cells(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(PDE_LADDER)
        assert main(["run", str(cfg), "--out", str(tmp_path / "runs")]) == 1
        assert "fewer than 3 grid nodes" in capsys.readouterr().err
        run_dir = tmp_path / "runs" / "bad"
        assert sorted(p.name for p in run_dir.iterdir()) == ["dx=0.0625", "manifest.json"]
        assert sorted(p.name for p in (run_dir / "dx=0.0625").iterdir()) == [
            "field.csv", "field.json"]

    def test_failing_cell_leaves_a_failed_manifest(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(PDE_LADDER)
        argv = ["run", str(cfg), "--out", str(tmp_path / "runs")]
        assert main(argv) == 1
        run_dir = tmp_path / "runs" / "bad"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert sorted(manifest["digests"]) == ["dx=0.0625/field.csv", "dx=0.0625/field.json"]
        capsys.readouterr()
        assert main(["report", str(tmp_path / "runs")]) == 1
        out = capsys.readouterr().out
        assert "experiment: bad" in out and "status: failed" in out

        executed = []
        execute = operations.Operation.execute

        def counted(op, raw, out):
            executed.append(out.name)
            return execute(op, raw, out)

        monkeypatch.setattr(operations.Operation, "execute", counted)
        assert main(argv) == 1
        assert executed == ["dx=100"]
        assert json.loads((run_dir / "manifest.json").read_text()) == {
            **manifest, "started": ANY, "finished": ANY}

    def test_rerun_holds_only_the_new_files(self, tmp_path, capsys):
        argv = ["couple", "--t-end", "2", "--seed", "3", "--out", str(tmp_path)]
        assert main(argv + ["--alphas", "0.5,1"]) == 0
        (tmp_path / "couple.tmp").mkdir()  # left by a killed run
        (tmp_path / "couple.tmp" / "stale.csv").touch()
        capsys.readouterr()
        assert main(argv + ["--alphas", "1,2"]) == 0
        printed = capsys.readouterr().out.split()
        out = tmp_path / "couple"
        assert sorted(tmp_path.iterdir()) == [out]
        assert sorted(printed) == sorted(str(p) for p in out.iterdir())
        assert sorted(p.name for p in out.iterdir()) == [
            "coupling.json", "snapshots_alpha_1p0.csv", "snapshots_alpha_2p0.csv"]
        assert json.loads((out / "coupling.json").read_text())["alphas"] == [1.0, 2.0]

    def test_interrupted_run_leaves_the_earlier_result(self, tmp_path, monkeypatch):
        argv = ["spectrum", "--alpha", "1", "--n-max", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        tree = lambda: {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
        before = tree()

        def interrupted(a, out):
            (out / "eigensystem.csv").write_text("partial\n")
            raise KeyboardInterrupt

        op = operations.REGISTRY["spectrum"]
        monkeypatch.setitem(operations.REGISTRY, "spectrum",
                            dataclasses.replace(op, run=interrupted))
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert tree() == before
