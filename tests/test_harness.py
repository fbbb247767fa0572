import csv
import json
import math
import re
import warnings

import pytest

from bbmlab import operations
from bbmlab.cli import main
from bbmlab.errors import ConfigurationError
from bbmlab.harness import report, run_experiment, spec_from_config

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
        ["mto1", "--alpha", "1", "--t-end", "1", "--functional", "x_cylinder", "--n-sim", "5",
         "--n-mc", "200", "--seed", "1"],
        ["mto2", "--t-end", "1", "--f-functional", "weird", "--seed", "1"],
    ], ids=["missing-s", "seed-2**64", "t_end-inf", "family-Foo", "alphas-a,b", "only-x",
            "functional-x_cylinder", "f_functional-weird"])
    def test_bad_flags(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BBMLAB_OUT", raising=False)
        self._fails(argv, capsys)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("text", [
        "garbage",
        CFG.replace("seed = 1", "seed = abc"),
        CFG.replace("replicates = 1", "replicates = two"),
        CFG.replace("operation = spectrum", "operation = porism").replace(
            "seed = 1", "seed = -1").replace("n_max", "replicates"),
        "[experiment]\nname = m\noperation = mass\nseed = 1\n[params]\nt_end = 8\n",
    ], ids=["garbage", "seed-abc", "replicates-two", "seed-negative", "mass-without-s"])
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
        (tmp_path / "spectrum" / "eigensystem.csv").mkdir(parents=True)
        self._output_fails(["spectrum", "--alpha", "1", "--n-max", "1",
                            "--out", str(tmp_path)], capsys)
