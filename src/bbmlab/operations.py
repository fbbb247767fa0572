"""Operation registry: every public computation behind a uniform
(params dict, output dir) -> files interface, shared by the CLI, the
experiment harness and the acceptance suite.  Each entry carries a short
anchor label naming the mathematical object it exercises, which the report
command displays.

The registry is the one place an operation's parameters are declared: each
name has a parser and a default, or is required.  `Operation.execute` binds
the given values to the complete typed parameters and runs the operation,
which reads `a[key]` and nothing else.  `execute` is also the one place
that decides how an operation's files reach disk: staged beside the output
directory, published whole on success, and removed on failure.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import mc, pde, sim, spectral
from .errors import ConfigurationError, NumericalFailure
from .files import write_csv, write_json
from .model import ModelParams, RateFamily, derived_constants


REQUIRED = object()  # the default of a parameter every run must give


def _positive(v):
    if not (isinstance(v, (int, float)) and 0 < v < math.inf):
        raise ConfigurationError(f"expected a finite positive number, got {v!r}")
    return float(v)


def _finite(v):
    if not (isinstance(v, (int, float)) and math.isfinite(v)):
        raise ConfigurationError(f"expected a finite number, got {v!r}")
    return float(v)


def _count(v):
    if not (isinstance(v, int) and v >= 1):
        raise ConfigurationError(f"expected a count >= 1, got {v!r}")
    return v


def _flag(v):
    if not (isinstance(v, int) and v in (0, 1)):
        raise ConfigurationError(f"expected 0 or 1, got {v!r}")
    return bool(v)


def _seed(v):
    if not (isinstance(v, int) and 0 <= v < 2 ** 64):
        raise ConfigurationError(f"expected an integer in [0, 2**64), got {v!r}")
    return v


def _floats(v):
    """A list of numbers: comma-separated text, one number or a sequence."""
    if isinstance(v, str):
        v = [x for x in v.split(",") if x.strip()]
    elif not isinstance(v, (list, tuple)):
        v = [v]
    return [float(x) for x in v]


def _functional(v):
    """A path functional that flags can describe: x_cylinder needs snapshot
    times and thresholds, which no flag sets."""
    if v not in ("one", "x_indicator", "r_indicator"):
        raise ConfigurationError(f"expected one, x_indicator or r_indicator, got {v!r}")
    return v


def parse_value(text):
    """A command-line or config value as an int, else a float, else the
    stripped text; values that are not text pass through unchanged."""
    if not isinstance(text, str):
        return text
    text = text.strip()
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


class Param(NamedTuple):
    """One operation parameter.  `parse` turns a given value (text read by
    `parse_value`, or a Python value) into the typed value the operation
    reads, raising ValueError if it is not valid; `default` is written as
    a user would give it and parsed the same way, or is REQUIRED."""

    parse: Callable
    default: object = REQUIRED


@dataclass(frozen=True)
class Operation:
    name: str
    anchor: str
    parameters: dict  # name -> Param
    run: Callable     # (typed parameters, output dir) -> written file paths

    @property
    def stochastic(self) -> bool:
        return "seed" in self.parameters

    def bind(self, raw: dict) -> dict:
        """The complete typed parameters of one run: every key must be
        accepted and every required one (the seed of a stochastic
        operation included) given; each value, given or default, is
        parsed by its Param.  A deterministic operation takes no seed.
        Raises ConfigurationError."""
        given = {k: parse_value(v) for k, v in raw.items()}
        if "seed" in given and not self.stochastic:
            raise ConfigurationError(f"{self.name!r} is deterministic and takes no seed")
        unknown = sorted(set(given) - set(self.parameters))
        if unknown:
            raise ConfigurationError(
                f"parameter {unknown[0]!r} not accepted by {self.name!r} "
                f"(accepts {sorted(self.parameters)})")
        missing = [k for k, p in self.parameters.items()
                   if p.default is REQUIRED and k not in given]
        if missing:
            raise ConfigurationError(f"{self.name!r} is missing {missing}")
        bound = {}
        for key, p in self.parameters.items():
            try:
                bound[key] = p.parse(given[key] if key in given else p.default)
            except ValueError as exc:
                raise ConfigurationError(f"{key}: {exc}") from None
        return bound

    def execute(self, raw: dict, out: Path) -> list:
        """Bind `raw` and run into the staging directory `<out>.tmp`, which
        then replaces `out` whole; returns the final paths.  A staging
        directory left by a killed run is removed first, and on any failure
        the new one is removed, so `out` holds one whole run or is left as
        it was.  The one way in for the CLI, the harness and the acceptance
        suite."""
        args = self.bind(raw)
        stage = out.with_name(out.name + ".tmp")
        # rmtree is given text: an OSError keeps its argument as filename,
        # and the CLI prints the error as it is
        if stage.exists():
            shutil.rmtree(os.fspath(stage))
        stage.mkdir(parents=True)
        try:
            names = [Path(f).name for f in self.run(args, stage)]
            if out.exists():
                shutil.rmtree(os.fspath(out))
            stage.replace(out)
        except BaseException:
            shutil.rmtree(os.fspath(stage), ignore_errors=True)
            raise
        return [str(out / name) for name in names]


def _model(a) -> ModelParams:
    return ModelParams(alpha=a["alpha"], beta=a["beta"], rate_family=a["family"])


def _kernel_model(a) -> ModelParams:
    """mass and gtilde weight paths on the power-clamp family, the only one
    their estimators read (through alpha and beta)."""
    return ModelParams(alpha=a["alpha"], beta=a["beta"], rate_family=RateFamily.POW_CLAMP)


def _grids(a) -> pde.PdeGrids:
    return pde.PdeGrids(x_max=a["x_max"], dx=a["dx"], cfl_pot=a["cfl"])


# -- deterministic operations -------------------------------------------------

def _run_spectrum(a, out: Path):
    sys_ = spectral.solve_spectrum(a["alpha"], a["n_max"], accuracy=a["accuracy"], q=a["q"])
    return [sys_.export_csv(out / "eigensystem.csv"), sys_.export_json(out / "eigensystem.json")]


def _run_weyl(a, out: Path):
    sys_ = spectral.solve_spectrum(a["alpha"], a["n_max"], accuracy=a["accuracy"])
    rep = spectral.weyl_check(sys_)
    payload = {
        "alpha": sys_.alpha,
        "constant": spectral.weyl_constant(sys_.alpha),
        "levels": rep.levels.tolist(),
        "relative_errors": rep.relative_errors.tolist(),
        "decreasing_10_20_40": bool(rep.decreasing_over([10, 20, 40]))
        if sys_.n_levels > 40 else None,
    }
    return [write_json(out / "weyl.json", payload)]


def _run_pde(a, out: Path):
    g = pde.fundamental_solution_g(a["xi"], a["t_end"], a["rho"], a["alpha"], _grids(a))
    return [g.export_csv(out / "field.csv"), g.export_json(out / "field.json")]


def _run_barriers(a, out: Path):
    pair = pde.build_barriers(a["t_end"], a["eps1"], a["eps2"], a["alpha"])
    t = np.linspace(0.0, pair.T, a["n_grid"])
    lo, hi = pair.sandwich_margins()
    payload = {
        "T": pair.T, "eps1": pair.eps1, "eps2": pair.eps2, "alpha": pair.alpha,
        "t": t.tolist(),
        "q_star": pair.q_star.value(t).tolist(),
        "q_upper": pair.q_upper.value(t).tolist(),
        "max_violation_low": lo, "max_violation_high": hi,
    }
    return [write_json(out / "barriers.json", payload)]


def _run_galerkin(a, out: Path):
    sys_ = spectral.solve_spectrum(a["alpha"], a["n_modes"] + 2, accuracy=a["accuracy"])
    gaps, a_mat, defect = pde.galerkin_matrices(sys_, a["n_modes"])
    payload = {
        "alpha": sys_.alpha,
        "gap_diagonal": gaps.tolist(),
        "mixing": a_mat.tolist(),
        "quadrature_defect": defect,
    }
    return [write_json(out / "galerkin.json", payload)]


def _run_kernel_g(a, out: Path):
    val = pde.kernel_G_from_g(a["s"], a["x"], a["t_end"], a["y"], a["beta"], a["alpha"],
                              grids=_grids(a))
    return [write_json(out / "kernel.json", dict(a, value=val))]


# -- stochastic operations ----------------------------------------------------

def _run_mass(a, out: Path):
    est = mc.estimate_total_mass(a["s"], a["t_end"], a["x"], _kernel_model(a), a["n"],
                                 a["step"], a["seed"])
    return [write_json(out / "mass.json", est.to_json_dict(
        s=a["s"], t=a["t_end"], x=a["x"], seed=a["seed"], alpha=a["alpha"], beta=a["beta"]))]


def _run_gtilde(a, out: Path):
    est = mc.estimate_gtilde(a["s"], a["x"], a["t_end"], a["y"], _kernel_model(a), a["n"],
                             a["step"], a["seed"])
    return [write_json(out / "gtilde.json", est.to_json_dict(
        s=a["s"], t=a["t_end"], x=a["x"], y=a["y"], seed=a["seed"],
        alpha=a["alpha"], beta=a["beta"]))]


def _run_alpha2(a, out: Path):
    rep = mc.alpha2_exponent_fit(a["beta"], a["s_list"], a["t_end"], a["n"], a["step"],
                                 a["seed"])
    rep["beta"] = a["beta"]
    return [write_json(out / "alpha2_fit.json", rep)]


def _constants_or_none(p: ModelParams):
    """The derived constants behind Z_t, or None where they do not exist: the
    homogeneous family has no angular penalty, and theta1 is undefined at
    kappa = 1 (alpha = 2).  Without them Z_t is written as nan."""
    if p.rate_family is RateFamily.HOMOGENEOUS or p.kappa() == 1.0:
        return None
    lam0 = spectral.solve_spectrum(p.alpha, 1, accuracy=1e-7).eigenvalues[0]
    return derived_constants(p, lam0)


def _run_simulate(a, out: Path):
    p = _model(a)
    sim.snapshot_grid(a["snapshots"], a["t_end"])  # a rejected grid pays for no solve
    pop, stats = sim.run_continuous(p, a["t_end"], a["seed"], snapshot_times=a["snapshots"],
                                    cap=a["cap"], consts=_constants_or_none(p))
    return [pop.export_snapshots_csv(out / "snapshots.csv"),
            sim.export_stats_csv(out / "stats.csv", stats),
            pop.export_manifest_json(out / "run.json", p)]


def _run_couple(a, out: Path):
    try:
        runs = sim.run_coupled(a["alphas"], a["t_end"], a["seed"], snapshot_times=a["snapshots"],
                               cap=a["cap"], include_homogeneous=a["homogeneous"])
    except AssertionError as exc:  # a member truncated by the cap breaks the chain
        raise NumericalFailure(str(exc)) from None
    files = [pop.export_snapshots_csv(out / f"snapshots_alpha_{key.replace('.', 'p')}.csv")
             for key, (pop, _) in runs.items()]
    sizes = {key: pop.size for key, (pop, _) in runs.items()}
    return files + [write_json(out / "coupling.json", {
        "alphas": a["alphas"], "sizes": sizes, "chain": "verified", "seed": a["seed"],
    })]


def _run_discrete(a, out: Path):
    p = _model(a)
    pop, _ = sim.run_discrete(p, a["n_end"], a["seed"], cap=a["cap"])
    return [write_csv(out / "lattice.csv", ["lineage_id", "x", "y"],
                      [sim.HexIds(pop.lid_hi, pop.lid_lo),
                       pop.x.astype(np.int64), pop.y.astype(np.int64)]),
            pop.export_manifest_json(out / "run.json", p)]


def _run_mto1(a, out: Path):
    f = sim.PathFunctional(a["functional"], x0=a["x0"], r0=a["r0"])
    rep = sim.many_to_one_check(_model(a), a["t_end"], f, a["n_sim"], a["n_mc"], a["seed"])
    return [write_json(out / "many_to_one.json", rep)]


def _run_mto2(a, out: Path):
    f = sim.PathFunctional(a["f_functional"], x0=a["f_x0"], r0=a["f_r0"])
    g = sim.PathFunctional(a["g_functional"], x0=a["g_x0"], r0=a["g_r0"])
    rep = sim.many_to_two_check(_model(a), a["t_end"], f, g, a["n_sim"], a["n_mc"], a["seed"])
    return [write_json(out / "many_to_two.json", rep)]


def _run_porism(a, out: Path):
    p = _model(a)
    sim.probe_times(a["t_list"])  # rejected times pay for no solve
    rep = sim.porism_probe(p, a["t_list"], a["replicates"], a["seed"],
                           consts=_constants_or_none(p), eps=a["eps"], cap=a["cap"])
    rep["rows"] = {repr(k): v for k, v in rep["rows"].items()}
    return [write_json(out / "porism.json", rep)]


# Parameter groups shared by several operations.
# mass and gtilde read alpha and beta alone, on the power-clamp family
_KERNEL_MODEL = {"alpha": Param(_positive, 1.0), "beta": Param(_positive, 1.0)}
_MODEL = {**_KERNEL_MODEL, "family": Param(RateFamily, "SinPow")}
_GRIDS = {"x_max": Param(_positive, pde.PdeGrids.x_max), "dx": Param(_positive, pde.PdeGrids.dx),
          "cfl": Param(_positive, pde.PdeGrids.cfl_pot)}


def _functional_params(prefix=""):
    return {prefix + "functional": Param(_functional, "one"),
            prefix + "x0": Param(_finite, 0.0), prefix + "r0": Param(_finite, 0.0)}


REGISTRY = {op.name: op for op in [
    Operation("spectrum", "line-operator eigenpairs",
              {"alpha": Param(_positive), "n_max": Param(_count, 8),
               "accuracy": Param(_positive, 1e-8), "q": Param(_positive, 1.0)},
              _run_spectrum),
    Operation("weyl", "eigenvalue growth law",
              {"alpha": Param(_positive), "n_max": Param(_count, 41),
               "accuracy": Param(_positive, 1e-6)},
              _run_weyl),
    Operation("pde", "killed-diffusion fundamental solution",
              {"xi": Param(_finite, 0.0), "t_end": Param(_positive), "rho": Param(_positive),
               "alpha": Param(_positive), **_GRIDS},
              _run_pde),
    Operation("barriers", "sandwich coefficient pair",
              {"t_end": Param(_positive), "eps1": Param(_positive), "eps2": Param(_positive),
               "alpha": Param(_positive), "n_grid": Param(_count, 1001)},
              _run_barriers),
    Operation("galerkin", "eigenbasis gap and mixing matrices",
              {"alpha": Param(_positive), "n_modes": Param(_count, 12),
               "accuracy": Param(_positive, 1e-7)},
              _run_galerkin),
    Operation("kernel-g", "weighted kernel via rescaled fundamental solution",
              {"s": Param(_positive), "x": Param(_finite, 0.0), "t_end": Param(_positive),
               "y": Param(_finite, 0.0), "beta": Param(_positive, 1.0),
               "alpha": Param(_positive), **_GRIDS},
              _run_kernel_g),
    Operation("mass", "weighted-path total mass",
              {"s": Param(_positive), "t_end": Param(_positive), "x": Param(_finite, 0.0),
               **_KERNEL_MODEL, "n": Param(_count, 100000), "step": Param(_positive, 0.1),
               "seed": Param(_seed)},
              _run_mass),
    Operation("gtilde", "bridge-conditioned weighted kernel",
              {"s": Param(_positive), "x": Param(_finite, 0.0), "t_end": Param(_positive),
               "y": Param(_finite, 0.0), **_KERNEL_MODEL, "n": Param(_count, 100000),
               "step": Param(_positive, 0.04), "seed": Param(_seed)},
              _run_gtilde),
    Operation("alpha2", "quadratic-angle decay exponent",
              {"beta": Param(_positive, 1.0), "s_list": Param(_floats, "2,4,8,16"),
               "t_end": Param(_positive, 512.0), "n": Param(_count, 20000),
               "step": Param(_positive, 0.1), "seed": Param(_seed)},
              _run_alpha2),
    # t_end is always a snapshot of the continuous simulators
    Operation("simulate", "continuous branching diffusion",
              {**_MODEL, "t_end": Param(_positive), "snapshots": Param(_floats, ()),
               "cap": Param(_count, sim.DEFAULT_CAP), "seed": Param(_seed)},
              _run_simulate),
    Operation("couple", "nested runs across the angular exponent",
              {"alphas": Param(_floats, "0.5,1,2,4"), "t_end": Param(_positive),
               "snapshots": Param(_floats, ()), "cap": Param(_count, sim.DEFAULT_CAP),
               "homogeneous": Param(_flag, 0), "seed": Param(_seed)},
              _run_couple),
    Operation("discrete", "lattice generation model",
              {**_MODEL, "n_end": Param(_count, 100), "cap": Param(_count, sim.DEFAULT_CAP),
               "seed": Param(_seed)},
              _run_discrete),
    Operation("mto1", "single-spine moment identity",
              {**_MODEL, "t_end": Param(_positive), **_functional_params(),
               "n_sim": Param(_count, 2000), "n_mc": Param(_count, 100000), "seed": Param(_seed)},
              _run_mto1),
    Operation("mto2", "two-spine moment identity",
              {**_MODEL, "t_end": Param(_positive), **_functional_params("f_"),
               **_functional_params("g_"), "n_sim": Param(_count, 4000),
               "n_mc": Param(_count, 50000), "seed": Param(_seed)},
              _run_mto2),
    Operation("porism", "extremal-particle localization probe",
              {**_MODEL, "t_list": Param(_floats, "8,12,16"), "replicates": Param(_count, 200),
               "eps": Param(_positive, 0.25), "cap": Param(_count, sim.DEFAULT_CAP),
               "seed": Param(_seed)},
              _run_porism),
]}
