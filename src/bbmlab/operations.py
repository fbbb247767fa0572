"""Operation registry: every public computation behind a uniform
(params dict, output dir) -> files interface, shared by the CLI and the
experiment harness.  Each entry carries a short anchor label naming the
mathematical object it exercises, which the report command displays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import mc, pde, sim, spectral
from .errors import ConfigurationError
from .files import write_csv, write_json
from .model import ModelParams, RateFamily, derived_constants


def _positive(v):
    if not (isinstance(v, (int, float)) and 0 < v < math.inf):
        raise ConfigurationError(f"expected a finite positive number, got {v!r}")


def _nonneg(v):
    if not (isinstance(v, (int, float)) and 0 <= v < math.inf):
        raise ConfigurationError(f"expected a finite nonnegative number, got {v!r}")


def _functional(v):
    """A path functional that flags can describe: x_cylinder needs snapshot
    times and thresholds, which no flag sets."""
    if v not in ("one", "x_indicator", "r_indicator"):
        raise ConfigurationError(f"expected one, x_indicator or r_indicator, got {v!r}")


def _count(v):
    if not (isinstance(v, int) and v >= 1):
        raise ConfigurationError(f"expected a count >= 1, got {v!r}")


def _flag(v):
    if not (isinstance(v, int) and v in (0, 1)):
        raise ConfigurationError(f"expected 0 or 1, got {v!r}")


def _seed(v):
    if not (isinstance(v, int) and 0 <= v < 2 ** 64):
        raise ConfigurationError(f"expected an integer in [0, 2**64), got {v!r}")


def _given(v):
    """A positive number the operation has no default for: required."""
    _positive(v)


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


@dataclass(frozen=True)
class Operation:
    name: str
    anchor: str
    parameters: dict
    run: Callable
    stochastic: bool = False

    def bind(self, raw: dict) -> dict:
        """Parse and check the parameters of one run: every key must be
        accepted, every required parameter (and, for a stochastic
        operation, the seed) given, and every value pass its check, which
        raises ValueError otherwise.  A deterministic operation takes no
        seed.  Returns the parsed parameters; raises ConfigurationError."""
        args = {k: parse_value(v) for k, v in raw.items()}
        if "seed" in args and not self.stochastic:
            raise ConfigurationError(f"{self.name!r} is deterministic and takes no seed")
        unknown = sorted(set(args) - set(self.parameters))
        if unknown:
            raise ConfigurationError(
                f"parameter {unknown[0]!r} not accepted by {self.name!r} "
                f"(accepts {sorted(self.parameters)})")
        required = [k for k, check in self.parameters.items()
                    if check is _given or (k == "seed" and self.stochastic)]
        missing = [k for k in required if k not in args]
        if missing:
            raise ConfigurationError(f"{self.name!r} is missing {missing}")
        for key, value in args.items():
            try:
                self.parameters[key](value)
            except ValueError as exc:
                raise ConfigurationError(f"{key}: {exc}") from None
        return args


def _params_from(args, default_family="SinPow"):
    return ModelParams(
        alpha=float(args.get("alpha", 1.0)),
        beta=float(args.get("beta", 1.0)),
        rate_family=RateFamily(args.get("family", default_family)),
    )


# -- deterministic operations -------------------------------------------------

def _run_spectrum(args, out: Path):
    sys_ = spectral.solve_spectrum(
        float(args["alpha"]), int(args.get("n_max", 8)),
        accuracy=float(args.get("accuracy", 1e-8)), q=float(args.get("q", 1.0)))
    return [sys_.export_csv(out / "eigensystem.csv"), sys_.export_json(out / "eigensystem.json")]


def _run_weyl(args, out: Path):
    sys_ = spectral.solve_spectrum(float(args["alpha"]), int(args.get("n_max", 41)),
                                   accuracy=float(args.get("accuracy", 1e-6)))
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


def _run_pde(args, out: Path):
    grids = pde.PdeGrids(x_max=float(args.get("x_max", 8.0)),
                         dx=float(args.get("dx", 1.0 / 128.0)),
                         cfl_pot=float(args.get("cfl", 0.02)))
    g = pde.fundamental_solution_g(float(args.get("xi", 0.0)), float(args["t_end"]),
                                   float(args["rho"]), float(args["alpha"]), grids)
    return [g.field.export_csv(out / "field.csv"), g.field.export_json(out / "field.json")]


def _run_barriers(args, out: Path):
    pair = pde.build_barriers(float(args["t_end"]), float(args["eps1"]),
                              float(args["eps2"]), float(args["alpha"]))
    t = np.linspace(0.0, pair.T, int(args.get("n_grid", 1001)))
    lo, hi = pair.sandwich_margins()
    payload = {
        "T": pair.T, "eps1": pair.eps1, "eps2": pair.eps2, "alpha": pair.alpha,
        "t": t.tolist(),
        "q_star": pair.q_star.value(t).tolist(),
        "q_upper": pair.q_upper.value(t).tolist(),
        "max_violation_low": lo, "max_violation_high": hi,
    }
    return [write_json(out / "barriers.json", payload)]


def _run_galerkin(args, out: Path):
    sys_ = spectral.solve_spectrum(float(args["alpha"]),
                                   int(args.get("n_modes", 12)) + 2,
                                   accuracy=float(args.get("accuracy", 1e-7)))
    d_mat, a_mat, defect = pde.galerkin_matrices(sys_, int(args.get("n_modes", 12)))
    payload = {
        "alpha": sys_.alpha,
        "gap_diagonal": np.diag(d_mat).tolist(),
        "mixing": a_mat.tolist(),
        "quadrature_defect": defect,
    }
    return [write_json(out / "galerkin.json", payload)]


def _run_kernel_g(args, out: Path):
    val = pde.kernel_G_from_g(
        float(args["s"]), float(args.get("x", 0.0)), float(args["t_end"]),
        float(args.get("y", 0.0)), float(args.get("beta", 1.0)), float(args["alpha"]),
        grids=pde.PdeGrids(x_max=float(args.get("x_max", 8.0)),
                           dx=float(args.get("dx", 1.0 / 128.0)),
                           cfl_pot=float(args.get("cfl", 0.02))))
    payload = dict(args, value=val)
    return [write_json(out / "kernel.json", payload)]


# -- stochastic operations ----------------------------------------------------

def _run_mass(args, out: Path):
    p = _params_from(args, default_family="PowClamp")
    est = mc.estimate_total_mass(float(args["s"]), float(args["t_end"]),
                                 float(args.get("x", 0.0)), p,
                                 int(args.get("n", 100000)),
                                 float(args.get("step", 0.1)), int(args["seed"]))
    return [write_json(out / "mass.json", est.to_json_dict(
        s=args["s"], t=args["t_end"], x=args.get("x", 0.0), seed=args["seed"],
        alpha=p.alpha, beta=p.beta))]


def _run_gtilde(args, out: Path):
    p = _params_from(args, default_family="PowClamp")
    est = mc.estimate_gtilde(float(args["s"]), float(args.get("x", 0.0)),
                             float(args["t_end"]), float(args.get("y", 0.0)), p,
                             int(args.get("n", 100000)),
                             float(args.get("step", 0.04)), int(args["seed"]))
    return [write_json(out / "gtilde.json", est.to_json_dict(
        s=args["s"], t=args["t_end"], x=args.get("x", 0.0), y=args.get("y", 0.0),
        seed=args["seed"], alpha=p.alpha, beta=p.beta))]


def _parse_list(text):
    return [float(v) for v in str(text).split(",") if v.strip()]


def _run_alpha2(args, out: Path):
    rep = mc.alpha2_exponent_fit(float(args.get("beta", 1.0)),
                                 _parse_list(args.get("s_list", "2,4,8,16")),
                                 float(args.get("t_end", 512.0)),
                                 int(args.get("n", 20000)),
                                 float(args.get("step", 0.1)), int(args["seed"]))
    rep["beta"] = float(args.get("beta", 1.0))
    return [write_json(out / "alpha2_fit.json", rep)]


def _constants_or_none(p: ModelParams):
    """The derived constants behind Z_t, or None where they do not exist: the
    homogeneous family has no angular penalty, and theta1 is undefined at
    kappa = 1 (alpha = 2).  Without them Z_t is written as nan."""
    if p.rate_family is RateFamily.HOMOGENEOUS or p.kappa() == 1.0:
        return None
    lam0 = spectral.solve_spectrum(p.alpha, 1, accuracy=1e-7).eigenvalues[0]
    return derived_constants(p, lam0)


def _run_simulate(args, out: Path):
    p = _params_from(args)
    consts = _constants_or_none(p)
    snaps = _parse_list(args.get("snapshots", args["t_end"]))
    pop, stats = sim.run_continuous(p, float(args["t_end"]), int(args["seed"]),
                                    snapshot_times=snaps,
                                    cap=int(args.get("cap", sim.DEFAULT_CAP)),
                                    consts=consts)
    return [pop.export_snapshots_csv(out / "snapshots.csv"),
            sim.export_stats_csv(out / "stats.csv", [(0, stats)]),
            pop.export_manifest_json(out / "run.json", p)]


def _run_couple(args, out: Path):
    alphas = _parse_list(args.get("alphas", "0.5,1,2,4"))
    snaps = _parse_list(args.get("snapshots", args["t_end"]))
    runs = sim.run_coupled(alphas, float(args["t_end"]), int(args["seed"]),
                           snapshot_times=snaps,
                           cap=int(args.get("cap", sim.DEFAULT_CAP)),
                           include_homogeneous=bool(args.get("homogeneous", 0)))
    files = [pop.export_snapshots_csv(out / f"snapshots_alpha_{key.replace('.', 'p')}.csv")
             for key, (pop, _) in runs.items()]
    sizes = {key: pop.size for key, (pop, _) in runs.items()}
    return files + [write_json(out / "coupling.json", {
        "alphas": alphas, "sizes": sizes, "chain": "verified",
        "seed": args["seed"],
    })]


def _run_discrete(args, out: Path):
    p = _params_from(args)
    pop, _ = sim.run_discrete(p, int(args.get("n_end", 100)), int(args["seed"]),
                              cap=int(args.get("cap", sim.DEFAULT_CAP)))
    return [write_csv(out / "lattice.csv", ["lineage_id", "x", "y"],
                      [sim.HexIds(pop.lid_hi, pop.lid_lo),
                       pop.x.astype(np.int64), pop.y.astype(np.int64)]),
            pop.export_manifest_json(out / "run.json", p)]


def _functional_from(args, prefix=""):
    kind = args.get(prefix + "functional", "one")
    return sim.PathFunctional(kind, x0=float(args.get(prefix + "x0", 0.0)),
                              r0=float(args.get(prefix + "r0", 0.0)))


def _run_mto1(args, out: Path):
    p = _params_from(args)
    rep = sim.many_to_one_check(p, float(args["t_end"]), _functional_from(args),
                                int(args.get("n_sim", 2000)),
                                int(args.get("n_mc", 100000)), int(args["seed"]))
    return [write_json(out / "many_to_one.json", rep)]


def _run_mto2(args, out: Path):
    p = _params_from(args)
    rep = sim.many_to_two_check(p, float(args["t_end"]), _functional_from(args, "f_"),
                                _functional_from(args, "g_"),
                                int(args.get("n_sim", 4000)),
                                int(args.get("n_mc", 50000)), int(args["seed"]))
    return [write_json(out / "many_to_two.json", rep)]


def _run_porism(args, out: Path):
    p = _params_from(args)
    consts = _constants_or_none(p)
    rep = sim.porism_probe(p, _parse_list(args.get("t_list", "8,12,16")),
                           int(args.get("replicates", 200)), int(args["seed"]),
                           consts=consts, eps=float(args.get("eps", 0.25)))
    rep["rows"] = {repr(k): v for k, v in rep["rows"].items()}
    return [write_json(out / "porism.json", rep)]


REGISTRY = {
    "spectrum": Operation(
        "spectrum", "line-operator eigenpairs",
        {"alpha": _given, "n_max": _count, "accuracy": _positive, "q": _positive},
        _run_spectrum),
    "weyl": Operation(
        "weyl", "eigenvalue growth law",
        {"alpha": _given, "n_max": _count, "accuracy": _positive}, _run_weyl),
    "pde": Operation(
        "pde", "killed-diffusion fundamental solution",
        {"xi": float, "t_end": _given, "rho": _given, "alpha": _given,
         "x_max": _positive, "dx": _positive, "cfl": _positive}, _run_pde),
    "barriers": Operation(
        "barriers", "sandwich coefficient pair",
        {"t_end": _given, "eps1": _given, "eps2": _given,
         "alpha": _given, "n_grid": _count}, _run_barriers),
    "galerkin": Operation(
        "galerkin", "eigenbasis gap and mixing matrices",
        {"alpha": _given, "n_modes": _count, "accuracy": _positive}, _run_galerkin),
    "kernel-g": Operation(
        "kernel-g", "weighted kernel via rescaled fundamental solution",
        {"s": _given, "x": float, "t_end": _given, "y": float,
         "beta": _positive, "alpha": _given, "x_max": _positive,
         "dx": _positive, "cfl": _positive}, _run_kernel_g),
    "mass": Operation(
        "mass", "weighted-path total mass",
        {"s": _given, "t_end": _given, "x": float, "alpha": _positive,
         "beta": _nonneg, "family": RateFamily, "n": _count, "step": _positive,
         "seed": _seed}, _run_mass, stochastic=True),
    "gtilde": Operation(
        "gtilde", "bridge-conditioned weighted kernel",
        {"s": _given, "x": float, "t_end": _given, "y": float,
         "alpha": _positive, "beta": _nonneg, "family": RateFamily, "n": _count,
         "step": _positive, "seed": _seed}, _run_gtilde, stochastic=True),
    "alpha2": Operation(
        "alpha2", "quadratic-angle decay exponent",
        {"beta": _positive, "s_list": _parse_list, "t_end": _positive, "n": _count,
         "step": _positive, "seed": _seed}, _run_alpha2, stochastic=True),
    "simulate": Operation(
        "simulate", "continuous branching diffusion",
        {"alpha": _positive, "beta": _positive, "family": RateFamily,
         "t_end": _given, "snapshots": _parse_list, "cap": _count, "seed": _seed},
        _run_simulate, stochastic=True),
    "couple": Operation(
        "couple", "nested runs across the angular exponent",
        {"alphas": _parse_list, "t_end": _given, "snapshots": _parse_list, "cap": _count,
         "homogeneous": _flag, "seed": _seed}, _run_couple, stochastic=True),
    "discrete": Operation(
        "discrete", "lattice generation model",
        {"alpha": _positive, "beta": _positive, "family": RateFamily, "n_end": _count,
         "cap": _count, "seed": _seed}, _run_discrete, stochastic=True),
    "mto1": Operation(
        "mto1", "single-spine moment identity",
        {"alpha": _positive, "beta": _positive, "family": RateFamily, "t_end": _given,
         "functional": _functional, "x0": float, "r0": float, "n_sim": _count,
         "n_mc": _count, "seed": _seed}, _run_mto1, stochastic=True),
    "mto2": Operation(
        "mto2", "two-spine moment identity",
        {"alpha": _positive, "beta": _positive, "family": RateFamily, "t_end": _given,
         "f_functional": _functional, "f_x0": float, "f_r0": float,
         "g_functional": _functional, "g_x0": float, "g_r0": float,
         "n_sim": _count, "n_mc": _count, "seed": _seed}, _run_mto2, stochastic=True),
    "porism": Operation(
        "porism", "extremal-particle localization probe",
        {"alpha": _positive, "beta": _positive, "family": RateFamily, "t_list": _parse_list,
         "replicates": _count, "eps": _positive, "cap": _count, "seed": _seed},
        _run_porism, stochastic=True),
}
