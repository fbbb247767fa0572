"""The acceptance suite: sixteen numbered checks with pinned tolerances.

Each criterion is a function returning a CriterionResult; the CLI prints
one pass/fail line per criterion and pytest asserts them individually.
Criteria are deterministic (fixed seeds everywhere), so a pass here is a
regression guarantee, not a statistical statement.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import mc, pde, sim, spectral
from .model import ModelParams, RateFamily, derived_constants

AIRY_LEVELS = (1.0187929716474714, 2.338107410459767, 3.2481975821798366)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    runtime: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number:>2}: {self.name} " \
               f"({self.runtime:.1f}s) -- {self.details}"


class AcceptanceContext:
    """Shared spectral solves, computed once."""

    def __init__(self):
        self._cache = {}

    def system(self, alpha, n_max, accuracy=1e-8, q=1.0):
        key = (alpha, n_max, accuracy, q)
        if key not in self._cache:
            self._cache[key] = spectral.solve_spectrum(alpha, n_max,
                                                       accuracy=accuracy, q=q)
        return self._cache[key]


def _timed(fn):
    def wrapper(ctx):
        t0 = time.perf_counter()
        out = fn(ctx)
        out.runtime = time.perf_counter() - t0
        return out
    return wrapper


@_timed
def criterion_1(ctx):
    """Spectral golden values at alpha = 2 and alpha = 1."""
    s2 = ctx.system(2.0, 3)
    s1 = ctx.system(1.0, 3)
    d2 = np.abs(s2.eigenvalues - np.array([1.0, 3.0, 5.0])).max()
    d1 = np.abs(s1.eigenvalues - np.array(AIRY_LEVELS)).max()
    ok = d2 <= 1e-6 and d1 <= 1e-5
    return CriterionResult(1, "spectral golden values", ok,
                           f"|d(alpha=2)|={d2:.2e} (tol 1e-6), "
                           f"|d(alpha=1)|={d1:.2e} (tol 1e-5)")


@_timed
def criterion_2(ctx):
    """Eigenvalue growth law across three alphas."""
    parts = []
    ok = True
    for a in (0.8, 1.0, 1.5):
        rep = spectral.weyl_check(ctx.system(a, 41, accuracy=1e-6))
        e40 = rep.error_at(40)
        decr = rep.decreasing_over([10, 20, 40])
        ok &= e40 < 0.02 and decr
        parts.append(f"alpha={a}: err(40)={e40:.4f} decreasing={decr}")
    return CriterionResult(2, "growth-law agreement", ok, "; ".join(parts))


@_timed
def criterion_3(ctx):
    """Exact q-rescaling against direct solves at q in {0.5, 5}."""
    base = ctx.system(1.0, 5)
    worst = 0.0
    for q in (0.5, 5.0):
        direct = ctx.system(1.0, 5, q=q)
        scaled = spectral.rescale_to_q(base, q)
        rel = np.abs(direct.eigenvalues - scaled.eigenvalues) / scaled.eigenvalues
        worst = max(worst, float(rel.max()))
    return CriterionResult(3, "q-scaling law", worst <= 1e-8,
                           f"max relative mismatch {worst:.2e} (tol 1e-8)")


@_timed
def criterion_4(ctx):
    """Fundamental solution against the ground-state product form."""
    s = ctx.system(1.0, 3)
    kap = 2.0 / 3.0
    grids = pde.PdeGrids(x_max=8.0, dx=1.0 / 256.0, cfl_pot=0.02)
    devs = {}
    for rho in (200.0, 400.0):
        for xi in (0.0, 0.5):
            g = pde.fundamental_solution_g(xi, 0.5, rho, 1.0, grids,
                                           gauge_lambda0="discrete")
            pred = float(s.phi(0, xi)) * 0.5 ** (-kap / 4) * float(s.phi(0, 0.0))
            devs[(rho, xi)] = abs(g.renormalized(0.0) - pred) / pred
    ok = all(d < 0.05 for d in devs.values())
    ratios = [devs[(200.0, xi)] / devs[(400.0, xi)] for xi in (0.0, 0.5)]
    ok &= all(1.5 <= r <= 3.0 for r in ratios)
    return CriterionResult(4, "product-form deviation", ok,
                           f"devs={[f'{v:.2e}' for v in devs.values()]}, "
                           f"halving ratios={[f'{r:.2f}' for r in ratios]} (band [1.5, 3])")


@_timed
def criterion_5(ctx):
    """Finite-difference / eigenbasis cross-validation."""
    s = ctx.system(1.0, 26, accuracy=1e-7)
    res = pde.cross_validate_galerkin(s, 100.0, 0.4, 1.0, xi=0.0, n_modes=24,
                                      grids=pde.PdeGrids(x_max=8.0, dx=1 / 128,
                                                         cfl_pot=0.02))
    ok = res["rel_l2"] <= 0.02
    return CriterionResult(5, "solver cross-validation", ok,
                           f"relative L2 distance {res['rel_l2']:.2e} (tol 2e-2)")


@_timed
def criterion_6(ctx):
    """Constant-coefficient closed form for the expansion coefficients."""
    s = ctx.system(1.0, 8, accuracy=1e-7)
    d_mat, a_mat, _ = pde.galerkin_matrices(s, 8)
    q = pde.PiecewiseQ.constant(1.3, 0.3)
    c0 = pde.initial_coefficients(s, 1.3, 0.5, 8)
    path = pde.evolve_coefficients(c0, q, 10.0, d_mat, a_mat, 1.0)
    drift = abs(path.coefficients[-1, 0] - c0[0])
    lam = s.eigenvalues
    expect = c0[1] * math.exp(-10.0 * (lam[1] - lam[0]) * 0.3 * 1.3 ** (2.0 / 3.0))
    rel = abs(path.coefficients[-1, 1] - expect) / abs(expect)
    ok = drift <= 1e-10 and rel <= 1e-8
    return CriterionResult(6, "constant-coefficient closed form", ok,
                           f"ground drift {drift:.2e} (tol 1e-10), "
                           f"first-mode decay mismatch {rel:.2e} (tol 1e-8)")


@_timed
def criterion_7(ctx):
    """Coefficient norm never increases along any run."""
    s = ctx.system(1.0, 12, accuracy=1e-7)
    d_mat, a_mat, _ = pde.galerkin_matrices(s, 12)
    worst = -math.inf
    for rho, T in ((30.0, 0.5), (100.0, 0.4)):
        _, e1, e2 = pde.default_epsilons(rho, T, 2.0 / 3.0)
        pair = pde.build_barriers(T, e1, e2, 1.0)
        for qq in (pair.q_star, pair.q_upper):
            c0 = pde.initial_coefficients(s, qq.value(0.0), 0.6, 12)
            path = pde.evolve_coefficients(c0, qq, rho, d_mat, a_mat, 1.0)
            norms = path.norms()
            worst = max(worst, float(np.diff(norms).max() / norms[0]))
    return CriterionResult(7, "coefficient norm monotone", worst <= 1e-10,
                           f"largest relative uptick {worst:.2e} (slack 1e-10)")


@_timed
def criterion_8(ctx):
    """Monte Carlo bridge kernel against the deterministic solver."""
    p = ModelParams(alpha=1.0, beta=1.0, rate_family=RateFamily.POW_CLAMP)
    grids = pde.PdeGrids(x_max=8.0, dx=1 / 128, cfl_pot=0.02)
    cache = {}
    zs = []
    for y in (0.0, 0.5, 1.0):
        est = mc.estimate_gtilde(4.0, 0.0, 16.0, y, p, 100_000, 0.04, seed=505)
        ref = pde.kernel_G_from_g(4.0, 0.0, 16.0, y, 1.0, 1.0, grids=grids,
                                  _cache=cache)
        zs.append((est.value - ref) / est.stderr)
    ok = all(abs(z) <= 3.0 for z in zs)
    return CriterionResult(8, "kernel cross-oracle", ok,
                           f"z-scores {[f'{z:+.2f}' for z in zs]} (tol 3)")


@_timed
def criterion_9(ctx):
    """Total-mass envelope stays in a factor-2 band along the ladder."""
    p = ModelParams(alpha=1.0, beta=1.0, rate_family=RateFamily.POW_CLAMP)
    lam0 = ctx.system(1.0, 3).eigenvalues[0]
    consts = derived_constants(p, lam0)
    kap, th1 = consts.kappa, consts.theta1
    ratios = []
    for (s, t) in ((16.0, 64.0), (16.0, 128.0), (16.0, 256.0)):
        est = mc.estimate_total_mass(s, t, 0.0, p, 100_000, 0.1, seed=42)
        pred = (t / s) ** (kap / 4) * math.exp(th1 * (s ** (1 - kap) - t ** (1 - kap)))
        ratios.append(est.value / pred)
    med = sorted(ratios)[1]
    ok = all(med / 2.0 <= r <= 2.0 * med for r in ratios)
    return CriterionResult(9, "total-mass envelope band", ok,
                           f"normalized ratios {[f'{r:.3f}' for r in ratios]}, "
                           f"median {med:.3f} (factor-2 band)")


@_timed
def criterion_10(ctx):
    """Quadratic-angle decay exponents."""
    r1 = mc.alpha2_exponent_fit(1.0, [2.0, 4.0, 8.0, 16.0], 512.0, 30_000, 0.1, seed=99)
    r3 = mc.alpha2_exponent_fit(3.0, [2.0, 4.0, 8.0, 16.0], 512.0, 30_000, 0.1, seed=99)
    ok = abs(r1["slope"] - 0.5) <= 0.05 and abs(r3["slope"] - 1.0) <= 0.10
    return CriterionResult(10, "quadratic-angle exponent", ok,
                           f"beta=1 slope {r1['slope']:.4f} (0.50 +- 0.05), "
                           f"beta=3 slope {r3['slope']:.4f} (1.00 +- 0.10)")


@_timed
def criterion_11(ctx):
    """Bridge barrier formula against its unbiased MC estimator."""
    zs = []
    for (K, t, seed) in ((1.0, 1.0, 11), (1.5, 2.0, 12), (0.8, 0.5, 13)):
        exact = mc.bridge_barrier_probability(0.0, 0.0, t, 0.0, K)
        est = mc.bridge_barrier_mc(0.0, 0.0, t, 0.0, K, 100_000, 1e-3, seed=seed)
        zs.append((est.value - exact) / est.stderr)
    ok = all(abs(z) <= 3.0 for z in zs)
    return CriterionResult(11, "bridge barrier formula", ok,
                           f"z-scores {[f'{z:+.2f}' for z in zs]} (tol 3)")


@_timed
def criterion_12(ctx):
    """Single- and two-spine moment identities."""
    p_sin = ModelParams(alpha=1.0, rate_family=RateFamily.SIN_POW)
    p_hom = ModelParams(alpha=1.0, rate_family=RateFamily.HOMOGENEOUS)
    r1 = sim.many_to_one_check(p_sin, 2.0, sim.PathFunctional("x_indicator", x0=1.0),
                               2000, 100_000, seed=12)
    r2 = sim.many_to_two_check(p_hom, 1.5, sim.PathFunctional("one"),
                               sim.PathFunctional("one"), 10_000, 50_000, seed=13)
    exact2 = 2.0 * math.exp(1.5) * (math.exp(1.5) - 1.0)
    rel2 = abs(r2["sim"] - exact2) / exact2
    f = sim.PathFunctional("x_indicator", x0=0.5)
    r3 = sim.many_to_two_check(p_sin, 1.5, f, f, 8000, 100_000, seed=14)
    ok = abs(r1["z"]) <= 3.0 and rel2 <= 0.05 and abs(r3["z"]) <= 3.0
    return CriterionResult(12, "moment identities", ok,
                           f"one-spine z={r1['z']:+.2f} (tol 3); pair moment rel "
                           f"{rel2:.3f} (tol 0.05); inhomogeneous z={r3['z']:+.2f} (tol 3)")


@_timed
def criterion_13(ctx):
    """Exact lineage inclusion chain across the angular exponent."""
    try:
        runs = sim.run_coupled([0.5, 1.0, 2.0, 4.0], 10.0, 31,
                               snapshot_times=[2.5, 5.0, 7.5])
    except AssertionError as exc:
        return CriterionResult(13, "coupling inclusion chain", False, str(exc))
    sizes = [runs[k][0].size for k in ("0.5", "1.0", "2.0", "4.0")]
    return CriterionResult(13, "coupling inclusion chain", True,
                           f"chain verified at every snapshot; sizes {sizes}")


@_timed
def criterion_14(ctx):
    """Lattice model: exact doubling and offspring-frequency CIs."""
    p_hom = ModelParams(alpha=1.0, rate_family=RateFamily.HOMOGENEOUS)
    pop, _ = sim.run_discrete(p_hom, 10, 7)
    ok = pop.size == 1024
    p_sin = ModelParams(alpha=1.0, rate_family=RateFamily.SIN_POW)
    thetas, kids = [], []
    rep = 0
    while sum(len(t) for t in thetas) < 10_000:
        _, ev = sim.run_discrete(p_sin, 9, sim.derive_seed(4321, rep),
                                 record_events=True)
        for th, kd in ev:
            thetas.append(th)
            kids.append(kd)
        rep += 1
    theta = np.concatenate(thetas)
    kd = np.concatenate(kids)
    from .model import branching_rate

    prob = branching_rate(theta, p_sin)
    bins = np.linspace(-math.pi, math.pi, 13)
    which = np.digitize(theta, bins) - 1
    worst = 0.0
    for b in range(12):
        selbin = which == b
        if selbin.sum() < 50:
            continue
        var_p = float((prob[selbin] * (1 - prob[selbin])).sum())
        if var_p == 0:
            continue
        z = (float((kd[selbin] - 1).sum()) - float(prob[selbin].sum())) / math.sqrt(var_p)
        worst = max(worst, abs(z))
    ok &= worst <= 2.576
    return CriterionResult(14, "lattice offspring statistics", ok,
                           f"|N(10)|={pop.size} (=2^10); worst bin |z|={worst:.2f} "
                           f"(99% CI bound 2.576)")


@_timed
def criterion_15(ctx):
    """Extremes regression band at desk scale.

    Both clauses are asserted exactly as stated.  The centered-median band
    passes; the gap-median band [0, 1] with a shrinking trend is known to
    fail at t in {8, 12} at this scale (the angular spread of the radius
    argmax is still comparable to its localization tube), and is reported
    honestly.
    """
    p = ModelParams(alpha=1.0, beta=1.0, rate_family=RateFamily.SIN_POW)
    lam0 = ctx.system(1.0, 3).eigenvalues[0]
    consts = derived_constants(p, lam0)
    rep = sim.porism_probe(p, [8.0, 12.0, 16.0], 200, seed=2024, consts=consts)
    centered = [rep["rows"][t]["centered_median"] for t in (8.0, 12.0, 16.0)]
    gaps = [rep["rows"][t]["gap_median"] for t in (8.0, 12.0, 16.0)]
    band_ok = all(-6.0 <= c <= 6.0 for c in centered)
    gap_ok = all(0.0 <= g <= 1.0 for g in gaps) and gaps[0] > gaps[1] > gaps[2]
    ok = band_ok and gap_ok
    return CriterionResult(15, "extremes regression band", ok,
                           f"centered medians {[f'{c:+.2f}' for c in centered]} "
                           f"(band [-6, 6]: {'ok' if band_ok else 'FAIL'}); "
                           f"gap medians {[f'{g:.3f}' for g in gaps]} "
                           f"(band [0, 1] shrinking: {'ok' if gap_ok else 'FAIL'})")


@_timed
def criterion_16(ctx):
    """Byte-identical reruns of every stochastic operation."""
    import tempfile
    from pathlib import Path

    from . import operations

    quick = {
        "mass": {"s": 4.0, "t_end": 8.0, "alpha": 1.0, "beta": 1.0,
                 "n": 2000, "step": 0.1, "seed": 5},
        "gtilde": {"s": 4.0, "t_end": 8.0, "y": 0.5, "alpha": 1.0, "beta": 1.0,
                   "n": 2000, "step": 0.1, "seed": 5},
        "alpha2": {"beta": 1.0, "s_list": "2,4", "t_end": 64.0, "n": 1000,
                   "step": 0.1, "seed": 5},
        "simulate": {"alpha": 1.0, "t_end": 4.0, "snapshots": "2,4", "seed": 5},
        "couple": {"alphas": "1,2", "t_end": 4.0, "snapshots": "2,4", "seed": 5},
        "discrete": {"alpha": 1.0, "n_end": 8, "seed": 5},
        "mto1": {"alpha": 1.0, "t_end": 1.5, "functional": "x_indicator",
                 "x0": 0.5, "n_sim": 50, "n_mc": 2000, "seed": 5},
        "mto2": {"alpha": 1.0, "t_end": 1.0, "n_sim": 50, "n_mc": 2000, "seed": 5},
        "porism": {"alpha": 1.0, "t_list": "2,4", "replicates": 20, "seed": 5},
    }
    mismatches = []
    for name, args in quick.items():
        op = operations.REGISTRY[name]
        outputs = []
        for run in range(2):
            with_dir = Path(tempfile.mkdtemp(prefix=f"det_{name}_{run}_"))
            files = op.execute(args, with_dir)
            outputs.append({Path(f).name: Path(f).read_bytes() for f in files})
        if outputs[0] != outputs[1]:
            mismatches.append(name)
    ok = not mismatches
    detail = "all stochastic operations byte-identical on rerun" if ok else \
        f"mismatched outputs: {mismatches}"
    return CriterionResult(16, "seeded determinism", ok, detail)


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
                criterion_11, criterion_12, criterion_13, criterion_14,
                criterion_15, criterion_16]


def run_suite(numbers=None, ctx=None):
    ctx = ctx or AcceptanceContext()
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if numbers and i not in numbers:
            continue
        results.append(fn(ctx))
    return results
