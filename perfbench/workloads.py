"""The four benchmark workloads, built from the acceptance criteria's objects.

Each workload is a set-up and a pass: `setup(bb, offset)` prepares what the
passes need (timed as set-up), and `run(bb, state, checks)` does the work,
checks every result and returns its numeric outputs for the result digest.
A pass may run several times on one state and must give the same outputs.
`bb` holds the bbmlab modules; every call goes through a module attribute, so
the traced run sees it.

The full criteria take minutes, too long to repeat for every measurement, so
each workload is a slice of its criteria: every item keeps the
criterion's parameters (steps, grids, tolerances) and only the number of
items, replicates or Monte Carlo samples is cut.  The cuts are listed in
perfbench/README.md.

Seeds: workload seed 0 reproduces the criteria's own seeds; any other seed
adds the same offset to every seed and is the holdout.  Clauses that are
exact (deterministic values, lattice size, inclusion chain, report status)
gate on every seed.  Statistical clauses (z-scores, bands, fitted slopes,
confidence bins) are pinned-seed regression checks, as in the acceptance
suite, so they gate on seed 0 and are reported on holdout seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

DEFAULT_SEED = 0


class Checks:
    """Named pass/fail clauses of one pass."""

    def __init__(self, seed):
        self.gate_statistical = seed == DEFAULT_SEED
        self.rows = []

    def expect(self, name, ok, detail, statistical=False):
        gated = self.gate_statistical or not statistical
        self.rows.append({"name": name, "ok": bool(ok), "gated": gated, "detail": detail})

    def xfail(self, name, fn, exc_type, detail):
        """A known defect, checked like a strict xfail: the check passes
        while fn raises exc_type and fails (XPASS) once it stops raising."""
        try:
            fn()
        except exc_type as exc:
            self.expect(name, True, f"xfail as expected: {exc} ({detail})")
        else:
            self.expect(name, False, f"XPASS: the known defect no longer shows ({detail})")

    def note(self, name, ok, detail):
        """A clause that is reported on every seed and never gated."""
        self.rows.append({"name": name, "ok": bool(ok), "gated": False, "detail": detail})


def result_digest(outputs) -> str:
    """Hash of a workload's numeric outputs (floats by repr) and of the
    harness digests it collected."""
    blob = json.dumps(outputs, sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _floats(values):
    return [float(v) for v in values]


# ---------------------------------------------------------------------------
# solvers: criteria 1-7, deterministic code only
# ---------------------------------------------------------------------------

def solvers_setup(bb, offset):
    # nothing is seeded: the workload runs the same inputs on every seed
    return {}


def solvers_run(bb, state, chk):
    acc, pde = bb.acceptance, bb.pde
    # solves are shared within a pass through one context, as in the suite
    ctx = acc.AcceptanceContext()
    results = [acc.criterion_1(ctx), acc.criterion_3(ctx)]

    # one of criterion 4's four solves (rho=200, xi=0); the halving-ratio
    # clause needs the rho=400 pair and is left to the criterion
    grids = pde.PdeGrids(x_max=8.0, dx=1.0 / 256.0, cfl_pot=0.02)
    g = pde.fundamental_solution_g(0.0, 0.5, 200.0, 1.0, grids, gauge_lambda0="discrete")
    pred = float(ctx.system(1.0, 3).phi(0, 0.0)) ** 2 * 0.5 ** (-(2.0 / 3.0) / 4)
    dev = abs(g.renormalized(0.0) - pred) / pred
    chk.expect("c4.product_form_rho200_xi0", dev < 0.05, f"deviation {dev:.2e} (tol 0.05)")

    results += [acc.criterion_5(ctx), acc.criterion_6(ctx), acc.criterion_7(ctx)]
    for r in results:
        chk.expect(f"c{r.number}.{r.name.replace(' ', '_')}", r.passed, r.details)
    return {"eigenvalues": {repr(k): _floats(v.eigenvalues) for k, v in ctx._cache.items()},
            "c4_dev": dev, "details": [r.details for r in results]}


# ---------------------------------------------------------------------------
# mc_kernels: criteria 8-11, Philox chunks and path marching
# ---------------------------------------------------------------------------

# Monte Carlo samples per estimate; the criteria use 100k, 100k, 30k, 100k
MC_SAMPLES = {"c8": 10_000, "c9": 8_000, "c10": 2_500, "c11": 6_000}


def mc_setup(bb, offset):
    p = bb.model.ModelParams(alpha=1.0, beta=1.0, rate_family=bb.model.RateFamily.POW_CLAMP)
    lam0 = bb.spectral.solve_spectrum(1.0, 3).eigenvalues[0]
    grids = bb.pde.PdeGrids(x_max=8.0, dx=1 / 128, cfl_pot=0.02)
    cache = {}
    refs = {y: bb.pde.kernel_G_from_g(4.0, 0.0, 16.0, y, 1.0, 1.0, grids=grids, _cache=cache)
            for y in (0.0, 0.5, 1.0)}
    return {"params": p, "lam0": float(lam0), "refs": refs, "offset": offset}


def mc_run(bb, st, chk):
    mc, p, off = bb.mc, st["params"], st["offset"]
    out = {"refs": st["refs"], "lam0": st["lam0"]}

    zs = []
    for y, ref in st["refs"].items():
        est = mc.estimate_gtilde(4.0, 0.0, 16.0, y, p, MC_SAMPLES["c8"], 0.04, seed=505 + off)
        zs.append((est.value - ref) / est.stderr)
        out[f"c8_y{y:g}"] = [est.value, est.stderr]
    chk.expect("c8.kernel_cross_oracle", all(abs(z) <= 3.0 for z in zs),
               f"z-scores {[round(float(z), 2) for z in zs]} (tol 3)", statistical=True)

    consts = bb.model.derived_constants(p, st["lam0"])
    kap, th1 = consts.kappa, consts.theta1
    ratios = []
    for s, t in ((16.0, 64.0), (16.0, 128.0), (16.0, 256.0)):
        est = mc.estimate_total_mass(s, t, 0.0, p, MC_SAMPLES["c9"], 0.1, seed=42 + off)
        pred = (t / s) ** (kap / 4) * math.exp(th1 * (s ** (1 - kap) - t ** (1 - kap)))
        ratios.append(est.value / pred)
        out[f"c9_t{t:g}"] = [est.value, est.stderr]
    med = sorted(ratios)[1]
    chk.expect("c9.total_mass_band", all(med / 2.0 <= r <= 2.0 * med for r in ratios),
               f"ratios {[round(float(r), 3) for r in ratios]} (factor-2 band)", statistical=True)

    for beta, target, tol in ((1.0, 0.5, 0.05), (3.0, 1.0, 0.10)):
        fit = mc.alpha2_exponent_fit(beta, [2.0, 4.0, 8.0, 16.0], 512.0, MC_SAMPLES["c10"],
                                     0.1, seed=99 + off)
        chk.expect(f"c10.slope_beta{beta:g}", abs(fit["slope"] - target) <= tol,
                   f"slope {fit['slope']:.4f} ({target} +- {tol})", statistical=True)
        out[f"c10_beta{beta:g}"] = [fit["slope"], fit["intercept"], fit["r2"]]

    zs = []
    for K, t, seed in ((1.0, 1.0, 11), (1.5, 2.0, 12), (0.8, 0.5, 13)):
        exact = mc.bridge_barrier_probability(0.0, 0.0, t, 0.0, K)
        est = mc.bridge_barrier_mc(0.0, 0.0, t, 0.0, K, MC_SAMPLES["c11"], 1e-3, seed=seed + off)
        zs.append((est.value - exact) / est.stderr)
        out[f"c11_K{K:g}"] = [est.value, est.stderr]
    chk.expect("c11.bridge_barrier", all(abs(z) <= 3.0 for z in zs),
               f"z-scores {[round(float(z), 2) for z in zs]} (tol 3)", statistical=True)
    return out


# ---------------------------------------------------------------------------
# sim_replicates: criteria 12 and 14, many tiny populations
# ---------------------------------------------------------------------------

# (replicates, spine samples) per moment check; the criterion uses
# (2000, 100k), (10000, 50k) and (8000, 100k)
MOMENT_SIZES = {"one_spine": (250, 12_500), "pair_homogeneous": (1250, 6_250),
                "pair_inhomogeneous": (1000, 12_500)}


def sim_replicates_setup(bb, offset):
    m = bb.model
    return {"p_sin": m.ModelParams(alpha=1.0, rate_family=m.RateFamily.SIN_POW),
            "p_hom": m.ModelParams(alpha=1.0, rate_family=m.RateFamily.HOMOGENEOUS),
            "offset": offset}


def sim_replicates_run(bb, st, chk):
    sim, off = bb.sim, st["offset"]
    p_sin, p_hom = st["p_sin"], st["p_hom"]
    out = {}

    n_sim, n_mc = MOMENT_SIZES["one_spine"]
    r1 = sim.many_to_one_check(p_sin, 2.0, sim.PathFunctional("x_indicator", x0=1.0),
                               n_sim, n_mc, seed=12 + off)
    chk.expect("c12.one_spine", abs(r1["z"]) <= 3.0, f"z={r1['z']:+.2f} (tol 3)",
               statistical=True)
    n_sim, n_mc = MOMENT_SIZES["pair_homogeneous"]
    r2 = sim.many_to_two_check(p_hom, 1.5, sim.PathFunctional("one"),
                               sim.PathFunctional("one"), n_sim, n_mc, seed=13 + off)
    exact2 = 2.0 * math.exp(1.5) * (math.exp(1.5) - 1.0)
    rel2 = abs(r2["sim"] - exact2) / exact2
    # the 0.05 tolerance is calibrated for the criterion's 10,000 replicates
    # (relative standard error 0.023); at 1,250 replicates the standard error
    # is 0.064, so the value is reported but not gated (README, "Checks")
    chk.note("c12.pair_moment_homogeneous", rel2 <= 0.05, f"rel {rel2:.3f} (tol 0.05)")
    f = sim.PathFunctional("x_indicator", x0=0.5)
    n_sim, n_mc = MOMENT_SIZES["pair_inhomogeneous"]
    r3 = sim.many_to_two_check(p_sin, 1.5, f, f, n_sim, n_mc, seed=14 + off)
    chk.expect("c12.pair_inhomogeneous", abs(r3["z"]) <= 3.0, f"z={r3['z']:+.2f} (tol 3)",
               statistical=True)
    for key, r in (("one_spine", r1), ("pair_hom", r2), ("pair_inhom", r3)):
        out[f"c12_{key}"] = [r["sim"], r["sim_se"], r["mc"], r["mc_se"]]

    pop, _ = sim.run_discrete(p_hom, 10, 7 + off)
    chk.expect("c14.lattice_doubling", pop.size == 1024, f"|N(10)|={pop.size} (=2^10)")
    thetas, kids = [], []
    rep = 0
    while sum(len(t) for t in thetas) < 10_000:
        _, ev = sim.run_discrete(p_sin, 9, sim.derive_seed(4321 + off, rep), record_events=True)
        for th, kd in ev:
            thetas.append(th)
            kids.append(kd)
        rep += 1
    worst = _worst_bin_z(bb, thetas, kids, p_sin)
    chk.expect("c14.offspring_frequencies", worst <= 2.576,
               f"worst bin |z|={worst:.2f} (99% CI bound 2.576)", statistical=True)
    out["c14"] = [pop.size, rep, worst]
    return out


def _worst_bin_z(bb, thetas, kids, params):
    np = bb.np
    theta = np.concatenate(thetas)
    kd = np.concatenate(kids)
    prob = bb.model.branching_rate(theta, params)
    which = np.digitize(theta, np.linspace(-math.pi, math.pi, 13)) - 1
    worst = 0.0
    for b in range(12):
        sel = which == b
        if sel.sum() < 50:
            continue
        var_p = float((prob[sel] * (1 - prob[sel])).sum())
        if var_p == 0:
            continue
        z = (float((kd[sel] - 1).sum()) - float(prob[sel].sum())) / math.sqrt(var_p)
        worst = max(worst, abs(z))
    return worst


# ---------------------------------------------------------------------------
# sim_large: a coupled experiment through the harness, and a big lattice
# ---------------------------------------------------------------------------

# The experiment's cost follows its random population sizes: across seeds the
# alpha=4 member at t=12 ranges from ~4e3 to ~2e5 particles.  Its seed is
# therefore pinned, so that the timing measures the code and not the draw;
# the workload seed enters the lattice run (exactly 2^20 particles on every
# seed) and a small holdout coupled run.
LARGE_CONFIG = """\
[experiment]
name = sim-large
operation = couple
seed = 7
replicates = 4

[params]
alphas = 0.5,1,2,4
t_end = 12
snapshots = 6,12
"""
ALPHAS = [0.5, 1.0, 2.0, 4.0]


def sim_large_setup(bb, offset):
    root = Path(tempfile.mkdtemp(prefix="sim_large_", dir=bb.scratch))
    cfg = root / "experiment.cfg"
    cfg.write_text(LARGE_CONFIG)
    return {"root": root, "config": cfg, "offset": offset, "passes": 0}


def sim_large_run(bb, st, chk):
    sim, harness, off = bb.sim, bb.harness, st["offset"]
    out = {}
    spec = harness.spec_from_config(st["config"].read_text())
    # a fresh directory per pass: the harness skips cells it finds done
    st["passes"] += 1
    runs = st["root"] / f"runs{st['passes']}"
    try:
        record = harness.run_experiment(spec, runs)
    except AssertionError as exc:
        chk.expect("experiment.inclusion_chain", False, str(exc))
    else:
        chk.expect("experiment.inclusion_chain", True,
                   f"{len(record.digests)} files, chain verified in every cell")
        out["manifest_digests"] = record.digests
    _, code = harness.report(runs)
    chk.expect("experiment.report_exit", code == 0, f"report exit code {code}")

    p_hom = bb.model.ModelParams(alpha=1.0, rate_family=bb.model.RateFamily.HOMOGENEOUS)
    pop, _ = sim.run_discrete(p_hom, 20, 7 + off)
    chk.expect("lattice.size", pop.size == 2 ** 20, f"|N(20)|={pop.size} (=2^20)")
    out["lattice"] = [pop.size, float(pop.x.sum()), float(pop.y.sum()),
                      float((pop.x ** 2 + pop.y ** 2).sum())]

    try:
        members = sim.run_coupled(ALPHAS, 8.0, 31 + off, snapshot_times=[4.0, 8.0])
    except AssertionError as exc:
        chk.expect("holdout.inclusion_chain", False, str(exc))
    else:
        out["holdout_sizes"] = [m[0].size for m in members.values()]
        chk.expect("holdout.inclusion_chain", True, f"sizes {out['holdout_sizes']}")

    chk.xfail("defect_a.truncated_chain",
              lambda: sim.run_coupled(ALPHAS, 8.0, 7, snapshot_times=[4.0, 8.0], cap=1000),
              AssertionError, "alpha=4 member truncated by the population cap")
    return out


def sim_large_cleanup(state):
    shutil.rmtree(state["root"], ignore_errors=True)


WORKLOADS = {
    "solvers": (solvers_setup, solvers_run, None),
    "mc_kernels": (mc_setup, mc_run, None),
    "sim_replicates": (sim_replicates_setup, sim_replicates_run, None),
    "sim_large": (sim_large_setup, sim_large_run, sim_large_cleanup),
}
