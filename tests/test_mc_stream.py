"""Pins the random stream of every Monte Carlo site.

Each site is run on a short grid with a sample count that leaves a
remainder chunk (25,000 against the 20,000 chunk; 12,500 against the
two-spine 10,000 chunk).  Any change of draws, draw order or chunk keys
moves these values far beyond the relative 1e-12 tolerance, which only
absorbs last-digit libm differences between CPUs.
"""

import numpy as np
import pytest

from bbmlab import mc, sim
from bbmlab.mc import _chunks, _march, _weight_grid
from bbmlab.model import ModelParams, RateFamily

P11 = ModelParams(alpha=1.0, beta=1.0, rate_family=RateFamily.POW_CLAMP)
P_SIN = ModelParams(alpha=1.0, rate_family=RateFamily.SIN_POW)
REL = 1e-12


def close(value, pinned):
    assert value == pytest.approx(pinned, rel=REL, abs=0.0)


def marched_paths(seed, n, s, t, x, step, end=None):
    """The grid and the n paths, one row each, that the estimators march
    from x: the chunks of `_chunks`, column by column through `_march`."""
    grid = _weight_grid(s, t, step)
    rows = [np.column_stack([col for _, col in _march(rng, grid, np.full(size, float(x)), end)])
            for rng, size in _chunks(seed, n)]
    return grid, np.concatenate(rows)


@pytest.mark.parametrize("branch, pinned", [
    ("zero", (0.8604251212743067, 0.0004666407134970602)),
    ("minus", (0.9267008037002813, 0.00025696238600693715)),
])
def test_total_mass(branch, pinned):
    env = mc.make_envelope(1.0, 1.0, 1.0, 1.0)
    est = mc.estimate_total_mass(1.0, 1.6, 0.3, P11, 25_000, 0.1, seed=5,
                                 envelope=env, branch=branch)
    close((est.value, est.stderr, est.integrator_step), pinned + (0.08571428571428563,))
    assert est.n_samples == 25_000


def test_gtilde():
    est = mc.estimate_gtilde(1.0, 0.2, 1.6, -0.3, P11, 25_000, 0.1, seed=6)
    close((est.value, est.stderr), (0.384464813041351, 8.978343174090226e-05))
    assert est.n_samples == 25_000


def test_localization_probe():
    rep = mc.localization_probe(1.0, 1.6, 0.2, -0.3, 0.5, P11, 25_000, 0.1, seed=7)
    close((rep["ratio"], rep["weight_total"], rep["weight_exit"]),
          (0.0073573934972536855, 0.9194128116062659, 0.006764481841403668))
    assert rep["n_samples"] == 25_000


def test_alpha2_exponent_fit():
    rep = mc.alpha2_exponent_fit(1.0, [1.0, 1.1, 1.2], 1.6, 25_000, 0.1, seed=8)
    close((rep["slope"], rep["intercept"], rep["r2"]),
          (0.28914130098365803, 0.047349450857407945, 0.9981980825449622))
    close([v for point in rep["points"] for v in point],
          [-0.4700036292457356, -0.08916515129035708, -0.3746934494414107,
           -0.05969675743172608, -0.28768207245178107, -0.03650731967277267])


def test_bridge_barrier_mc():
    est = mc.bridge_barrier_mc(0.0, 0.1, 0.5, -0.2, 0.8, 25_000, 0.1, seed=9)
    close((est.value, est.stderr, est.integrator_step),
          (0.06145082788282476, 0.0012174733930515067, 0.1))
    assert est.n_samples == 25_000


@pytest.mark.parametrize("scheme, y, rows", [
    ("forward", None, [
        [0.3, 0.07756768279899715, 0.6887630970484854, 0.6198584666116497,
         1.2094676364391446, 1.4506688880761625],
        [0.3, 0.47222091923828013, 0.7652239409713133, 0.10995469056053198,
         -0.20517616138452904, 0.26696302260175736],
        [0.3, 0.06318689112808223, -0.1399216980521876, -0.09895015239543567,
         -0.7325920995875936, -0.6459242731798264],
        [0.3, 0.394760996906026, 0.06852226185427374, -0.4155707624992503,
         -0.398326307695123, -0.09243356222471699]]),
    ("bridge", -0.2, [
        [0.3, 0.001050487338304651, 0.48009862092033884, 0.19713868545179425,
         0.4154859849606899, -0.2],
        [0.3, 0.35403907302571813, 0.4692773649756995, -0.28884019256367743,
         -0.46725125865328543, -0.2],
        [0.3, -0.01181208376026674, -0.2347562607771309, -0.18971771357402512,
         -0.6429113744908359, -0.2],
        [0.3, 0.2847568122790085, -0.11896342304406177, -0.5412359145983225,
         -0.35842428636929813, -0.2]]),
])
def test_path_sampler(scheme, y, rows):
    # the forward scheme has no endpoint; the bridge one ends at y
    assert (scheme == "bridge") == (y is not None)
    grid, paths = marched_paths(10, 25_000, 1.0, 1.5, 0.3, 0.1, end=y)
    assert paths.shape == (25_000, 6)
    assert np.array_equal(grid, np.linspace(1.0, 1.5, 6))
    # first and last path of the full chunk and of the remainder chunk
    np.testing.assert_allclose(paths[[0, 19_999, 20_000, 24_999]], rows, rtol=REL, atol=0.0)


@pytest.mark.parametrize("functional, seed, pinned", [
    (sim.PathFunctional("x_cylinder", times=(0.2, 0.5), thresholds=(-0.3, -0.2)), 11,
     (0.7304871665859085, 0.004257590160735027)),
    (sim.PathFunctional("r_indicator", r0=0.3), 12,
     (1.136739971495716, 0.0024111703568617513)),
])
def test_spine_one(functional, seed, pinned):
    close(sim._mc_spine_one(P_SIN, 0.5, functional, 25_000, seed, dt=0.1), pinned)


def test_spine_two():
    f = sim.PathFunctional("x_indicator", x0=0.0)
    g = sim.PathFunctional("one")
    close(sim._mc_spine_two(P_SIN, 0.5, f.on_paths, g.on_paths, 12_500, 13, dt=0.1),
          (0.40918398248884363, 0.00489112159455008))
