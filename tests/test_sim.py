import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from bbmlab.errors import ConfigurationError, DomainError
from bbmlab.model import ModelParams, RateFamily, RateTable, derived_constants
from bbmlab.rng import CounterRNG
from bbmlab.sim import (
    PathFunctional,
    _chain_holds,
    _id_rows,
    _Ledger,
    _mc_spine_one,
    _replicates,
    derive_seed,
    export_stats_csv,
    many_to_one_check,
    many_to_two_check,
    porism_probe,
    run_continuous,
    run_coupled,
    run_discrete,
)

from oracles import functional_by_ancestor_walk

P_SIN = ModelParams(alpha=1.0, rate_family=RateFamily.SIN_POW)
P_HOM = ModelParams(alpha=1.0, rate_family=RateFamily.HOMOGENEOUS)


def flat_table(p):
    return ModelParams(alpha=1.0, rate_family=RateFamily.CUSTOM,
                       table=RateTable(tuple([p] * 17)))


class TestContinuous:
    def test_determinism_bit_exact(self):
        a, _ = run_continuous(P_SIN, 4.0, 99, snapshot_times=[2.0])
        b, _ = run_continuous(P_SIN, 4.0, 99, snapshot_times=[2.0])
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(a.lid_hi, b.lid_hi) and np.array_equal(a.lid_lo, b.lid_lo)

    def test_yule_mean_population(self):
        sizes = [run_continuous(P_HOM, 8.0, derive_seed(123, r))[0].size
                 for r in range(500)]
        mean = np.mean(sizes)
        assert abs(mean - math.exp(8.0)) / math.exp(8.0) < 0.05

    def test_small_t_analytic(self):
        sizes = [run_continuous(P_HOM, 1.0, derive_seed(9, r))[0].size
                 for r in range(3000)]
        assert np.mean(sizes) == pytest.approx(math.e, rel=0.03)

    def test_rate_zero_single_brownian(self):
        pop, _ = run_continuous(flat_table(0.0), 6.0, 5)
        assert pop.size == 1 and not pop.truncated

    def test_smaller_alpha_fewer_particles(self):
        small, _ = run_continuous(ModelParams(alpha=0.5), 9.0, 42)
        large, _ = run_continuous(ModelParams(alpha=3.0), 9.0, 42)
        assert small.size <= large.size

    def test_birth_before_proposal(self):
        pop, _ = run_continuous(P_SIN, 5.0, 17)
        assert np.all(pop.birth <= pop.next_proposal)

    def test_unique_ids(self):
        pop, _ = run_continuous(P_HOM, 7.0, 3)
        assert pop.size > 100
        assert len(np.unique(_id_rows(pop.lid_hi, pop.lid_lo))) == pop.size

    def test_particle_view(self):
        # the ledger rows of the root and of its first child
        pop, _ = run_continuous(P_HOM, 4.0, 3)
        assert pop.parent[0] == -1 and pop.birth[0] == 0.0
        assert pop.birth[0] <= pop.next_proposal[0]
        assert pop.size > 1
        assert pop.parent[1] >= 0 and pop.birth[1] <= pop.next_proposal[1]

    def test_child_ids_reproducible(self):
        from bbmlab.rng import child_id

        pop, _ = run_continuous(P_HOM, 5.0, 21)
        kids = np.nonzero(pop.parent >= 0)[0]
        assert len(kids) > 0
        for i in kids[:20]:
            p = pop.parent[i]
            # the child id must be derivable from the parent id and one of
            # the parent's proposal indices
            found = False
            for k in range(1, 40):
                hi, lo = child_id(pop.lid_hi[p], pop.lid_lo[p], np.uint64(k))
                if hi == pop.lid_hi[i] and lo == pop.lid_lo[i]:
                    found = True
                    break
            assert found

    def test_cap_halts_without_culling(self):
        pop, _ = run_continuous(P_HOM, 12.0, 4, cap=500)
        assert pop.truncated
        assert pop.size <= 500
        assert pop.time < 12.0

    @pytest.mark.parametrize("params", [P_HOM, P_SIN], ids=["homogeneous", "sinpow"])
    def test_truncated_run_is_exact_at_its_time(self, params):
        """A capped run is the uncapped run of the same seed and snapshot
        grid, stopped at the time it reports: the rows born by then, every
        snapshot up to it, and the positions there when it is a snapshot."""
        snaps = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        truncated = on_snapshot = 0
        for seed in range(15):
            full, _ = run_continuous(params, 8.0, seed, snapshot_times=snaps)
            for cap in (20, 60, 200):
                pop, _ = run_continuous(params, 8.0, seed, snapshot_times=snaps, cap=cap)
                if not pop.truncated:
                    continue
                truncated += 1
                n = pop.size
                assert n == np.count_nonzero(full.birth <= pop.time)
                for name in ("lid_hi", "lid_lo", "parent", "birth"):
                    assert np.array_equal(getattr(pop, name), getattr(full, name)[:n]), name
                assert set(pop.snapshots) == {t for t in full.snapshots if t <= pop.time}
                for t, (x, y) in pop.snapshots.items():
                    assert np.array_equal(x, full.snapshots[t][0])
                    assert np.array_equal(y, full.snapshots[t][1])
                if pop.time in full.snapshots:
                    on_snapshot += 1
                    assert np.array_equal(pop.x, full.snapshots[pop.time][0])
                    assert np.array_equal(pop.y, full.snapshots[pop.time][1])
        assert truncated > 0 and on_snapshot > 0

    def test_split_log_matches_a_truncated_population(self):
        """After a cap overrun the split log holds one (parent index, birth)
        entry per child of the returned population and nothing else: so it
        has size - 1 entries, every index is below size and its times are
        the births."""
        truncated = 0
        for seed in range(10):
            for cap in (20, 50, 200):
                pop, _ = run_continuous(P_HOM, 8.0, seed, cap=cap, record_splits=True)
                if not pop.truncated:
                    continue
                truncated += 1
                children = zip(pop.parent[1:].tolist(), pop.birth[1:].tolist())
                assert sorted(pop.split_log) == sorted(children)
        assert truncated > 0

    def test_thinning_exactness_ks(self):
        # single tagged lineage observed for a long window; population-wide
        # gap collection would be length-biased by the exponential growth
        p_const = 0.6
        pop, _ = run_continuous(flat_table(p_const), 18000.0, 555,
                                record_splits=True, spawn_children=False)
        times = np.array(sorted(t for _, t in pop.split_log))
        gaps = np.diff(np.concatenate([[0.0], times]))[:10000]
        assert len(gaps) == 10000
        ks = st.kstest(gaps, "expon", args=(0, 1.0 / p_const))
        assert ks.pvalue > 0.01

    def test_snapshot_sync_and_stats(self, sys_a1_small):
        consts = derived_constants(P_SIN, sys_a1_small.eigenvalues[0])
        pop, stats = run_continuous(P_SIN, 6.0, 8, snapshot_times=[3.0],
                                    consts=consts)
        assert [s.t for s in stats] == [3.0, 6.0]
        for s_entry in stats:
            assert s_entry.m_t >= abs(s_entry.max_x) * (1 if s_entry.max_x >= 0 else 0)
            if s_entry.barrier_ok:
                assert s_entry.z_t >= 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            run_continuous(P_SIN, -1.0, 3)
        with pytest.raises(DomainError):
            run_continuous(P_SIN, 2.0, 3, cap=0)

    @pytest.mark.parametrize("t_end, snaps", [
        (math.inf, ()), (math.nan, ()), (0.0, ()), (1.0, [2.0]), (1.0, [math.nan]),
        (1.0, [math.inf]), (1.0, [0.0]), (1.0, [-0.5]), (1.0, [0.5, 1.0 + 1e-12]),
    ])
    def test_snapshot_grid_checked(self, t_end, snaps):
        with pytest.raises(DomainError):
            run_continuous(P_SIN, t_end, 3, snapshot_times=snaps)

    def test_snapshot_at_t_end_and_repeats(self):
        _, stats = run_continuous(P_SIN, 2.0, 3, snapshot_times=[2.0, 1.0, 1.0])
        assert [s.t for s in stats] == [1.0, 2.0]

    def test_key_column_is_the_lineage_key(self):
        led = _Ledger(5, P_HOM, 10 ** 6)
        assert led.drain_until(4.0)
        assert led.size > 10
        assert np.array_equal(led.key, CounterRNG(5).key(led.lid_hi, led.lid_lo))
        assert set(_Ledger.COLUMNS) == {k for k, v in vars(led).items()
                                        if isinstance(v, np.ndarray)}

    def test_cap_overrun_restores_every_column(self):
        led = _Ledger(5, P_HOM, 10 ** 6)
        assert led.drain_until(2.0)
        before = {name: getattr(led, name).copy() for name in _Ledger.COLUMNS}
        led.cap = led.size + 1
        assert not led.drain_until(6.0)
        for name, dtype in _Ledger.COLUMNS.items():
            col = getattr(led, name)
            assert col.dtype == dtype and np.array_equal(col, before[name]), name

    def test_replicates_seed_each_run(self):
        runs = list(_replicates(P_SIN, 2.0, 9, 3, snapshot_times=[1.0]))
        for rep, (pop, stats) in enumerate(runs):
            alone, alone_stats = run_continuous(P_SIN, 2.0, derive_seed(9, rep),
                                                snapshot_times=[1.0])
            assert np.array_equal(pop.x, alone.x) and stats == alone_stats


class TestCoupled:
    def test_subset_chain_and_sizes(self):
        runs = run_coupled([0.5, 1.0, 2.0, 4.0], 10.0, 31,
                           snapshot_times=[2.5, 5.0, 7.5],
                           include_homogeneous=True)
        sizes = [runs[k][0].size for k in ("0.5", "1.0", "2.0", "4.0", "inf")]
        assert sizes == sorted(sizes)
        # chain is asserted inside run_coupled; verify the top member too
        top = _id_rows(runs["inf"][0].lid_hi, runs["inf"][0].lid_lo)
        for k in ("0.5", "1.0", "2.0", "4.0"):
            assert _chain_holds([_id_rows(runs[k][0].lid_hi, runs[k][0].lid_lo), top])

    def test_single_alpha_equals_plain_run(self):
        one = run_coupled([1.0], 4.0, 99, snapshot_times=[2.0])["1.0"][0]
        two, _ = run_continuous(P_SIN, 4.0, 99, snapshot_times=[2.0])
        assert np.array_equal(one.x, two.x)
        assert np.array_equal(one.lid_lo, two.lid_lo)

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigurationError):
            run_coupled([2.0, 1.0], 4.0, 3)

    @settings(max_examples=60, deadline=None)
    @given(hst.lists(hst.floats(0.3, 6.0), min_size=1, max_size=4, unique=True).map(sorted),
           hst.integers(0, 2**64 - 1), hst.floats(0.5, 3.0), hst.floats(0.01, 1.0),
           hst.booleans())
    def test_chain_over_random_ladders(self, alphas, seed, t_end, frac, homogeneous):
        """The inclusion chain, asserted inside run_coupled, holds on random
        sorted ladders and seeds, and member sizes never decrease along it."""
        runs = run_coupled(alphas, t_end, seed, snapshot_times=[frac * t_end],
                           include_homogeneous=homogeneous)
        sizes = [pop.size for pop, _ in runs.values()]
        assert sizes == sorted(sizes)

    def test_members_and_grid_checked(self):
        with pytest.raises(ConfigurationError):
            run_coupled([], 4.0, 3)
        assert list(run_coupled([], 1.0, 3, include_homogeneous=True)) == ["inf"]
        with pytest.raises(DomainError):
            run_coupled([1.0, 2.0], 1.0, 3, snapshot_times=[3.0])


class TestDiscrete:
    def test_doubling_exact(self):
        pop, _ = run_discrete(P_HOM, 10, 7)
        assert pop.size == 2 ** 10

    def test_walker_variance(self):
        disp = []
        for rep in range(3000):
            pp, _ = run_discrete(flat_table(0.0), 10, derive_seed(1000, rep))
            disp.append((pp.x[0], pp.y[0]))
        disp = np.array(disp)
        # one-step variance per coordinate is 2/5
        assert disp[:, 0].var() == pytest.approx(4.0, rel=0.1)
        assert disp[:, 1].var() == pytest.approx(4.0, rel=0.1)

    def test_determinism(self):
        a, _ = run_discrete(P_SIN, 8, 12)
        b, _ = run_discrete(P_SIN, 8, 12)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.lid_lo, b.lid_lo)

    def test_offspring_frequency_binomial(self):
        # 99% CI per theta bin over >= 1e4 events
        events_theta, events_kids = [], []
        rep = 0
        while sum(len(t) for t in events_theta) < 10_000:
            _, ev = run_discrete(P_SIN, 9, derive_seed(4321, rep), record_events=True)
            for theta, kids in ev:
                events_theta.append(theta)
                events_kids.append(kids)
            rep += 1
        theta = np.concatenate(events_theta)
        kids = np.concatenate(events_kids)
        from bbmlab.model import branching_rate

        p = branching_rate(theta, P_SIN)
        bins = np.linspace(-math.pi, math.pi, 13)
        which = np.digitize(theta, bins) - 1
        for b in range(12):
            sel = which == b
            n = int(sel.sum())
            if n < 50:
                continue
            successes = float((kids[sel] - 1).sum())
            mean_p = float(p[sel].sum())
            var_p = float((p[sel] * (1 - p[sel])).sum())
            if var_p == 0:
                assert successes == mean_p
                continue
            z = (successes - mean_p) / math.sqrt(var_p)
            assert abs(z) <= 2.576

    def test_cap(self):
        pop, _ = run_discrete(P_HOM, 20, 3, cap=1000)
        assert pop.truncated and pop.size <= 1000

    @pytest.mark.parametrize("params, n_end", [(P_HOM, 16), (P_SIN, 22)],
                             ids=["homogeneous_n16", "sinpow_n22"])
    def test_peak_memory_near_the_returned_arrays(self, params, n_end):
        # the lattice builds each generation in place, so its traced peak
        # stays within 1.2 times the bytes it returns
        tracemalloc.start()
        try:
            pop, _ = run_discrete(params, n_end, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(v.nbytes for v in vars(pop).values() if isinstance(v, np.ndarray))
        assert pop.size > 2 ** 15
        assert peak <= 1.2 * returned, f"peak {peak / returned:.2f}x the returned bytes"

    def test_birth_and_next_proposal_are_one_read_only_value(self):
        pop, _ = run_discrete(P_SIN, 9, 5)
        for column, value in ((pop.birth, 9.0), (pop.next_proposal, 10.0)):
            assert len(column) == pop.size and not column.flags.writeable
            assert np.all(column == value)


class TestManyToFew:
    @pytest.mark.parametrize("fn", [
        PathFunctional("x_cylinder", times=(1.0, 2.0, 3.0), thresholds=(-1.0, -0.5, 0.0)),
        PathFunctional("one"),
        PathFunctional("x_indicator", x0=0.5),
        PathFunctional("r_indicator", r0=1.5),
    ], ids=["x_cylinder", "one", "x_indicator", "r_indicator"])
    def test_on_population_equals_ancestor_walk(self, fn):
        # snapshot times at and before t_end; the cylinder's last time is t_end
        values = []
        for rep in range(20):
            pop, _ = run_continuous(P_SIN, 3.0, derive_seed(77, rep),
                                    snapshot_times=(1.0, 2.0))
            values.append(fn.on_population(pop, 3.0))
            assert values[-1] == functional_by_ancestor_walk(pop, fn, 3.0)
        assert len(set(values)) > 1

    def test_mto1_constant_rate(self):
        rep = many_to_one_check(P_HOM, 2.0, PathFunctional("one"), 500, 2000, seed=11)
        assert rep["mc"] == pytest.approx(math.exp(2.0), rel=1e-12)
        assert abs(rep["z"]) <= 3.0

    def test_mto1_rate_zero_brownian(self):
        rep = many_to_one_check(flat_table(0.0), 2.0,
                                PathFunctional("x_indicator", x0=0.5), 200, 20000, seed=3)
        assert rep["sim"] == pytest.approx(rep["mc"], abs=4 * rep["mc_se"] + 4 * rep["sim_se"])

    def test_mto1_inhomogeneous(self):
        rep = many_to_one_check(P_SIN, 2.0, PathFunctional("x_indicator", x0=1.0),
                                1000, 50000, seed=12)
        assert abs(rep["z"]) <= 3.0

    def test_mto1_cylinder(self):
        fn = PathFunctional("x_cylinder", times=(1.0, 2.0), thresholds=(-2.0, -1.0))
        rep = many_to_one_check(P_SIN, 2.0, fn, 500, 30000, seed=15)
        assert abs(rep["z"]) <= 3.5

    def test_mto1_snapshot_times_on_the_grid(self):
        # 0.7 is not bit-equal to its np.linspace node (0.7000000000000001)
        fn = PathFunctional("x_cylinder", times=(0.3, 0.7), thresholds=(0, 0.1))
        rep = many_to_one_check(ModelParams(alpha=1), 1.0, fn, 20, 2000, 3)
        assert 0.0 < rep["mc"] < math.e and math.isfinite(rep["z"])

    def test_mto1_snapshot_time_off_the_grid(self):
        fn = PathFunctional("x_cylinder", times=(0.305,), thresholds=(0.0,))
        with pytest.raises(ConfigurationError):
            many_to_one_check(ModelParams(alpha=1), 1.0, fn, 20, 2000, 3)

    def test_mto1_shorter_than_a_spine_step(self):
        # t = 0.004 < dt / 2: the spine grid rounded to no interval and read
        # the spine at time 0, where X > 0 never holds (mc 0, z = 21)
        rep = many_to_one_check(ModelParams(alpha=1), 0.004,
                                PathFunctional("x_indicator", x0=0.0), 400, 20000, seed=3)
        assert abs(rep["z"]) <= 3.0 and rep["mc_se"] > 0.0

    def test_mto2_shorter_than_a_spine_step(self):
        # t = 0.001: no branch cell to draw a split time from (high <= 0)
        rep = many_to_two_check(ModelParams(alpha=1), 0.001, PathFunctional("one"),
                                PathFunctional("one"), 2, 10, seed=1)
        assert math.isfinite(rep["mc"]) and rep["mc"] > 0.0

    def test_cylinder_times_and_thresholds_pair_up(self):
        # zip dropped the extra threshold: the spine mean came out as 1.52,
        # that of exp(int b) with the threshold 100 ignored
        with pytest.raises(ConfigurationError, match="1 cylinder times but 2 thresholds"):
            _mc_spine_one(ModelParams(alpha=1), 1.0,
                          PathFunctional("x_cylinder", times=(1.0,), thresholds=(-100.0, 100.0)),
                          2000, 1, dt=0.1)

    def test_mto2_yule_second_factorial_moment(self):
        from oracles import yule_second_factorial

        rep = many_to_two_check(P_HOM, 1.5, PathFunctional("one"),
                                PathFunctional("one"), 6000, 40000, seed=13)
        exact = yule_second_factorial(1.5)
        assert rep["sim"] == pytest.approx(exact, rel=0.05)
        assert rep["mc"] == pytest.approx(exact, rel=0.05)

    def test_mto2_inhomogeneous(self):
        f = PathFunctional("x_indicator", x0=0.5)
        rep = many_to_two_check(P_SIN, 1.5, f, f, 4000, 50000, seed=14)
        assert abs(rep["z"]) <= 3.0

    def test_mto2_zero_functional(self):
        f = PathFunctional("x_indicator", x0=math.inf)
        rep = many_to_two_check(P_SIN, 1.0, f, f, 100, 1000, seed=2)
        assert rep["sim"] == 0.0 and rep["mc"] == 0.0

    def test_sample_sizes_rejected_before_simulating(self, monkeypatch):
        import bbmlab.sim

        monkeypatch.setattr(bbmlab.sim, "run_continuous",
                            lambda *a, **k: pytest.fail("simulated before checking"))
        # n_mc = 0 ended in ZeroDivisionError after the simulations
        for n_sim, n_mc in ((5, 0), (0, 100)):
            with pytest.raises(ConfigurationError):
                many_to_one_check(P_SIN, 1.0, PathFunctional("one"), n_sim, n_mc, 1)
            with pytest.raises(ConfigurationError):
                many_to_two_check(P_SIN, 1.0, PathFunctional("one"),
                                  PathFunctional("one"), n_sim, n_mc, 1)

    def test_unsupported_functional(self):
        # rejected when built, before any spine chunk runs
        with pytest.raises(ConfigurationError):
            PathFunctional("weird")
        with pytest.raises(ConfigurationError, match="takes no times"):
            PathFunctional("x_indicator", times=(1.0,), thresholds=(0.0,))
        with pytest.raises(ConfigurationError):
            many_to_two_check(P_SIN, 1.0, PathFunctional("x_cylinder"),
                              PathFunctional("one"), 100, 1000, seed=1)


class TestPorism:
    def test_times_checked(self):
        with pytest.raises(ConfigurationError):
            porism_probe(P_SIN, [], 1, seed=1)
        for t_list in ([math.inf], [2.0, math.nan]):
            with pytest.raises(DomainError):
                porism_probe(P_SIN, t_list, 1, seed=1)

    def test_homogeneous_control_no_decay(self):
        rep = porism_probe(P_HOM, [4.0, 8.0], 100, seed=7)
        # rotational symmetry: scaled |Y| stays order sqrt(t); reported only
        assert rep["rows"][8.0]["y_scaled_quantiles"][0.5] > 0.3

    def test_gap_nonnegative(self):
        rep = porism_probe(P_SIN, [4.0, 8.0], 100, seed=8)
        for row in rep["rows"].values():
            assert row["gap_quantiles"][0.25] >= 0.0

    def test_radius_law_matches_bessel_density(self):
        # radius of the single driftless walker at t=2 follows the planar
        # radial density; with r0 = 0 that is Rayleigh(sqrt 2)
        radii = []
        for rep in range(4000):
            pop, _ = run_continuous(flat_table(0.0), 2.0, derive_seed(31415, rep))
            radii.append(math.hypot(pop.x[0], pop.y[0]))
        ks = st.kstest(np.array(radii), lambda z: 1.0 - np.exp(-z * z / 4.0))
        assert ks.pvalue > 0.01
        # the same law through the Bessel-density module at r0 = 0
        from bbmlab.mc import bessel_density

        z = np.linspace(0.01, 6.0, 200)
        rayleigh = z / 2.0 * np.exp(-z * z / 4.0)
        assert np.allclose(bessel_density(0.0, 2.0, z), rayleigh, atol=1e-14)

    def test_throughput_large_population(self):
        import time

        p4 = ModelParams(alpha=4.0, rate_family=RateFamily.SIN_POW)
        t0 = time.time()
        pop, _ = run_continuous(p4, 13.0, 5, snapshot_times=[13.0])
        assert pop.size > 100_000 and not pop.truncated
        assert time.time() - t0 < 30.0

    def test_stats_export(self, tmp_path):
        pop, stats = run_continuous(P_SIN, 4.0, 3, snapshot_times=[2.0])
        export_stats_csv(tmp_path / "s.csv", stats)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "replicate,t,M_t,max_X,argmax_Y,Z_t,barrier_ok"
        assert len(lines) == 3

    def test_snapshot_export(self, tmp_path):
        pop, _ = run_continuous(P_SIN, 3.0, 3, snapshot_times=[1.5])
        pop.export_snapshots_csv(tmp_path / "snap.csv")
        head = (tmp_path / "snap.csv").read_text().splitlines()
        assert head[0] == "replicate,time,lineage_id,x,y"
        assert head[1].startswith("0,1.5,")
