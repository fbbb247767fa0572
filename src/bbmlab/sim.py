"""Exact simulators of the angle-inhomogeneous branching system.

Continuous model: particles diffuse as independent planar Brownian motions
and split at rate b(theta) <= 1.  Splits are simulated by thinning: every
particle carries rate-1 proposal clocks; a proposal at time tau is accepted
with probability b(theta(tau)).  At an accepted split the particle keeps
its identity and one child is born at the same position (probabilistically
the children are exchangeable, and this convention is what makes the
across-alpha coupling an exact set inclusion: a lineage's randomness never
depends on whether its own proposals were accepted).

All randomness is a pure function of (seed, lineage id, counter): each
proposal consumes four fixed slots (dx, dy, accept-uniform, next wait) and
each snapshot materialization two (dx, dy), so lineages shared by two runs
with the same seed and snapshot grid see bit-identical paths and clocks.
Acceptance u <= b_alpha(theta) is monotone in alpha for the sinusoidal
family, hence the populations are nested across alpha.

The discrete model lives on the integer lattice: at every generation a
particle at angle theta has two children with probability b(theta), one
otherwise, and every child independently steps to one of the four nearest
neighbours or stays put, with probability 1/5 each.

The many-to-one and many-to-two checks set populations against spine
expectations, whose paths march through `mc._march` like every Monte Carlo
path in bbmlab (two spines as spine 1 and a free planar path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigurationError, DomainError
from .files import write_csv, write_json
from .mc import _chunked_mean, _march, _Trapezoid
from .model import DerivedConstants, ModelParams, RateFamily, branching_rate, centering_m
from .rng import ROOT_ID, CounterRNG, child_id, mix_words

SQRT2 = math.sqrt(2.0)
DEFAULT_CAP = 2_000_000


def derive_seed(seed: int, index: int) -> int:
    """Independent replicate seed from (seed, replicate index)."""
    return int(mix_words(np.uint64(seed), np.uint64(index)))


@dataclass
class ExtremalStats:
    t: float
    m_t: float            # max radius
    max_x: float
    argmax_y: float       # Y of the radius-argmax particle
    z_t: float
    barrier_ok: bool
    n_particles: int


@dataclass(frozen=True, eq=False)
class HexIds:
    """A column of 128-bit lineage ids (hi, lo) for `write_csv`: a slice
    formats only its own rows, each as 32 big-endian hex digits (high word
    first), so a table's ids are held as text one block at a time."""

    hi: np.ndarray
    lo: np.ndarray

    def __len__(self):
        return len(self.hi)

    def __getitem__(self, rows: slice) -> list:
        words = np.column_stack([self.hi[rows], self.lo[rows]])
        text = words.astype(">u8").tobytes().hex()
        return [text[k:k + 32] for k in range(0, len(text), 32)]


@dataclass
class Population:
    """Append-only ledger of every particle born (there are no deaths)."""

    time: float
    lid_hi: np.ndarray
    lid_lo: np.ndarray
    parent: np.ndarray       # ledger index, -1 for the root
    birth: np.ndarray
    x: np.ndarray
    y: np.ndarray
    next_proposal: np.ndarray
    rng_root_seed: int
    cap: int
    truncated: bool = False
    snapshots: dict = field(default_factory=dict)  # time -> (n_alive, x, y)
    split_log: list = field(default_factory=list)  # (ledger idx, time) if recorded

    @property
    def size(self) -> int:
        return len(self.birth)

    def lineage_hex(self, i: int) -> str:
        return f"{int(self.lid_hi[i]):016x}{int(self.lid_lo[i]):016x}"

    def ancestors(self, n: int, s: float) -> np.ndarray:
        """Ledger index, for each particle i < n, of its ancestor alive at
        time s (itself when born by s): one parent walk for all of them."""
        idx = np.arange(n)
        late = np.nonzero(self.birth[idx] > s)[0]
        while len(late):
            idx[late] = self.parent[idx[late]]
            late = late[self.birth[idx[late]] > s]
        return idx

    def export_snapshots_csv(self, path, replicate: int = 0):
        times = sorted(self.snapshots)
        alive = [self.snapshots[t] for t in times]  # (n_alive, x, y) per time
        counts = [n for n, _, _ in alive]
        rows = np.concatenate([np.empty(0, dtype=np.int64)] + [np.arange(n) for n in counts])
        # the replicate and time cells repeat: format each value once and
        # pass repeated references to its text
        return write_csv(path, ["replicate", "time", "lineage_id", "x", "y"], [
            [str(replicate)] * sum(counts),
            list(chain.from_iterable(repeat(str(t), n) for t, n in zip(times, counts))),
            HexIds(self.lid_hi[rows], self.lid_lo[rows]),
            np.concatenate([np.empty(0)] + [x[:n] for n, x, _ in alive]),
            np.concatenate([np.empty(0)] + [y[:n] for n, _, y in alive]),
        ])

    def export_manifest_json(self, path, params: ModelParams):
        return write_json(path, {
            "seed": self.rng_root_seed,
            "alpha": params.alpha,
            "beta": params.beta,
            "rate_family": params.rate_family.value,
            "time": self.time,
            "particles": int(self.size),
            "cap": self.cap,
            "truncated": self.truncated,
        })


def export_stats_csv(path, stats_by_replicate):
    """stats_by_replicate: iterable of (replicate, [ExtremalStats...])."""
    rows = [(rep, st.t, st.m_t, st.max_x, st.argmax_y, st.z_t, int(st.barrier_ok))
            for rep, stats in stats_by_replicate for st in stats]
    return write_csv(path, ["replicate", "t", "M_t", "max_X", "argmax_Y", "Z_t", "barrier_ok"],
                     list(zip(*rows)))


class _Ledger:
    """Growable SoA state for the continuous-time simulation."""

    def __init__(self, seed: int):
        self.rng = CounterRNG(seed)
        hi, lo = ROOT_ID
        self.lid_hi = np.array([hi], dtype=np.uint64)
        self.lid_lo = np.array([lo], dtype=np.uint64)
        self.parent = np.array([-1], dtype=np.int64)
        self.birth = np.array([0.0])
        self.x = np.array([0.0])
        self.y = np.array([0.0])
        self.t_mat = np.array([0.0])
        self.ctr = np.zeros(1, dtype=np.uint64)
        self.prop_idx = np.zeros(1, dtype=np.uint64)
        wait = self.rng.exponential(self.rng.key(self.lid_hi, self.lid_lo), self.ctr)
        self.ctr += np.uint64(1)
        self.t_prop = wait

    @property
    def size(self):
        return len(self.birth)

    def _take(self, idx, n_slots):
        """Consume n_slots counter values for particles idx, returning the
        base counters."""
        base = self.ctr[idx].copy()
        self.ctr[idx] += np.uint64(n_slots)
        return base

    def materialize(self, idx, to_time):
        """Advance positions of particles idx exactly to to_time (2 slots)."""
        idx = np.asarray(idx, dtype=np.int64)
        dt = to_time - self.t_mat[idx]
        move = dt > 0
        if not np.any(move):
            return
        sub = idx[move]
        base = self._take(sub, 2)
        sd = np.sqrt(dt[move])
        key = self.rng.key(self.lid_hi[sub], self.lid_lo[sub])
        self.x[sub] += sd * self.rng.normal(key, base)
        self.y[sub] += sd * self.rng.normal(key, base + np.uint64(1))
        self.t_mat[sub] = to_time

    def checkpoint(self):
        return {k: getattr(self, k).copy() for k in
                ("lid_hi", "lid_lo", "parent", "birth", "x", "y",
                 "t_mat", "ctr", "prop_idx", "t_prop")}

    def restore(self, state):
        for k, v in state.items():
            setattr(self, k, v)

    def drain_until(self, t_b, params, cap, record_splits, split_log,
                    spawn_children=True):
        """Process every proposal with time <= t_b; returns False if the
        population cap would be exceeded (ledger untouched in that case,
        thanks to a checkpoint taken on entry)."""
        state = self.checkpoint()
        while True:
            active = np.nonzero(self.t_prop <= t_b)[0]
            if len(active) == 0:
                return True
            tau = self.t_prop[active]
            dt = tau - self.t_mat[active]
            base = self._take(active, 4)
            sd = np.sqrt(np.maximum(dt, 0.0))
            key = self.rng.key(self.lid_hi[active], self.lid_lo[active])
            self.x[active] += sd * self.rng.normal(key, base)
            self.y[active] += sd * self.rng.normal(key, base + np.uint64(1))
            self.t_mat[active] = tau
            theta = np.arctan2(self.y[active], self.x[active])
            rate = branching_rate(theta, params)
            u = self.rng.uniform(key, base + np.uint64(2))
            wait = self.rng.exponential(key, base + np.uint64(3))
            self.prop_idx[active] += np.uint64(1)
            self.t_prop[active] = tau + wait

            split = u <= rate
            if np.any(split):
                sel = active[split]
                if record_splits:
                    split_log.extend(zip(sel.tolist(), tau[split].tolist()))
                if not spawn_children:
                    continue
                if self.size + len(sel) > cap:
                    self.restore(state)
                    return False
                chi, clo = child_id(self.lid_hi[sel], self.lid_lo[sel],
                                    self.prop_idx[sel])
                n_new = len(sel)
                self.lid_hi = np.concatenate([self.lid_hi, chi])
                self.lid_lo = np.concatenate([self.lid_lo, clo])
                self.parent = np.concatenate([self.parent, sel.astype(np.int64)])
                self.birth = np.concatenate([self.birth, tau[split]])
                self.x = np.concatenate([self.x, self.x[sel]])
                self.y = np.concatenate([self.y, self.y[sel]])
                self.t_mat = np.concatenate([self.t_mat, tau[split]])
                self.prop_idx = np.concatenate([self.prop_idx,
                                                np.zeros(n_new, dtype=np.uint64)])
                cwait = self.rng.exponential(self.rng.key(chi, clo), np.uint64(0))
                self.ctr = np.concatenate([self.ctr,
                                           np.ones(n_new, dtype=np.uint64)])
                self.t_prop = np.concatenate([self.t_prop, tau[split] + cwait])


def _slice_boundaries(snaps):
    """Sub-slice each inter-snapshot interval into quarters so a cap overrun
    loses little work on rewind; snapshot times are always boundaries."""
    n_sub = 4
    bounds = []
    prev = 0.0
    for t_b in snaps:
        width = (t_b - prev) / n_sub
        for k in range(1, n_sub):
            bounds.append((prev + k * width, False))
        bounds.append((t_b, True))
        prev = t_b
    return bounds


def run_continuous(params: ModelParams, t_end: float, seed: int,
                   snapshot_times: Sequence[float] = (),
                   cap: int = DEFAULT_CAP,
                   consts: DerivedConstants | None = None,
                   record_splits: bool = False,
                   spawn_children: bool = True):
    """Exact thinning simulation; returns (Population, [ExtremalStats]).

    Snapshot times are materialization boundaries shared by coupled runs;
    t_end is always a snapshot.  If the cap would be exceeded the run halts
    at the last completed slice boundary and the population is flagged
    truncated, exact at that earlier time (no culling: removing particles
    would bias the extremes).
    """
    if t_end <= 0:
        raise DomainError("t_end must be positive")
    if cap < 1:
        raise DomainError("cap must be at least 1")
    snaps = sorted(set(float(s) for s in snapshot_times) | {float(t_end)})
    if snaps[0] <= 0:
        raise DomainError("snapshot times must be positive")
    led = _Ledger(seed)
    split_log: list = []
    stats: list[ExtremalStats] = []
    snapshots: dict = {}
    truncated = False
    reached = 0.0
    barrier_ok_so_far = True

    for t_b, is_snap in _slice_boundaries(snaps):
        ok = led.drain_until(t_b, params, cap, record_splits, split_log,
                             spawn_children=spawn_children)
        if not ok:
            truncated = True
            break
        led.materialize(np.arange(led.size), t_b)
        reached = t_b
        if is_snap:
            snapshots[t_b] = (led.size, led.x.copy(), led.y.copy())
            barrier_ok_so_far &= (t_b < 1.0) or (led.x.max() <= SQRT2 * t_b - 1.0)
            stats.append(_extremal_stats(t_b, led, consts, barrier_ok_so_far))

    pop = Population(
        time=reached, lid_hi=led.lid_hi, lid_lo=led.lid_lo, parent=led.parent,
        birth=led.birth, x=led.x, y=led.y, next_proposal=led.t_prop,
        rng_root_seed=seed, cap=cap, truncated=truncated,
        snapshots=snapshots, split_log=split_log,
    )
    return pop, stats


def run_coupled(alphas: Sequence[float], t_end: float, seed: int,
                snapshot_times: Sequence[float] = (),
                cap: int = DEFAULT_CAP, beta: float = 1.0,
                include_homogeneous: bool = False):
    """Coupled sinusoidal-family runs across alpha (ascending), plus an
    optional homogeneous member acting as the alpha = infinity envelope.

    Shared (seed, lineage, counter) randomness and a common snapshot grid
    mean that a lineage alive in two runs has identical history, and the
    acceptance test u <= b_alpha is monotone in alpha; the lineage-id sets
    therefore form an inclusion chain at every snapshot, which is asserted.
    """
    alphas = list(alphas)
    if sorted(alphas) != alphas:
        raise ConfigurationError("alphas must be sorted ascending")
    members: list[tuple[str, ModelParams]] = []
    for a in alphas:
        if math.isinf(a):
            members.append(("inf", ModelParams(alpha=1.0, beta=beta,
                                               rate_family=RateFamily.HOMOGENEOUS)))
        else:
            members.append((repr(a), ModelParams(alpha=a, beta=beta,
                                                 rate_family=RateFamily.SIN_POW)))
    if include_homogeneous and not any(k == "inf" for k, _ in members):
        members.append(("inf", ModelParams(alpha=1.0, beta=beta,
                                           rate_family=RateFamily.HOMOGENEOUS)))
    runs = {key: run_continuous(p, t_end, seed, snapshot_times=snapshot_times, cap=cap)
            for key, p in members}

    snaps = sorted(set(float(s) for s in snapshot_times) | {float(t_end)})
    pops = [runs[key][0] for key, _ in members]
    for t_b in snaps:
        alive = [p.birth <= t_b for p in pops]
        if not _chain_holds([_id_rows(p.lid_hi[a], p.lid_lo[a]) for p, a in zip(pops, alive)]):
            raise AssertionError("coupled lineage sets failed the inclusion chain")
    return {key: runs[key] for key, _ in members}


def _id_rows(hi, lo):
    """128-bit lineage ids (hi, lo) as one 16-byte item each, for exact
    set tests in numpy."""
    return np.column_stack([hi, lo]).view(np.dtype((np.void, 16))).ravel()


def _chain_holds(id_sets) -> bool:
    """Whether each set of `_id_rows` is contained in the next one."""
    return all(np.isin(small, big).all() for small, big in zip(id_sets, id_sets[1:]))


def _child_index(n_children):
    """Rank of every child among its parent's children, parents in order:
    the concatenated `arange(k)` for k in n_children, as uint64."""
    first = np.cumsum(n_children) - n_children
    return (np.arange(int(n_children.sum())) - np.repeat(first, n_children)).astype(np.uint64)


def run_discrete(params: ModelParams, n_end: int, seed: int,
                 cap: int = DEFAULT_CAP, record_events: bool = False):
    """Synchronous lattice model on Z^2; returns (Population, events).

    Each particle consumes two counter slots per generation of life: one
    for its arrival move (at birth) and one for the offspring decision;
    its lineage key is mixed once, at birth, for both.
    events (when recorded) is a list of (theta, n_children) arrays.
    """
    if n_end < 1:
        raise DomainError("n_end must be >= 1")
    rng = CounterRNG(seed)
    hi0, lo0 = ROOT_ID
    lid_hi = np.array([hi0], dtype=np.uint64)
    lid_lo = np.array([lo0], dtype=np.uint64)
    key = rng.key(lid_hi, lid_lo)
    parent = np.array([-1], dtype=np.int64)
    birth = np.array([0.0])
    x = np.zeros(1, dtype=np.int64)
    y = np.zeros(1, dtype=np.int64)
    events = []
    truncated = False
    moves = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)], dtype=np.int64)

    gen = 0
    for gen in range(1, n_end + 1):
        theta = np.arctan2(y.astype(float), x.astype(float))
        rate = branching_rate(theta, params)
        u = rng.uniform(key, np.uint64(1))
        two = u <= rate
        n_children = np.where(two, 2, 1).astype(np.int64)
        if record_events:
            events.append((theta.copy(), n_children.copy()))
        total = int(n_children.sum())
        if total > cap:
            truncated = True
            gen -= 1
            break
        rep = np.repeat(np.arange(len(x)), n_children)
        chi, clo = child_id(lid_hi[rep], lid_lo[rep], _child_index(n_children))
        key = rng.key(chi, clo)
        mv = np.floor(rng.uniform(key, np.uint64(0)) * 5.0)
        mv = np.minimum(mv.astype(np.int64), 4)
        x = x[rep] + moves[mv, 0]
        y = y[rep] + moves[mv, 1]
        parent = rep.astype(np.int64)
        lid_hi, lid_lo = chi, clo
        birth = np.full(len(x), float(gen))

    pop = Population(
        time=float(gen), lid_hi=lid_hi, lid_lo=lid_lo, parent=parent,
        birth=birth, x=x.astype(float), y=y.astype(float),
        next_proposal=birth + 1.0, rng_root_seed=seed, cap=cap,
        truncated=truncated,
    )
    return pop, events


# ---------------------------------------------------------------------------
# path functionals and moment identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathFunctional:
    """Supported shapes: one; x_indicator (X_t > x0); r_indicator (R_t > r0);
    x_cylinder (X(s_i) > a_i at given snapshot times)."""

    kind: str
    x0: float = 0.0
    r0: float = 0.0
    times: tuple = ()
    thresholds: tuple = ()

    def __post_init__(self):
        if len(self.times) != len(self.thresholds):
            raise ConfigurationError(
                f"{len(self.times)} cylinder times but {len(self.thresholds)} thresholds")

    def snapshot_times(self, t_end):
        return tuple(self.times) if self.kind == "x_cylinder" else ()

    def on_population(self, pop: Population, t_end: float) -> float:
        """Sum of F over the particles alive at t_end, each path read at the
        snapshots of its ancestors."""
        n_alive = pop.snapshots[t_end][0]
        xs_by_time, ys_by_time = {}, {}
        for s in set(self.snapshot_times(t_end)) | {t_end}:
            _, xs, ys = pop.snapshots[s]
            anc = pop.ancestors(n_alive, s)
            xs_by_time[s], ys_by_time[s] = xs[anc], ys[anc]
        return float(self.on_paths(xs_by_time, ys_by_time, t_end).sum())

    def on_paths(self, xs_by_time: dict, ys_by_time: dict, t_end: float):
        if self.kind == "one":
            some = next(iter(xs_by_time.values()))
            return np.ones_like(some)
        if self.kind == "x_indicator":
            return (xs_by_time[t_end] > self.x0).astype(float)
        if self.kind == "r_indicator":
            r = np.hypot(xs_by_time[t_end], ys_by_time[t_end])
            return (r > self.r0).astype(float)
        if self.kind == "x_cylinder":
            ok = np.ones_like(xs_by_time[t_end], dtype=bool)
            for s, a in zip(self.times, self.thresholds):
                ok &= xs_by_time[s] > a
            return ok.astype(float)
        raise ConfigurationError(f"unsupported functional {self.kind!r}")


def _grid_column(grid, s):
    """Index of the grid node at time s; ConfigurationError off the grid."""
    j = int(np.argmin(np.abs(grid - s)))
    if abs(grid[j] - s) > 1e-9 * (grid[1] - grid[0]):
        raise ConfigurationError(f"time {s} is off the spine grid (step {grid[1] - grid[0]:g})")
    return j


def _mc_spine_one(params, t_end, functional, n_mc, seed, dt=0.01):
    """Single-spine expectation E[F(path) exp(int_0^t b(theta_s) ds)]."""
    m = int(round(t_end / dt))
    grid = np.linspace(0.0, t_end, m + 1)
    columns = {s: _grid_column(grid, s) for s in functional.snapshot_times(t_end)}
    columns[t_end] = m
    rate = lambda col, r: branching_rate(np.arctan2(col[1], col[0]), params)

    def sample(rng, size):
        integral = _Trapezoid(grid, rate)
        kept = {}
        for j, col in _march(rng, grid, np.zeros((2, size))):
            integral.add(j, col)
            if j in columns.values():
                kept[j] = col
        xs = {s: kept[j][0] for s, j in columns.items()}
        ys = {s: kept[j][1] for s, j in columns.items()}
        return functional.on_paths(xs, ys, t_end) * np.exp(integral.total)

    mean, stderr, _ = _chunked_mean(seed, n_mc, sample)
    return mean, stderr


def _compare(sims, mc_mean, mc_se, n_mc):
    """Both sides of a moment identity, their standard errors and the z-score."""
    n_sim = len(sims)
    sim_mean = float(sims.mean())
    sim_se = float(sims.std(ddof=1) / math.sqrt(n_sim)) if n_sim > 1 else 0.0
    denom = math.hypot(sim_se, mc_se)
    z = (sim_mean - mc_mean) / denom if denom > 0 else 0.0
    return {"sim": sim_mean, "sim_se": sim_se, "mc": mc_mean, "mc_se": mc_se,
            "z": z, "n_sim": n_sim, "n_mc": n_mc}


def many_to_one_check(params: ModelParams, t: float, functional: PathFunctional,
                      n_sim: int, n_mc: int, seed: int) -> dict:
    """Simulator average of sum_u F(u) against the single-spine expectation
    E[F exp(int b)]; reports both sides with standard errors and a z-score."""
    if t > 3.0:
        raise ConfigurationError("t too large for the replicate budget (use t <= 3)")
    if n_sim < 1 or n_mc < 1:
        raise ConfigurationError(f"need n_sim >= 1 and n_mc >= 1, got {n_sim}, {n_mc}")
    # the spine side first: it rejects snapshot times off its grid
    mc_mean, mc_se = _mc_spine_one(params, t, functional, n_mc, seed + 1)
    snap = functional.snapshot_times(t)
    sims = np.empty(n_sim)
    for rep in range(n_sim):
        pop, _ = run_continuous(params, t, derive_seed(seed, rep),
                                snapshot_times=snap)
        sims[rep] = functional.on_population(pop, t)
    return _compare(sims, mc_mean, mc_se, n_mc)


def _mc_spine_two(params, t_end, f_fun, g_fun, n_mc, seed, dt=0.01):
    """Two-spine integral: the split time is stratified over cell midpoints,
    and both spines are marched on a half-step grid so the branch point is
    a grid point.  The march carries spine 1 and a free planar path W; after
    its branch column c, spine 2 is W + (spine 1 at c - W at c).  Its
    integral is that of the path following spine 1 up to c and spine 2
    after it, less spine 1's integral up to c."""
    m = int(round(t_end / dt))
    hgrid = np.linspace(0.0, t_end, 2 * m + 1)
    rate = lambda col, r: branching_rate(np.arctan2(col[1], col[0]), params)

    def sample(rng, size):
        # branch cell midpoints: odd half-grid indices 1, 3, ..., 2m-1
        branch_col = 2 * rng.integers(0, m, size) + 1
        int1, int2 = _Trapezoid(hgrid, rate), _Trapezoid(hgrid, rate)
        shift = np.zeros((2, size))
        b_at_branch, int1_at_branch = np.zeros(size), np.zeros(size)
        # rows: spine 1 (x, y), then W (x, y), drawn in that order
        for j, col in _march(rng, hgrid, np.zeros((4, size))):
            spine1, free = col[:2], col[2:]
            b1 = int1.add(j, spine1)
            at_branch = branch_col == j
            if np.any(at_branch):
                shift = np.where(at_branch, spine1 - free, shift)
                b_at_branch = np.where(at_branch, b1, b_at_branch)
                int1_at_branch = np.where(at_branch, int1.total, int1_at_branch)
            int2.add(j, np.where(branch_col < j, free + shift, spine1))
        spine2 = free + shift
        fvals = f_fun({t_end: spine1[0]}, {t_end: spine1[1]}, t_end)
        gvals = g_fun({t_end: spine2[0]}, {t_end: spine2[1]}, t_end)
        weight = np.exp(int1.total + (int2.total - int1_at_branch))
        return 2.0 * t_end * b_at_branch * weight * fvals * gvals

    mean, stderr, _ = _chunked_mean(seed, n_mc, sample, key_offset=7_000_000, chunk=10_000)
    return mean, stderr


def many_to_two_check(params: ModelParams, t: float, f: PathFunctional,
                      g: PathFunctional, n_sim: int, n_mc: int, seed: int) -> dict:
    """Simulator average of sum_{u != v} F(u) G(v) against the two-spine
    integral with branch time r, weight 2 b(theta^1_r) exp(int_0^t b^1 +
    int_r^t b^2)."""
    if t > 2.5:
        raise ConfigurationError("t too large for the replicate budget (use t <= 2.5)")
    if n_sim < 1 or n_mc < 1:
        raise ConfigurationError(f"need n_sim >= 1 and n_mc >= 1, got {n_sim}, {n_mc}")
    for fn in (f, g):
        if fn.kind == "x_cylinder":
            raise ConfigurationError("cylinder functionals unsupported in the pair check")
    sims = np.empty(n_sim)
    for rep in range(n_sim):
        pop, _ = run_continuous(params, t, derive_seed(seed, rep))
        n_alive, xs, ys = pop.snapshots[t]
        alive_x, alive_y = {t: xs[:n_alive]}, {t: ys[:n_alive]}
        fv = f.on_paths(alive_x, alive_y, t)
        gv = g.on_paths(alive_x, alive_y, t)
        sims[rep] = fv.sum() * gv.sum() - (fv * gv).sum()
    mc_mean, mc_se = _mc_spine_two(params, t, f.on_paths, g.on_paths, n_mc, seed + 1)
    return _compare(sims, mc_mean, mc_se, n_mc)


def porism_probe(params: ModelParams, t_list: Sequence[float], replicates: int,
                 seed: int, consts: DerivedConstants | None = None,
                 eps: float = 0.25, cap: int = DEFAULT_CAP) -> dict:
    """Empirical localization of the extremal particle: distribution of
    |Y_argmax| / t^{kappa/2}, the gap M_t - max_X, and the fraction of
    replicates with |Y_argmax| above t^{kappa/2 + eps}.

    One run per replicate provides every probe time via snapshots.
    """
    t_list = sorted(float(t) for t in t_list)
    t_end = t_list[-1]
    kappa = params.kappa() if params.rate_family is not RateFamily.HOMOGENEOUS else 1.0
    rows = {t: {"y_scaled": [], "gap": [], "exceed": 0, "m_minus_center": []}
            for t in t_list}
    truncated = 0
    for rep in range(replicates):
        pop, stats = run_continuous(params, t_end, derive_seed(seed, rep),
                                    snapshot_times=t_list, cap=cap, consts=consts)
        if pop.truncated:
            truncated += 1
            continue
        for st in stats:
            if st.t not in rows:
                continue
            row = rows[st.t]
            row["y_scaled"].append(abs(st.argmax_y) / st.t ** (kappa / 2.0))
            row["gap"].append(st.m_t - st.max_x)
            if abs(st.argmax_y) > st.t ** (kappa / 2.0 + eps):
                row["exceed"] += 1
            if consts is not None and st.t > 1.0:
                row["m_minus_center"].append(st.m_t - centering_m(st.t, consts))
    report = {"eps": eps, "replicates": replicates, "truncated": truncated, "rows": {}}
    for t, row in rows.items():
        n = len(row["y_scaled"])
        if n == 0:
            continue
        ys = np.array(row["y_scaled"])
        gaps = np.array(row["gap"])
        entry = {
            "n": n,
            "y_scaled_quantiles": {q: float(np.quantile(ys, q))
                                   for q in (0.25, 0.5, 0.75, 0.9)},
            "gap_median": float(np.median(gaps)),
            "gap_quantiles": {q: float(np.quantile(gaps, q)) for q in (0.25, 0.5, 0.75)},
            "exceed_fraction": row["exceed"] / n,
        }
        if row["m_minus_center"]:
            entry["centered_median"] = float(np.median(row["m_minus_center"]))
        report["rows"][t] = entry
    return report


def _extremal_stats(t_b, led, consts, barrier_ok):
    r = np.hypot(led.x, led.y)
    imax = int(np.argmax(r))
    z_t = math.nan
    if consts is not None:
        a = SQRT2 * t_b - led.x
        lp = consts.theta1 * t_b ** (1.0 - consts.kappa) - consts.kappa / 4.0 * math.log(t_b)
        pos = a > 0
        total = 0.0
        if np.any(pos):
            lv, sg = logsumexp(np.log(a[pos]) - SQRT2 * a[pos], return_sign=True)
            total += sg * math.exp(lp + lv)
        neg = a < 0
        if np.any(neg):
            lv = logsumexp(np.log(-a[neg]) - SQRT2 * a[neg])
            total -= math.exp(lp + lv)
        z_t = total
    return ExtremalStats(
        t=float(t_b), m_t=float(r[imax]), max_x=float(led.x.max()),
        argmax_y=float(led.y[imax]), z_t=z_t, barrier_ok=bool(barrier_ok),
        n_particles=led.size,
    )
