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
each materialization two (dx, dy); a round draws all its slots in one mix.
Every particle is materialized at every slice boundary, the snapshots and
the three quarter points before each, so lineages shared by two runs with
the same seed and snapshot grid see bit-identical paths and clocks.
Every particle, the root included, is born through `_Ledger._born`, which
mixes its lineage key once and keeps it, so a draw mixes only its counter.
Acceptance u <= b_alpha(theta) is monotone in alpha for the sinusoidal
family, hence the populations are nested across alpha.

The discrete model lives on the integer lattice: at every generation a
particle at angle theta has two children with probability b(theta), one
otherwise, and every child independently steps to one of the four nearest
neighbours or stays put, with probability 1/5 each.

The many-to-one and many-to-two checks set populations against spine
expectations, whose paths march through `mc._march` like every Monte Carlo
path in bbmlab (two spines as spine 1 and a free planar path).  They and
the porism probe run replicates through `_replicates`, which seeds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Sequence

import numpy as np
from scipy.special import logsumexp, ndtri

from .errors import ConfigurationError, DomainError
from .files import write_csv, write_json
from .mc import _chunked_mean, _intervals, _march, _Trapezoid, _weight_grid
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
    snapshots: dict = field(default_factory=dict)  # time -> (x, y) of the alive
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

    def export_snapshots_csv(self, path):
        times = sorted(self.snapshots)
        alive = [self.snapshots[t] for t in times]  # (x, y) per time
        counts = [len(x) for x, _ in alive]
        rows = np.concatenate([np.empty(0, dtype=np.int64)] + [np.arange(n) for n in counts])
        # every file holds one run, replicate 0; the replicate and time cells
        # repeat: format each value once and pass repeated references to its text
        return write_csv(path, ["replicate", "time", "lineage_id", "x", "y"], [
            ["0"] * sum(counts),
            list(chain.from_iterable(repeat(str(t), n) for t, n in zip(times, counts))),
            HexIds(self.lid_hi[rows], self.lid_lo[rows]),
            np.concatenate([np.empty(0)] + [x for x, _ in alive]),
            np.concatenate([np.empty(0)] + [y for _, y in alive]),
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


def export_stats_csv(path, stats):
    """One run's [ExtremalStats...], written as replicate 0."""
    rows = [(0, st.t, st.m_t, st.max_x, st.argmax_y, st.z_t, int(st.barrier_ok))
            for st in stats]
    return write_csv(path, ["replicate", "t", "M_t", "max_X", "argmax_Y", "Z_t", "barrier_ok"],
                     list(zip(*rows)))


class _Ledger:
    """Growable SoA state of one continuous-time run, with its inputs: one
    array per column of COLUMNS, one entry per particle ever born.  Rows are
    only appended; lid_hi, lid_lo, key, parent and birth are fixed at birth
    and a proposal round changes only the MUTABLE columns.  key is the
    lineage key rng.key(lid_hi, lid_lo), t_mat the time (x, y) was last
    materialized, ctr the next counter slot and t_prop the time of the next
    proposal.  split_log is None when splits are not recorded."""

    COLUMNS = {"lid_hi": np.uint64, "lid_lo": np.uint64, "key": np.uint64,
               "parent": np.int64, "birth": np.float64, "x": np.float64,
               "y": np.float64, "t_mat": np.float64, "ctr": np.uint64,
               "prop_idx": np.uint64, "t_prop": np.float64}
    MUTABLE = ("x", "y", "t_mat", "ctr", "prop_idx", "t_prop")

    def __init__(self, seed, params, cap, split_log=None, spawn_children=True):
        self.rng = CounterRNG(seed)
        self.params = params
        self.cap = cap
        self.split_log = split_log
        self.spawn_children = spawn_children
        for name, dtype in self.COLUMNS.items():
            setattr(self, name, np.empty(0, dtype=dtype))
        self._born([ROOT_ID[0]], [ROOT_ID[1]], [-1], [0.0], [0.0], [0.0])

    @property
    def size(self):
        return len(self.birth)

    def _born(self, hi, lo, parent, birth, x, y):
        """Append particles with ids (hi, lo), born at `birth` at (x, y): the
        one way in, the root included.  Each lineage key is mixed here, once,
        and the first proposal wait takes counter slot 0."""
        key = self.rng.key(hi, lo)
        new = {"lid_hi": hi, "lid_lo": lo, "key": key, "parent": parent, "birth": birth,
               "x": x, "y": y, "t_mat": birth, "ctr": np.ones_like(key),
               "prop_idx": np.zeros_like(key),
               "t_prop": birth - np.log(self.rng.uniform(key, np.uint64(0)))}
        for name, dtype in self.COLUMNS.items():
            setattr(self, name, np.concatenate([getattr(self, name),
                                                np.asarray(new[name], dtype=dtype)]))

    def _move(self, idx, to_time, n_slots):
        """Move particles idx by their Brownian increments to to_time (one
        time, or one per particle), drawing their next n_slots counter slots
        in one (n_slots, len(idx)) mix: dx and dy are the normals of the
        first two rows.  Returns the uniforms of the rows after those."""
        base = self.ctr[idx]
        self.ctr[idx] += np.uint64(n_slots)
        u = self.rng.uniform(self.key[idx], base + np.arange(n_slots, dtype=np.uint64)[:, None])
        sd = np.sqrt(to_time - self.t_mat[idx])
        self.x[idx] += sd * ndtri(u[0])
        self.y[idx] += sd * ndtri(u[1])
        self.t_mat[idx] = to_time
        return u[2:]

    def materialize(self, to_time):
        """Advance every particle last materialized before to_time exactly
        to it (2 slots)."""
        idx = np.nonzero(self.t_mat < to_time)[0]
        if len(idx):
            self._move(idx, to_time, 2)

    def drain_until(self, t_b):
        """Process every proposal with time <= t_b (4 slots each).  Returns
        False if a split would exceed the cap, with the ledger rewound to its
        state on entry: the rows born since are cut, the MUTABLE columns put
        back and the split log cut to its length then."""
        rows, logged = self.size, len(self.split_log or ())
        saved = {name: getattr(self, name).copy() for name in self.MUTABLE}
        while True:
            active = np.nonzero(self.t_prop <= t_b)[0]
            if len(active) == 0:
                return True
            tau = self.t_prop[active]
            accept, wait = self._move(active, tau, 4)
            theta = np.arctan2(self.y[active], self.x[active])
            rate = branching_rate(theta, self.params)
            self.prop_idx[active] += np.uint64(1)
            self.t_prop[active] = tau - np.log(wait)

            split = accept <= rate
            if np.any(split):
                sel = active[split]
                if self.split_log is not None:
                    self.split_log.extend(zip(sel.tolist(), tau[split].tolist()))
                if not self.spawn_children:
                    continue
                if self.size + len(sel) > self.cap:
                    # copies, so the returned columns hold no discarded rows
                    for name in self.COLUMNS:
                        setattr(self, name, saved[name] if name in saved
                                else getattr(self, name)[:rows].copy())
                    if self.split_log is not None:
                        del self.split_log[logged:]
                    return False
                chi, clo = child_id(self.lid_hi[sel], self.lid_lo[sel],
                                    self.prop_idx[sel])
                self._born(chi, clo, sel, tau[split], self.x[sel], self.y[sel])


def snapshot_grid(snapshot_times, t_end):
    """The sorted snapshot times with t_end added; DomainError unless t_end
    is finite and positive and every time lies in (0, t_end]."""
    if not 0 < t_end < math.inf:
        raise DomainError(f"t_end must be finite and positive, got {t_end}")
    times = [float(s) for s in snapshot_times]
    off = [s for s in times if not 0 < s <= t_end]
    if off:
        raise DomainError(f"snapshot times must lie in (0, t_end = {t_end:g}], got {off[0]:g}")
    return sorted(set(times) | {float(t_end)})


def probe_times(t_list):
    """The sorted probe times of `porism_probe`, the last one its t_end;
    ConfigurationError if there are none, DomainError unless they form a
    snapshot grid."""
    if not t_list:
        raise ConfigurationError("the porism probe needs at least one time")
    t_list = sorted(float(t) for t in t_list)
    snapshot_grid(t_list, t_list[-1])
    return t_list


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

    Snapshot times lie in (0, t_end]; t_end is always a snapshot.  Every
    particle is materialized at every slice boundary (`_slice_boundaries`:
    the snapshots and the three quarter points before each), a grid that
    coupled runs share.  If the cap would be exceeded the run halts at the
    last completed slice boundary and the population is flagged truncated,
    exact at that earlier time (no culling: removing particles would bias
    the extremes).
    """
    snaps = snapshot_grid(snapshot_times, t_end)
    if cap < 1:
        raise DomainError("cap must be at least 1")
    led = _Ledger(seed, params, cap, [] if record_splits else None, spawn_children)
    stats: list[ExtremalStats] = []
    snapshots: dict = {}
    truncated = False
    reached = 0.0
    barrier_ok = True

    for t_b, is_snap in _slice_boundaries(snaps):
        if not led.drain_until(t_b):
            truncated = True
            break
        led.materialize(t_b)
        reached = t_b
        if is_snap:
            snapshots[t_b] = (led.x.copy(), led.y.copy())
            stats.append(_extremal_stats(t_b, *snapshots[t_b], consts, barrier_ok))
            barrier_ok = stats[-1].barrier_ok

    pop = Population(
        time=reached, lid_hi=led.lid_hi, lid_lo=led.lid_lo, parent=led.parent,
        birth=led.birth, x=led.x, y=led.y, next_proposal=led.t_prop,
        rng_root_seed=seed, cap=cap, truncated=truncated,
        snapshots=snapshots, split_log=led.split_log if record_splits else [],
    )
    return pop, stats


def _replicates(params: ModelParams, t_end: float, seed: int, n: int, **kw):
    """The runs of replicates 0..n-1, replicate rep seeded with
    derive_seed(seed, rep): the one replicate loop of the module."""
    for rep in range(n):
        yield run_continuous(params, t_end, derive_seed(seed, rep), **kw)


def run_coupled(alphas: Sequence[float], t_end: float, seed: int,
                snapshot_times: Sequence[float] = (),
                cap: int = DEFAULT_CAP, include_homogeneous: bool = False):
    """Coupled sinusoidal-family runs across alpha (ascending), plus an
    optional homogeneous member acting as the alpha = infinity envelope.

    Shared (seed, lineage, counter) randomness and a common snapshot grid
    mean that a lineage alive in two runs has identical history, and the
    acceptance test u <= b_alpha is monotone in alpha; the lineage-id sets
    therefore form an inclusion chain at every snapshot, which is asserted;
    the AssertionError names each member truncated by the cap before the
    failing snapshot.
    """
    alphas = list(alphas)
    if sorted(alphas) != alphas:
        raise ConfigurationError("alphas must be sorted ascending")
    envelope = ModelParams(alpha=1.0, rate_family=RateFamily.HOMOGENEOUS)
    members = [("inf", envelope) if math.isinf(a) else
               (repr(a), ModelParams(alpha=a, rate_family=RateFamily.SIN_POW))
               for a in alphas]
    if include_homogeneous and not any(k == "inf" for k, _ in members):
        members.append(("inf", envelope))
    if not members:
        raise ConfigurationError("a coupled run needs at least one member")
    snaps = snapshot_grid(snapshot_times, t_end)
    runs = {key: run_continuous(p, t_end, seed, snapshot_times=snaps, cap=cap)
            for key, p in members}
    pops = [runs[key][0] for key, _ in members]
    for t_b in snaps:
        alive = [p.birth <= t_b for p in pops]
        if not _chain_holds([_id_rows(p.lid_hi[a], p.lid_lo[a]) for p, a in zip(pops, alive)]):
            cut = "".join(f"; member {key} truncated at t = {p.time} with {p.size} particles "
                          f"(cap {cap})" for (key, _), p in zip(members, pops)
                          if p.truncated and p.time < t_b)
            raise AssertionError(
                f"coupled lineage sets failed the inclusion chain at t = {t_b}{cut}")
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


# parents of a lattice generation whose children are built at a time (at
# most 2 * BLOCK rows); on a 2-vCPU x86-64 machine 2^11 made the 2^20-particle
# run 5% slower and 2^13 raised the traced peak of a 2^16-particle run from
# 1.15 to 1.5 times the bytes it returns
BLOCK = 1 << 12
_MOVES = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)], dtype=np.float64)


def run_discrete(params: ModelParams, n_end: int, seed: int,
                 cap: int = DEFAULT_CAP, record_events: bool = False):
    """Synchronous lattice model on Z^2; returns (Population, events).

    Each particle consumes two counter slots per generation of life: one
    for its arrival move (at birth) and one for the offspring decision;
    its lineage key is mixed once, at birth, for both.
    events (when recorded) is a list of (theta, n_children) arrays.

    A generation is built in place.  Once the parents' offspring draw is
    done their keys are released, and each column grows once to the
    children's count.  The children are then filled from the last row
    backwards, the children of BLOCK parents at a time: a block gathers its
    parents' rows and derives the children's ids, keys and moves before it
    writes them.  A child's row is never before its parent's, so no block
    overwrites a parent that an unwritten child still reads.  Positions are
    float64 throughout (the moves are exact), the last generation keeps no
    keys (it draws no offspring), and birth and next_proposal, one value
    each, are read-only broadcast views, so the traced peak stays near the
    bytes of the returned arrays (1.15 times them at 2^16 particles, 0.84
    at 2^20).
    """
    if n_end < 1:
        raise DomainError("n_end must be >= 1")
    rng = CounterRNG(seed)
    hi0, lo0 = ROOT_ID
    lid_hi = np.array([hi0], dtype=np.uint64)
    lid_lo = np.array([lo0], dtype=np.uint64)
    key = rng.key(lid_hi, lid_lo)
    parent = np.array([-1], dtype=np.int64)
    x = np.zeros(1)
    y = np.zeros(1)
    events = []
    truncated = False

    gen = 0
    for gen in range(1, n_end + 1):
        theta = np.arctan2(y, x)
        two = rng.uniform(key, np.uint64(1)) <= branching_rate(theta, params)
        n_children = np.where(two, 2, 1).astype(np.int64)
        if record_events:
            events.append((theta, n_children))
        del theta, two, key
        n = int(n_children.sum())
        if n > cap:
            truncated = True
            gen -= 1
            break
        del parent
        parent = np.empty(n, dtype=np.int64)
        kept = gen < n_end
        key = np.empty(n if kept else 0, dtype=np.uint64)
        for col in (lid_hi, lid_lo, x, y):  # each owns its data and nothing views it
            col.resize(n, refcheck=False)
        end = n
        for p0 in range((len(n_children) - 1) // BLOCK * BLOCK, -1, -BLOCK):
            counts = n_children[p0:p0 + BLOCK]
            par = np.repeat(np.arange(p0, p0 + len(counts)), counts)
            rows = slice(end - len(par), end)
            end = rows.start
            chi, clo = child_id(lid_hi[par], lid_lo[par], _child_index(counts))
            ckey = rng.key(chi, clo)
            mv = np.minimum(np.floor(rng.uniform(ckey, np.uint64(0)) * 5.0).astype(np.int64), 4)
            cx, cy = x[par] + _MOVES[mv, 0], y[par] + _MOVES[mv, 1]
            parent[rows], lid_hi[rows], lid_lo[rows], x[rows], y[rows] = par, chi, clo, cx, cy
            if kept:
                key[rows] = ckey
        del n_children

    pop = Population(
        time=float(gen), lid_hi=lid_hi, lid_lo=lid_lo, parent=parent,
        birth=np.broadcast_to(float(gen), len(x)), x=x, y=y,
        next_proposal=np.broadcast_to(gen + 1.0, len(x)), rng_root_seed=seed,
        cap=cap, truncated=truncated,
    )
    return pop, events


# ---------------------------------------------------------------------------
# path functionals and moment identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathFunctional:
    """Supported shapes: one; x_indicator (X_t > x0); r_indicator (R_t > r0);
    x_cylinder (X(s_i) > a_i at given snapshot times).  Only x_cylinder
    reads the path before t: the others have no times."""

    kind: str
    x0: float = 0.0
    r0: float = 0.0
    times: tuple = ()
    thresholds: tuple = ()

    def __post_init__(self):
        if self.kind not in ("one", "x_indicator", "r_indicator", "x_cylinder"):
            raise ConfigurationError(f"unsupported functional {self.kind!r}")
        if self.times and self.kind != "x_cylinder":
            raise ConfigurationError(f"{self.kind} takes no times, got {len(self.times)}")
        if len(self.times) != len(self.thresholds):
            raise ConfigurationError(
                f"{len(self.times)} cylinder times but {len(self.thresholds)} thresholds")

    def on_population(self, pop: Population, t_end: float) -> float:
        """Sum of F over the particles alive at t_end, each path read at the
        snapshots of its ancestors."""
        n_alive = len(pop.snapshots[t_end][0])
        rows = []
        for s in (*self.times, t_end):
            xs, ys = pop.snapshots[s]
            anc = pop.ancestors(n_alive, s)
            rows.append((xs[anc], ys[anc]))
        return float(self.on_paths(*np.stack(rows, axis=1)).sum())

    def on_paths(self, xs, ys):
        """F on the paths that are the columns of xs and ys: row i holds the
        positions at `times[i]` and the last row those at the end time."""
        if self.kind == "one":
            return np.ones_like(xs[-1])
        if self.kind == "x_indicator":
            return (xs[-1] > self.x0).astype(float)
        if self.kind == "r_indicator":
            return (np.hypot(xs[-1], ys[-1]) > self.r0).astype(float)
        above = xs[:-1] > np.reshape(self.thresholds, (-1, 1))
        return np.all(above, axis=0).astype(float)


def _grid_column(grid, s):
    """Index of the grid node at time s; ConfigurationError off the grid."""
    j = int(np.argmin(np.abs(grid - s)))
    if abs(grid[j] - s) > 1e-9 * (grid[1] - grid[0]):
        raise ConfigurationError(f"time {s} is off the spine grid (step {grid[1] - grid[0]:g})")
    return j


def _mc_spine_one(params, t_end, functional, n_mc, seed, dt=0.01):
    """Single-spine expectation E[F(path) exp(int_0^t b(theta_s) ds)]."""
    grid = _weight_grid(0.0, t_end, dt)
    columns = [_grid_column(grid, s) for s in functional.times] + [len(grid) - 1]
    rate = lambda col, r: branching_rate(np.arctan2(col[1], col[0]), params)

    def sample(rng, size):
        integral = _Trapezoid(grid, rate)
        kept = {}  # grid column -> path column
        for j, col in _march(rng, grid, np.zeros((2, size))):
            integral.add(j, col)
            if j in columns:
                kept[j] = col
        rows = np.stack([kept[j] for j in columns], axis=1)
        return functional.on_paths(*rows) * np.exp(integral.total)

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


def _check_budget(t, t_max, n_sim, n_mc):
    """ConfigurationError unless t <= t_max and both sample sizes are >= 1."""
    if t > t_max:
        raise ConfigurationError(f"t too large for the replicate budget (use t <= {t_max:g})")
    if n_sim < 1 or n_mc < 1:
        raise ConfigurationError(f"need n_sim >= 1 and n_mc >= 1, got {n_sim}, {n_mc}")


def many_to_one_check(params: ModelParams, t: float, functional: PathFunctional,
                      n_sim: int, n_mc: int, seed: int) -> dict:
    """Simulator average of sum_u F(u) against the single-spine expectation
    E[F exp(int b)]; reports both sides with standard errors and a z-score."""
    _check_budget(t, 3.0, n_sim, n_mc)
    # the spine side first: it rejects snapshot times off its grid
    mc_mean, mc_se = _mc_spine_one(params, t, functional, n_mc, seed + 1)
    sims = np.array([functional.on_population(pop, t) for pop, _ in _replicates(
        params, t, seed, n_sim, snapshot_times=functional.times)])
    return _compare(sims, mc_mean, mc_se, n_mc)


def _mc_spine_two(params, t_end, f_fun, g_fun, n_mc, seed, dt=0.01):
    """Two-spine integral: the split time is stratified over cell midpoints,
    and both spines are marched on a half-step grid so the branch point is
    a grid point.  The march carries spine 1 and a free planar path W; after
    its branch column c, spine 2 is W + (spine 1 at c - W at c).  Its
    integral is that of the path following spine 1 up to c and spine 2
    after it, less spine 1's integral up to c."""
    m = _intervals(t_end, dt)
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
        fvals = f_fun(spine1[:1], spine1[1:])
        gvals = g_fun(spine2[:1], spine2[1:])
        weight = np.exp(int1.total + (int2.total - int1_at_branch))
        return 2.0 * t_end * b_at_branch * weight * fvals * gvals

    mean, stderr, _ = _chunked_mean(seed, n_mc, sample, key_offset=7_000_000, chunk=10_000)
    return mean, stderr


def many_to_two_check(params: ModelParams, t: float, f: PathFunctional,
                      g: PathFunctional, n_sim: int, n_mc: int, seed: int) -> dict:
    """Simulator average of sum_{u != v} F(u) G(v) against the two-spine
    integral with branch time r, weight 2 b(theta^1_r) exp(int_0^t b^1 +
    int_r^t b^2)."""
    _check_budget(t, 2.5, n_sim, n_mc)
    for fn in (f, g):
        if fn.kind == "x_cylinder":
            raise ConfigurationError("cylinder functionals unsupported in the pair check")
    sims = np.empty(n_sim)
    for rep, (pop, _) in enumerate(_replicates(params, t, seed, n_sim)):
        xs, ys = pop.snapshots[t]
        fv = f.on_paths(xs[None], ys[None])
        gv = g.on_paths(xs[None], ys[None])
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
    t_list = probe_times(t_list)
    t_end = t_list[-1]
    kappa = params.kappa() if params.rate_family is not RateFamily.HOMOGENEOUS else 1.0
    rows = {t: {"y_scaled": [], "gap": [], "exceed": 0, "m_minus_center": []}
            for t in t_list}
    truncated = 0
    for pop, stats in _replicates(params, t_end, seed, replicates,
                                  snapshot_times=t_list, cap=cap, consts=consts):
        if pop.truncated:
            truncated += 1
            continue
        for st in stats:
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


def _exp_or_inf(v):
    """e^v, or inf past the double range: theta1 grows like 1/(2 - alpha),
    so near alpha = 2 the factor e^{theta1 t^{1-kappa}} of Z_t overflows,
    a statistic of a run that is itself exact."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _extremal_stats(t, x, y, consts, barrier_ok):
    """The extremes of the snapshot (x, y) at time t.  `barrier_ok` is the
    flag of the snapshots before; the result's flag adds max X <= sqrt(2) t
    - 1 at this one (t < 1 passes)."""
    r = np.hypot(x, y)
    imax = int(np.argmax(r))
    max_x = float(x.max())
    z_t = math.nan
    if consts is not None:
        a = SQRT2 * t - x
        lp = consts.theta1 * t ** (1.0 - consts.kappa) - consts.kappa / 4.0 * math.log(t)
        pos = a > 0
        total = 0.0
        if np.any(pos):
            total += _exp_or_inf(lp + logsumexp(np.log(a[pos]) - SQRT2 * a[pos]))
        neg = a < 0
        if np.any(neg):
            total -= _exp_or_inf(lp + logsumexp(np.log(-a[neg]) - SQRT2 * a[neg]))
        z_t = total
    return ExtremalStats(
        t=float(t), m_t=float(r[imax]), max_x=max_x, argmax_y=float(y[imax]), z_t=z_t,
        barrier_ok=barrier_ok and (t < 1.0 or max_x <= SQRT2 * t - 1.0),
    )
