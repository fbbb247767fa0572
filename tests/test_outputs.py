"""Result-file bytes and the array forms of the per-particle steps in `sim`.

The sha256 digests below pin the CSV bytes of small `simulate`, `couple` and
`discrete` runs.  They were taken before the per-particle loops of `sim`
(hex ids, CSV rows, the lattice child index, the chain check) and the
per-draw lineage mixing of `rng` became array operations, which must leave
every byte and every random stream as it was.  The JSON files of those runs
and of small `mto1`, `mto2` and `porism` runs were pinned before the ledger
kept each lineage key as a column and the replicate loops became one.  The
lattice digests pin every `Population` array of `run_discrete` (dtype and
bytes), its time, size and truncation flag, and its recorded events; they
were taken before the generation loop came to release each array at its
last use and to move positions in place.  The last two lattice runs (one
of 220,000 particles, whose generations end in a partial block, and one
truncated by its cap after generations of many blocks) were pinned before
a generation came to be built in place, in blocks of parents.  The
continuous digests pin every `Population` array of `run_continuous`, its
snapshots, stats and split log; they were taken before the ledger came to
hold its run's inputs, to draw every Brownian increment in one move and to
rewind a cap overrun by row count.
Recorded with numpy 2.4 and scipy 1.17 on x86-64; a platform whose libm
rounds `log`, `arctan2` or `ndtri` differently in the last bit may need them
re-taken from a tree that predates the change.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmlab.cli import main
from bbmlab.files import CELLS_PER_BLOCK, write_csv
from bbmlab.model import ModelParams, RateFamily, RateTable
from bbmlab.rng import CounterRNG, mix_words
from bbmlab.sim import (
    HexIds,
    _chain_holds,
    _child_index,
    _id_rows,
    run_continuous,
    run_coupled,
    run_discrete,
)

PINNED_RUNS = [
    ["simulate", "--alpha", "1.5", "--t-end", "5", "--snapshots", "2.5,5", "--seed", "7"],
    ["couple", "--alphas", "0.5,1,2", "--t-end", "4", "--snapshots", "2,4", "--seed", "5",
     "--homogeneous", "1"],
    ["discrete", "--alpha", "1", "--n-end", "12", "--seed", "3"],
    ["mto1", "--alpha", "1.5", "--t-end", "1", "--functional", "x_indicator", "--x0", "0.5",
     "--n-sim", "40", "--n-mc", "2000", "--seed", "3"],
    ["mto2", "--alpha", "1", "--t-end", "1", "--f-functional", "r_indicator", "--f-r0", "0.5",
     "--n-sim", "40", "--n-mc", "2000", "--seed", "4"],
    ["porism", "--alpha", "1", "--t-list", "2,3", "--replicates", "6", "--seed", "9"],
]
PINNED_SHA256 = {
    "simulate/snapshots.csv": "0f247bd5022bf7fe76196c1597f848d92c92e3d00be7a42a2918b0a18329bb5b",
    "simulate/stats.csv": "bc1f44728b0589aa2378b3e80c7fbf8c16863fb9e9842f38d17ce1185890aef8",
    "couple/snapshots_alpha_0p5.csv": "74d097e8081807d44f6179ac251ad3f100843395b1bee23427279fb498396751",
    "couple/snapshots_alpha_1p0.csv": "2343ad31e9496ceb7ed30d0041ac03f2d312e9377e530f96504dce510ba0d386",
    "couple/snapshots_alpha_2p0.csv": "5bf171c94aa14401dcd2ec74567693c07d540bcfcd9bf12989619d5014af62dc",
    "couple/snapshots_alpha_inf.csv": "de44114ac4778c5d0f66c6c9781dd836aa02ca5f987c0390ee6ee5768cea1cdd",
    "discrete/lattice.csv": "4326f528a2d7f49cd99d5299c92aa4d6d8949cb2d1deaa7d11fbcd64e31d4417",
    "simulate/run.json": "731e6e453d48a38586d9033cfa041b34496e18807e5f47fe699f32c7b441c6ee",
    "couple/coupling.json": "b7b2ec4b5310ef772dd91e0c06964e18cb1397e182e6864d56d5a7622f49fc58",
    "discrete/run.json": "c1167991bb725258e9b3b5cf6bb10a1e1e658bd7d588fd07e0e12734aa313b0a",
    "mto1/many_to_one.json": "fac6fb2a0fb1919b6078492096e34616df8ae93d6b6014804a94dbb2300e9bae",
    "mto2/many_to_two.json": "64aafb095840a92c34c0df3ad928ab13a51f6fa40d8d3f3a5e13dd8c322733d2",
    "porism/porism.json": "5ca191bc1fc49c20ba8615b613507e575ceac0a2cac643409b47730bca019b93",
}


@pytest.fixture(scope="module")
def pinned_digests(tmp_path_factory):
    """sha256 of every file the pinned runs write, by path under the output root."""
    out = tmp_path_factory.mktemp("pinned")
    for argv in PINNED_RUNS:
        assert main(argv + ["--out", str(out)]) == 0
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*") if p.is_file()}


def _of_kind(digests, suffix):
    return {k: v for k, v in digests.items() if k.endswith(suffix)}


def test_pinned_csv_bytes(pinned_digests):
    assert _of_kind(pinned_digests, ".csv") == _of_kind(PINNED_SHA256, ".csv")


def test_pinned_json_bytes(pinned_digests):
    assert _of_kind(pinned_digests, ".json") == _of_kind(PINNED_SHA256, ".json")


LATTICE_RUNS = {
    "homogeneous_n14": (RateFamily.HOMOGENEOUS, 14, 7, {}),
    "sinpow_n9_events": (RateFamily.SIN_POW, 9, 5, {"record_events": True}),
    "sinpow_n20_capped": (RateFamily.SIN_POW, 20, 3, {"cap": 1000}),
    "sinpow_n22_partial_block": (RateFamily.SIN_POW, 22, 1, {}),
    "homogeneous_n17_capped": (RateFamily.HOMOGENEOUS, 17, 2, {"cap": 100_000}),
}
LATTICE_SHA256 = {
    "homogeneous_n14": "0e16e52e2da6f8a504ab5e40796627f3c83203784ff3921462590d2bb7cdfa6b",
    "sinpow_n9_events": "81e07600c33ca08b0341e15b1760b631f78c915bc9c291714053ea926dc1bd57",
    "sinpow_n20_capped": "cad9ee91897dd38678efb52f53b4995331651a63accb4f9d4d77d5e1ae04c34b",
    "sinpow_n22_partial_block": "4c12e46f2dc5085a8b87a0374a6b060a24cd47bb639ff39d1c47e9340f5d3162",
    "homogeneous_n17_capped": "205ebbed400eae008eb79344cc4585d6a27344e33c68995fe99b85f94b295e82",
}


def _digest(head, arrays):
    """sha256 over repr(head), then the dtype and bytes of every array."""
    h = hashlib.sha256(repr(head).encode())
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _pop_arrays(pop):
    return [v for v in vars(pop).values() if isinstance(v, np.ndarray)]


def _lattice_digest(pop, events):
    """sha256 over the dtype and bytes of every array of a lattice run."""
    return _digest((pop.time, pop.size, pop.truncated),
                   _pop_arrays(pop) + [a for event in events for a in event])


@pytest.mark.parametrize("run", sorted(LATTICE_RUNS))
def test_pinned_lattice_arrays(run):
    family, n_end, seed, kwargs = LATTICE_RUNS[run]
    pop, events = run_discrete(ModelParams(alpha=1.0, rate_family=family), n_end, seed, **kwargs)
    assert pop.truncated == ("cap" in kwargs)
    assert bool(events) == kwargs.get("record_events", False)
    assert _lattice_digest(pop, events) == LATTICE_SHA256[run]


CONTINUOUS_RUNS = {
    "sinpow_t8_snapshots": (ModelParams(alpha=1.0), 8.0, 3, {"snapshot_times": (2.0, 4.0, 6.0)}),
    "homogeneous_t12_capped": (ModelParams(alpha=1.0, rate_family=RateFamily.HOMOGENEOUS),
                               12.0, 4, {"cap": 500}),
    "constant_rate_split_log": (
        ModelParams(alpha=1.0, rate_family=RateFamily.CUSTOM, table=RateTable((0.6,) * 17)),
        300.0, 555, {"record_splits": True, "spawn_children": False}),
}
CONTINUOUS_SHA256 = {
    "sinpow_t8_snapshots": "e5767912fc810f756a4cb54e3f1355256605fe7a3456044d0f539288da313c61",
    "homogeneous_t12_capped": "1d31b8c1fd20eb99d8b57910faaf416a89ca0f4e5c6db1d491e673d0780d2b71",
    "constant_rate_split_log": "fc4e3d4ae7e719b8b286a3bfaa29645d55cfca461499265a8436f5bf65e730b0",
}


def _continuous_digest(pop, stats):
    """sha256 over every `Population` array, every snapshot array (in time
    order), the stats and the split log of an exact particle run."""
    times = sorted(pop.snapshots)
    head = (pop.time, pop.size, pop.truncated, times, repr(stats), pop.split_log)
    return _digest(head, _pop_arrays(pop) + [a for t in times for a in pop.snapshots[t]])


@pytest.mark.parametrize("run", sorted(CONTINUOUS_RUNS))
def test_pinned_continuous_arrays(run):
    params, t_end, seed, kwargs = CONTINUOUS_RUNS[run]
    pop, stats = run_continuous(params, t_end, seed, **kwargs)
    assert pop.truncated == ("cap" in kwargs)
    assert bool(pop.split_log) == kwargs.get("record_splits", False)
    assert _continuous_digest(pop, stats) == CONTINUOUS_SHA256[run]


def _hex_ids(pop):
    return HexIds(pop.lid_hi, pop.lid_lo)


class TestLineageIds:
    def test_hexes_match_one_by_one(self):
        pop, _ = run_continuous(ModelParams(alpha=1.0), 3.0, 11)
        assert pop.size > 5
        assert len(_hex_ids(pop)) == pop.size
        assert _hex_ids(pop)[:] == [pop.lineage_hex(i) for i in range(pop.size)]
        assert _hex_ids(pop)[2:5] == [pop.lineage_hex(i) for i in range(2, 5)]
        assert _hex_ids(pop)[:0] == []

    def test_hexes_across_blocks(self):
        pop, _ = run_discrete(ModelParams(alpha=1.0, rate_family=RateFamily.HOMOGENEOUS), 17, 2)
        rows = CELLS_PER_BLOCK // 3  # a block of lattice.csv's three columns
        assert pop.size == 2 ** 17 > rows
        ids = _hex_ids(pop)
        # the two blocks write_csv asks for
        got = ids[:rows] + ids[rows:2 * rows]
        assert got == [pop.lineage_hex(i) for i in range(pop.size)]

    def test_hexes_of_extreme_words(self):
        pop, _ = run_discrete(ModelParams(alpha=1.0), 2, 1)
        pop.lid_hi[:2] = [0, 2 ** 64 - 1]
        pop.lid_lo[:2] = [2 ** 64 - 1, 1]
        assert _hex_ids(pop)[:2] == ["0000000000000000ffffffffffffffff",
                                     "ffffffffffffffff0000000000000001"]


class TestChildIndex:
    @pytest.mark.parametrize("counts", [[], [1], [2], [1] * 7, [2] * 7,
                                        [1, 2, 2, 1, 1, 2, 1], [2, 1, 1, 1, 2]])
    def test_matches_concatenated_ranges(self, counts):
        n = np.array(counts, dtype=np.int64)
        expect = np.concatenate([np.empty(0, dtype=np.int64)] + [np.arange(k) for k in n])
        got = _child_index(n)
        assert got.dtype == np.uint64
        assert got.tolist() == expect.tolist()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 2), max_size=200))
    def test_matches_concatenated_ranges_random(self, counts):
        n = np.array(counts, dtype=np.int64)
        expect = [i for k in counts for i in range(k)]
        assert _child_index(n).tolist() == expect


class TestChainCheck:
    def _ids(self, pop):
        return _id_rows(pop.lid_hi, pop.lid_lo)

    def test_holds_on_a_coupled_run(self):
        runs = run_coupled([0.5, 2.0], 3.0, 1, include_homogeneous=True)
        ids = [self._ids(pop) for pop, _ in runs.values()]
        assert _chain_holds(ids)
        assert not _chain_holds(ids[::-1])

    def test_fails_when_one_id_is_dropped_from_the_larger_set(self):
        runs = run_coupled([0.5, 2.0], 3.0, 1)
        small, big = (self._ids(pop) for pop, _ in runs.values())
        assert 1 < len(small) < len(big)
        assert _chain_holds([small, big])
        for k in (0, len(small) // 2, len(small) - 1):
            dropped = np.delete(big, np.nonzero(big == small[k])[0])
            assert len(dropped) == len(big) - 1
            assert not _chain_holds([small, dropped])

    def test_a_differing_low_word_is_a_different_id(self):
        hi = np.array([5, 6], dtype=np.uint64)
        assert not _chain_holds([_id_rows(hi, np.array([1, 2], dtype=np.uint64)),
                                 _id_rows(hi, np.array([1, 3], dtype=np.uint64))])
        assert _chain_holds([_id_rows(hi[:0], hi[:0]), _id_rows(hi, hi)])


class TestCounterKey:
    def test_key_then_counter_equals_the_full_mix(self):
        rng = CounterRNG(2 ** 64 - 3)
        hi = np.array([0, 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
        lo = np.array([1, 0, 7, 2 ** 64 - 1], dtype=np.uint64)
        ctr = np.array([0, 3, 2 ** 40, 2 ** 64 - 1], dtype=np.uint64)
        bits = mix_words(rng.seed, hi, lo, ctr)
        u = np.maximum((bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53, 2.0 ** -54)
        assert rng.uniform(rng.key(hi, lo), ctr).tolist() == u.tolist()

    def test_a_block_of_slots_equals_its_rows(self):
        # the particle ledger draws k slots of n keys as one (k, n) mix
        rng = CounterRNG(11)
        key = rng.key(np.arange(5, dtype=np.uint64), np.full(5, 7, dtype=np.uint64))
        base = np.array([0, 1, 2 ** 40, 2 ** 64 - 3, 2 ** 64 - 1], dtype=np.uint64)
        rows = base + np.arange(4, dtype=np.uint64)[:, None]  # wraps past 2^64
        block = rng.uniform(key, rows)
        assert block.shape == (4, 5)
        for k in range(4):
            assert block[k].tobytes() == rng.uniform(key, base + np.uint64(k)).tobytes()


def _old_rows(header, columns):
    """The row formula of the writer before it went column by column."""
    cols = [c.tolist() if hasattr(c, "tolist") else c for c in columns]
    return (",".join(header) + "\n"
            + "".join(",".join(map(str, row)) + "\n" for row in zip(*cols)))


def _written(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    assert write_csv(path, header, columns) == str(path)
    return path.read_text()


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e16, 1e-5, 0.1]),
)


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(
        st.lists(FLOATS, min_size=n, max_size=n),
        st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n),
        st.lists(st.text(alphabet="abc0123456789_.-", max_size=8), min_size=n, max_size=n))))
    def test_matches_the_row_formula(self, tmp_path_factory, data):
        floats, ints, texts = data
        tmp_path = tmp_path_factory.mktemp("csv")
        columns = [np.array(floats, dtype=np.float64), floats, ints, texts,
                   np.array([i % 2 ** 62 for i in ints], dtype=np.int64)]
        header = ["f_np", "f", "i", "s", "i_np"]
        assert _written(tmp_path, header, columns) == _old_rows(header, columns)

    def test_rows_beyond_one_block(self, tmp_path, monkeypatch):
        from bbmlab import files

        monkeypatch.setattr(files, "CELLS_PER_BLOCK", 21)  # 7 rows of 3 columns
        columns = [np.arange(23), np.linspace(-1.0, 1.0, 23), [f"id{i}" for i in range(23)]]
        assert _written(tmp_path, ["a", "b", "c"], columns) == _old_rows(["a", "b", "c"], columns)

    def test_columns_are_sliced_one_block_at_a_time(self, tmp_path):
        # a column such as HexIds formats what a slice asks for, so a wider
        # slice would hold more than one block of text at once; a block holds
        # a budget of cells, so a wide table (field.csv has a column per
        # node) is cut into blocks of few rows
        widths = []

        class Spy(HexIds):
            def __getitem__(self, key):
                widths.append(len(range(*key.indices(len(self)))))
                return super().__getitem__(key)

        for n_columns, rows in [(2, CELLS_PER_BLOCK // 2), (CELLS_PER_BLOCK // 4, 4)]:
            widths.clear()
            n = 2 * rows + 3
            words = np.arange(n, dtype=np.uint64)
            ids = Spy(words, words)
            text = _written(tmp_path, ["lineage_id"] + ["x"] * (n_columns - 1),
                            [ids] + [np.zeros(n)] * (n_columns - 1))
            assert widths == [rows, rows, 3]
            assert text.splitlines()[1:] == [h + ",0.0" * (n_columns - 1)
                                             for h in HexIds(words, words)[:]]

    def test_zero_rows(self, tmp_path):
        assert _written(tmp_path, ["a", "b"], [[], np.empty(0)]) == "a,b\n"
        assert _written(tmp_path, [], []) == "\n"

