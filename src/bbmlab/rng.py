"""Counter-based random numbers keyed by (seed, lineage id, counter).

The particle simulators need every draw to be a pure function of the
lineage identity so that runs with different branching rates but the same
seed see identical randomness for shared lineages.  numpy's stateful
generators cannot be vectorized across thousands of per-particle streams,
so we use a stateless 64-bit mixing function (splitmix64 finalizer,
Stafford variant 13) applied to the tuple (seed, id_hi, id_lo, counter).

The mix is a chain, one word at a time, so the prefix (seed, id_hi, id_lo)
is mixed once per particle set into a lineage key (`CounterRNG.key`) and
every draw then mixes only its counter into that key: one finalizer pass
per draw, with bits identical to mixing the whole tuple.  Counter-based
generators split key and counter the same way (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011).

Every draw goes through `CounterRNG.uniform`, which maps the mixed bits to
(0, 1); its callers turn them into normals (the exact inverse CDF) and
exponentials (-log U).  The counters broadcast against the keys, so a
block of k slots for n particles is one (k, n) mix, with bits identical to
k draws of one row each.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Root lineage id, fixed by convention.
ROOT_ID = (np.uint64(0), np.uint64(1))


def _mix64(x):
    """splitmix64 finalizer; works in place, so x must be a fresh value."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _absorb(h, w):
    """Mix one more word into the chain value h."""
    return _mix64((h + _GOLDEN) ^ np.asarray(w, dtype=np.uint64))


def mix_words(*words):
    """Mix any number of uint64 words (scalars or aligned arrays) into one.

    uint64 arithmetic wraps mod 2**64 by design; numpy's overflow warning
    is suppressed locally because the wraparound is the point.
    """
    with np.errstate(over="ignore"):
        h = np.uint64(0x243F6A8885A308D3)
        for w in words:
            h = _absorb(h, w)
    return h


_ID_SALTS = np.array([0xA5A5A5A5A5A5A5A5, 0x5A5A5A5A5A5A5A5A], dtype=np.uint64)


def child_id(parent_hi, parent_lo, event_index):
    """Derive a child's 128-bit lineage id from the parent id and the index
    of the parent proposal event at which it was born.  hi mixes (parent hi,
    parent lo, index, salt) and lo (parent lo, parent hi, index, salt'), as
    the two rows of one stacked chain."""
    hi, lo, ev = np.broadcast_arrays(*(np.asarray(w, dtype=np.uint64)
                                       for w in (parent_hi, parent_lo, event_index)))
    salts = _ID_SALTS.reshape((2,) + (1,) * ev.ndim)
    h = mix_words(np.stack([hi, lo]), np.stack([lo, hi]), ev, salts)
    return h[0], h[1]


class CounterRNG:
    """Stateless stream: draw the k-th variate of a lineage under a seed.

    `key(hi, lo)` mixes the seed and the lineage id once; the draws take
    that key and a counter slot, so `uniform(key(hi, lo), ctr)` equals the
    uniform of `mix_words(seed, hi, lo, ctr)` bit for bit."""

    def __init__(self, seed):
        self.seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._seeded = mix_words(self.seed)  # the chain after the seed word

    def key(self, hi, lo):
        """Lineage key of the ids (hi, lo) under this seed."""
        with np.errstate(over="ignore"):
            return _absorb(_absorb(self._seeded, hi), lo)

    def uniform(self, key, ctr):
        """U(0,1) from counter slot `ctr`; never returns exactly 0 or 1.
        `ctr` broadcasts against `key`: counters of shape (k, n) against n
        keys draw k slots of each key in one mix."""
        with np.errstate(over="ignore"):
            bits = _absorb(key, ctr)
        # 53 significant bits, shifted into (0, 1); only a zero moves up
        u = (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return np.maximum(u, 2.0 ** -54)
