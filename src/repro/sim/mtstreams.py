"""Vectorized banks of CPython-compatible Mersenne Twister streams.

The reference engine gives every node its own ``random.Random`` seeded
by :func:`repro.rng.spawn_for_node`, and seed-for-seed parity between
backends (the contract the parity suite enforces) therefore requires
the NumPy backend to draw *bit-identical* uniforms from *the same*
per-node streams.  ``numpy.random`` cannot do that — its MT19937 uses
a different seeding algorithm and a different double extraction — so
this module reimplements exactly what CPython does, across many
streams at once:

* :func:`init_streams` replicates ``random.Random(seed).seed`` for a
  vector of 64-bit seeds: the ``init_genrand(19650218)`` base state,
  then ``init_by_array`` over the seed split into little-endian 32-bit
  words (one word when the high half is zero, two otherwise).
* :class:`MTStreams` serves ``random.random()`` values stream by
  stream.  State lives in a ``(624, S)`` uint32 matrix (row-major over
  the Mersenne index, so the twist works on contiguous rows); each
  twist of a stream yields a block of 312 doubles via the standard
  temper + 53-bit extraction ``((a >> 5) * 2^26 + (b >> 6)) / 2^53``.

CPython twists in place and in order, so the twist can be cut into
contiguous row ranges (:func:`_twist_rows`) with the same result.  The
bank uses that to build the first block, and every later one that all
streams reach together, lazily but bank-wide, ``CHUNK`` doubles of
every stream at a time and only as far as the furthest stream has
drawn: a Decay batch draws a few dozen coins per stream and never pays
for the rest of the block.  Twisting and extraction go a few
rows at a time on every path, so no temporary grows with the bank.

Streams advance independently: a node that flips no coin this slot
consumes nothing, which is what keeps the per-node draw *order* — the
only thing parity depends on — identical to the reference engine.

This module imports NumPy at module load; gate imports through
:mod:`repro.sim.backends` so the library works without it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["init_streams", "MTStreams"]

_U32 = np.uint32
_UPPER = _U32(0x80000000)
_LOWER = _U32(0x7FFFFFFF)
_MATRIX_A = _U32(0x9908B0DF)

_N = 624  # MT19937 state words
_M = 397  # twist offset
_SPLIT = _N - _M  # from this word on, the twist reads already-new words
#: random() values produced per twist (two state words per double).
BLOCK = _N // 2
#: Doubles of a block built at a time, bank-wide, as draws reach them;
#: a gather refill also writes back this many at a time.
CHUNK = 32
#: State words twisted and extracted per vector step.  On banks above
#: 2,048 streams this cuts steps below ``CHUNK`` doubles, so their
#: temporaries stay in cache (see EXPERIMENTS.md for the timing).
_STEP_WORDS = 1 << 17


def _base_state() -> np.ndarray:
    """``init_genrand(19650218)`` — the seed-independent prefix state."""
    mt = np.empty(_N, dtype=np.uint32)
    mt[0] = 19650218
    for i in range(1, _N):
        prev = int(mt[i - 1])
        mt[i] = (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
    return mt


_BASE = _base_state()


def init_streams(seeds) -> np.ndarray:
    """State matrix ``(624, S)`` equal to ``random.Random(seed)`` per seed.

    ``seeds`` are the non-negative 64-bit ints :func:`repro.rng.derive_seed`
    produces.  CPython splits such a seed into 32-bit words little-endian
    and feeds them to ``init_by_array``; a seed below 2**32 uses a
    one-word key, which the two-word recurrence reproduces by selecting
    the one-word term stream-wise (``keylen2`` mask).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    key0 = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    key1 = (seeds >> np.uint64(32)).astype(np.uint32)
    keylen2 = key1 != 0
    mt = np.repeat(_BASE[:, None], len(seeds), axis=1)
    i = 1
    # key[j] + j alternates key0, key1 + 1 for the two-word streams;
    # one-word streams always add key[0] + 0 (j stays 0 when keylen == 1).
    with np.errstate(over="ignore"):
        terms = (key0, np.where(keylen2, key1 + _U32(1), key0))
        for step in range(_N):
            term = terms[step & 1]
            prev = mt[i - 1]
            mt[i] = (mt[i] ^ ((prev ^ (prev >> _U32(30))) * _U32(1664525))) + term
            i += 1
            if i >= _N:
                mt[0] = mt[_N - 1]
                i = 1
        for _ in range(_N - 1):
            prev = mt[i - 1]
            mt[i] = (mt[i] ^ ((prev ^ (prev >> _U32(30))) * _U32(1566083941))) - _U32(i)
            i += 1
            if i >= _N:
                mt[0] = mt[_N - 1]
                i = 1
    mt[0] = 0x80000000
    return np.ascontiguousarray(mt)


def _twist_rows(mt: np.ndarray, lo: int, hi: int) -> None:
    """Advance state rows ``[lo, hi)`` of every stream one generation.

    This is CPython's in-place twist cut into row ranges: rows below
    ``lo`` must already be new and rows from ``lo`` on still old, so
    successive calls over ``[0, a)``, ``[a, b)``, ... equal one twist
    of the whole state.  Word ``i`` reads the old words ``i`` and
    ``i + 1``; below 227 it also reads the old word ``i + 397``, from
    227 on the already-new word ``i - 227``.  Each vector step stays
    on one side of 227 and at most 227 rows wide, so everything it
    reads is final before it writes.
    """
    with np.errstate(over="ignore"):
        while lo < hi:
            if lo == _N - 1:
                # The last word wraps around to the already-new word 0.
                y = (mt[lo] & _UPPER) | (mt[0] & _LOWER)
                mt[lo] = mt[_M - 1] ^ (y >> _U32(1)) ^ ((y & _U32(1)) * _MATRIX_A)
                return
            if lo < _SPLIT:
                top = min(hi, _SPLIT)
                dep = mt[lo + _M : top + _M]
            else:
                top = min(hi, _N - 1, lo + _SPLIT)
                dep = mt[lo - _SPLIT : top - _SPLIT]
            y = mt[lo:top] & _UPPER
            low = mt[lo + 1 : top + 1] & _LOWER
            y |= low
            # (y & 1) * A == A where the low bit is set, 0 elsewhere.
            mag = np.bitwise_and(y, _U32(1), out=low)
            mag *= _MATRIX_A
            y >>= _U32(1)
            y ^= mag
            y ^= dep
            mt[lo:top] = y
            lo = top


def _extract(rows: np.ndarray, out: np.ndarray) -> None:
    """Temper an even run of twisted rows into half as many doubles."""
    w = rows >> _U32(11)
    w ^= rows
    t = w << _U32(7)
    t &= _U32(0x9D2C5680)
    w ^= t
    np.left_shift(w, _U32(15), out=t)
    t &= _U32(0xEFC60000)
    w ^= t
    np.right_shift(w, _U32(18), out=t)
    w ^= t
    # ((a >> 5) * 2^26 + (b >> 6)) / 2^53 over word pairs (a, b).
    a, b = w[0::2], w[1::2]
    a >>= _U32(5)
    b >>= _U32(6)
    np.multiply(a, 67108864.0, out=out)
    out += b
    out *= 1.0 / 9007199254740992.0


def _fill(mt: np.ndarray, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """Twist the state rows behind doubles ``[lo, hi)`` and extract them.

    Rows before ``2 * lo`` must already be twisted (see
    :func:`_twist_rows`).  The work goes in steps of about
    ``_STEP_WORDS`` state words, so each step's temporaries stay in
    cache and none grows with the bank.
    """
    if out is None:
        out = np.empty((hi - lo, mt.shape[1]), dtype=np.float64)
    step = max(1, min(CHUNK, _STEP_WORDS // (2 * mt.shape[1])))
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        _twist_rows(mt, 2 * a, 2 * b)
        _extract(mt[2 * a : 2 * b], out[a - lo : b - lo])
    return out


class MTStreams:
    """A bank of independent ``random.Random``-equivalent streams.

    ``draw(idx)`` returns, for each stream index in ``idx``, the next
    value its ``random.random()`` would produce.  Only the streams in
    ``idx`` advance.

    Blocks are built lazily but bank-wide: ``_ready`` doubles of the
    current block exist for every stream, and a draw that reaches
    ``_ready`` twists and extracts the next ``CHUNK`` of them for the
    whole bank, a contiguous range of state rows (see
    :func:`_twist_rows`).  A batch whose streams draw a few dozen coins
    each never builds the rest of the block, and the lazy fill never
    splinters into per-stream gather refills.  A stream can only
    exhaust its block once ``_ready`` covers all of it.  When every
    stream does so at once, the bank is back in the state construction
    leaves it in and the next block is again built lazily; otherwise
    the exhausted streams' columns are gathered, twisted a 312-value
    block at a time and written back ``CHUNK`` doubles at a time.
    """

    def __init__(self, seeds) -> None:
        self._mt = init_streams(seeds)
        self._count = self._mt.shape[1]
        self._buf = np.empty((BLOCK, self._count), dtype=np.float64)
        self._pos = np.zeros(self._count, dtype=np.int64)
        # Doubles of the first block built for every stream; no stream's
        # position passes it.
        self._ready = 0

    def __len__(self) -> int:
        return self._count

    def draw(self, idx: np.ndarray) -> np.ndarray:
        """Next ``random.random()`` value of each stream in ``idx``."""
        pos = self._pos
        at = pos[idx]
        if at.size and at.max() >= self._ready:
            if self._ready == BLOCK:
                self._refill(idx[at >= BLOCK])
                at = pos[idx]
            if self._ready < BLOCK:
                lo, hi = self._ready, min(self._ready + CHUNK, BLOCK)
                _fill(self._mt, lo, hi, self._buf[lo:hi])
                self._ready = hi
        vals = self._buf[at, idx]
        pos[idx] = at + 1
        return vals

    def _refill(self, idx: np.ndarray) -> None:
        if idx.size == self._count:
            # Every stream is at its block's end: the bank is back in the
            # state construction leaves it in, and draw() refills lazily.
            self._ready = 0
        else:
            cols = self._mt[:, idx]  # fancy index -> contiguous copy
            for lo in range(0, BLOCK, CHUNK):
                hi = min(lo + CHUNK, BLOCK)
                self._buf[lo:hi, idx] = _fill(cols, lo, hi)
            self._mt[:, idx] = cols
        self._pos[idx] = 0
