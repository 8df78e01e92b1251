"""Counter-based random streams.

Every random draw in the package comes from a Philox generator whose 128-bit
key encodes (master seed, namespace, purpose, stream index).  A stream is a
pure function of those four labels, so ensembles partitioned across workers
produce bit-identical results regardless of scheduling: particle p always
draws the same numbers no matter which worker simulates it, or in what order.

Philox is counter-based, so the key is the whole stream: re-keying a
generator (`Streams.generators`) resets it to the start of another stream,
and it then draws exactly what a fresh `stream` would.  `philox4x64`
computes the Philox4x64-10 blocks of whole arrays of keys and counters in
numpy, the same words numpy's Philox gives, so the streams of a particle
block (`Streams`) can be drawn as arrays: the engine draws a block's DRIVER
words so, and re-keys one generator per block only for the INIT and
BROWNIAN streams, whose Gaussian draws (numpy's ziggurat) are not
reproduced here.

Layout of the key (most significant first):

    bits 127..64   master seed (64 bits)
    bits  63..56   namespace
    bits  55..48   purpose
    bits  47..0    stream index (particle index, replication index, ...)
"""

from __future__ import annotations

import numpy as np

# Purposes: what a stream is consumed for.
INIT = 1        # initial-condition draws
DRIVER = 2      # driving Levy process atoms (count, times, marks)
BROWNIAN = 3    # Brownian increments of the state equation
OBS_W = 4       # observation Brownian increments
OBS_PROPOSAL = 5  # proposal atoms of the observation random measure
OBS_THIN = 6    # thinning uniforms, one per proposal atom
RESAMPLE = 7    # particle-filter resampling draws
PROBE = 9       # probe points for validators / randomized tests

# Namespaces: which subsystem owns the stream, so e.g. the signal ensemble
# and the filter's particle ensemble never collide even with equal indices.
SIGNAL = 0
OBSERVATION = 1
FILTER = 2

_MASK64 = (1 << 64) - 1
_MAX_INDEX = 1 << 48


def stream_key(seed: int, purpose: int, index: int = 0, namespace: int = SIGNAL) -> int:
    """128-bit Philox key for the (seed, namespace, purpose, index) stream."""
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"stream index out of range: {index}")
    if not 0 <= purpose < 256 or not 0 <= namespace < 256:
        raise ValueError(f"purpose/namespace out of range: {purpose}, {namespace}")
    return ((seed & _MASK64) << 64) | (namespace << 56) | (purpose << 48) | index


def stream(seed: int, purpose: int, index: int = 0, namespace: int = SIGNAL) -> np.random.Generator:
    """Dedicated generator for one (seed, namespace, purpose, index) stream."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, purpose, index, namespace)))


# the state a stream starts in (zero counter and buffer, no half-used 32-bit
# word), but for its key; the state setter copies every value, so
# Streams.generators fills in the key and hands over this one dict per stream
_START = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
          "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


# Philox4x64-10 (Salmon et al., SC'11): a round multiplies words 0 and 2 by
# these, as one (2, n) product, then bumps the key words (kept swapped)
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_M_LO, _M_HI = _M & _LO32, _M >> _32
_W = np.array([[0xBB67AE8584CAA73B], [0x9E3779B97F4A7C15]], dtype=np.uint64)


def philox4x64(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks of keys (n, 2) and counters (n, 4), uint64 words
    least significant first: (n, 4) words, the four that
    `np.random.Philox(key=k, counter=c - 1).random_raw(4)` gives, so a
    stream's counter 1 block holds its first four words."""
    c, k = np.asarray(counters, dtype=np.uint64).T, np.asarray(keys, dtype=np.uint64).T
    # rows: x the multiplied words (0, 2), y the others (1, 3), k the key
    # words (1, 0), each meeting the high word it is xored with
    x, y, k = c[0::2].copy(), c[1::2].copy(), k[::-1].copy()
    xl, hi, t, u = (np.empty_like(x) for _ in range(4))
    for _ in range(10):
        # the high words of the 128-bit products, from 32-bit halves with no
        # partial sum overflowing (Warren's mulhu), in kept buffers
        np.bitwise_and(x, _LO32, out=xl)
        np.right_shift(x, _32, out=hi)
        np.multiply(_M_LO, xl, out=t)
        t >>= _32
        np.multiply(_M_LO, hi, out=u)
        t += u
        np.bitwise_and(t, _LO32, out=u)
        t >>= _32
        np.multiply(_M_HI, xl, out=xl)
        u += xl
        u >>= _32
        hi *= _M_HI
        hi += t
        hi += u
        hi ^= k
        x *= _M                             # the low words
        # words 0, 1, 2, 3 become hi1 ^ y0 ^ k0, lo1, hi0 ^ y1 ^ k1, lo0
        np.bitwise_xor(hi[1], y[0], out=y[0])
        np.bitwise_xor(hi[0], y[1], out=y[1])
        x, y = y, x[::-1]
        k += _W
    return np.stack([x[0], y[0], x[1], y[1]], axis=1)


class Streams:
    """The streams (seed, namespace, purpose, i), i in indices, each from its
    start: what `stream(seed, purpose, i, namespace)` draws, for a block.
    A plain class: building a dataclass would add about 0.6 ms to every
    import of the package."""

    def __init__(self, seed: int, purpose: int, indices: np.ndarray,
                 namespace: int = SIGNAL):
        self.seed, self.purpose, self.indices, self.namespace = seed, purpose, indices, namespace

    def keys(self) -> np.ndarray:
        """(n, 2) uint64 key words, low then high, of the streams."""
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1)
        if idx.size and not (0 <= idx.min() and idx.max() < _MAX_INDEX):
            bad = idx[(idx < 0) | (idx >= _MAX_INDEX)][0]
            raise ValueError(f"stream index out of range: {bad}")
        key = stream_key(self.seed, self.purpose, 0, self.namespace)
        keys = np.empty((idx.size, 2), dtype=np.uint64)
        keys[:, 0] = idx.astype(np.uint64) | np.uint64(key & _MASK64)
        keys[:, 1] = key >> 64
        return keys

    def generators(self, gen: np.random.Generator | None = None):
        """One Philox generator, gen or else a new one, re-keyed to the start
        of each stream in turn: whatever gen drew before, it then draws what
        a fresh `stream` would.  The keys are built once for the block; only
        their low word differs, so the loop holds one Python int per stream."""
        keys = self.keys()
        if gen is None:
            gen = stream(self.seed, self.purpose, 0, self.namespace)
        high = int(self.seed) & _MASK64
        for low in keys[:, 0].tolist():
            _START["state"]["key"] = (low, high)
            gen.bit_generator.state = _START
            yield gen
