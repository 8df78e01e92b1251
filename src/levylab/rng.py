"""Counter-based random streams.

Every random draw in the package comes from a Philox generator whose 128-bit
key encodes (master seed, namespace, purpose, stream index).  A stream is a
pure function of those four labels, so ensembles partitioned across workers
produce bit-identical results regardless of scheduling: particle p always
draws the same numbers no matter which worker simulates it, or in what order.

Philox is counter-based, so the key is the whole stream: `rekey` resets a
generator to the start of another stream, and it then draws exactly what a
fresh `stream` would.  The engine re-keys one generator per particle block
instead of constructing three per particle.

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
QUADRATURE = 8  # fixed Monte Carlo quadrature nodes
PROBE = 9       # probe points for validators / randomized tests

# Namespaces: which subsystem owns the stream, so e.g. the signal ensemble
# and the filter's particle ensemble never collide even with equal indices.
SIGNAL = 0
OBSERVATION = 1
FILTER = 2
EXPERIMENT = 3

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


def rekey(gen: np.random.Generator, seed: int, purpose: int, index: int = 0,
          namespace: int = SIGNAL) -> np.random.Generator:
    """Reset a Philox generator to the state `stream(...)` starts in (zero
    counter and buffer, no half-used 32-bit word) and return it."""
    key = stream_key(seed, purpose, index, namespace)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key & _MASK64, key >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen
