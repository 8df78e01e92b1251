import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levylab import rng as R


def test_same_labels_same_stream():
    a = R.stream(123, R.BROWNIAN, 7).standard_normal(32)
    b = R.stream(123, R.BROWNIAN, 7).standard_normal(32)
    assert np.array_equal(a, b)


def test_distinct_labels_distinct_streams():
    base = R.stream(123, R.BROWNIAN, 7).standard_normal(8)
    for seed, purpose, idx, ns in [(124, R.BROWNIAN, 7, R.SIGNAL),
                                   (123, R.DRIVER, 7, R.SIGNAL),
                                   (123, R.BROWNIAN, 8, R.SIGNAL),
                                   (123, R.BROWNIAN, 7, R.FILTER)]:
        other = R.stream(seed, purpose, idx, ns).standard_normal(8)
        assert not np.array_equal(base, other)


def test_key_layout_injective():
    keys = set()
    for seed in (0, 1, 2 ** 63):
        for purpose in (R.INIT, R.DRIVER, R.OBS_THIN):
            for idx in (0, 1, 2 ** 40):
                for ns in (R.SIGNAL, R.FILTER):
                    keys.add(R.stream_key(seed, purpose, idx, ns))
    assert len(keys) == 3 * 3 * 3 * 2


def test_index_range_checked():
    with pytest.raises(ValueError):
        R.stream_key(1, R.INIT, 1 << 48)
    with pytest.raises(ValueError):
        R.stream_key(1, 300, 0)


# -- re-keying one generator gives the fresh streams, bit for bit -----------

_NAMESPACES = [R.SIGNAL, R.OBSERVATION, R.FILTER, 3, 255]
_PURPOSES = [R.INIT, R.DRIVER, R.BROWNIAN, R.OBS_W, R.OBS_PROPOSAL, R.OBS_THIN,
             R.RESAMPLE, R.PROBE]
_SEEDS = st.one_of(st.sampled_from([0, 2 ** 63, 2 ** 64 - 1]),
                   st.integers(0, 2 ** 64 - 1))
_INDICES = st.one_of(st.sampled_from([0, (1 << 48) - 1]), st.integers(0, (1 << 48) - 1))


def _draws(g):
    """A mix of every draw kind the package makes, as raw bits."""
    return [g.integers(0, 2 ** 32 - 1, 3, dtype=np.uint32, endpoint=True),
            g.poisson(2.5, 3), g.standard_normal((4, 2)), g.random(3),
            g.integers(0, 2 ** 63, 2), g.standard_normal(1)]


@pytest.mark.parametrize("namespace", _NAMESPACES)
@given(seed=_SEEDS, purpose=st.sampled_from(_PURPOSES), index=_INDICES,
       prev=st.tuples(_SEEDS, st.sampled_from(_PURPOSES), _INDICES,
                      st.sampled_from(_NAMESPACES)),
       odd=st.integers(0, 4), normals=st.integers(0, 9))
@example(seed=2 ** 64 - 1, purpose=R.BROWNIAN, index=(1 << 48) - 1,
         prev=(2 ** 63, R.DRIVER, (1 << 48) - 1, R.FILTER), odd=2, normals=3)
@settings(max_examples=25)
def test_rekey_equals_fresh_stream(namespace, seed, purpose, index, prev, odd, normals):
    gen = R.stream(*prev)
    # leave the previous stream partly consumed: a half-used 32-bit word,
    # a Poisson draw and a partly read Philox buffer
    gen.integers(0, 2 ** 32 - 1, 2 * odd + 1, dtype=np.uint32, endpoint=True)
    gen.poisson(3.0)
    gen.standard_normal(normals)
    assert gen.bit_generator.state["has_uint32"] == 1
    rekeyed = R.Streams(seed, purpose, np.array([index]), namespace).generators(gen)
    assert next(rekeyed) is gen
    fresh = R.stream(seed, purpose, index, namespace)
    got, want = gen.bit_generator.state, fresh.bit_generator.state
    assert got["state"]["key"].tolist() == want["state"]["key"].tolist()
    assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
    assert got["buffer"].tolist() == want["buffer"].tolist()
    assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == \
        [want[k] for k in ("buffer_pos", "has_uint32", "uinteger")]
    for a, b in zip(_draws(gen), _draws(fresh)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_rekey_checks_the_key_range():
    gen = R.stream(1, R.INIT)
    with pytest.raises(ValueError):
        next(R.Streams(1, R.INIT, np.array([1 << 48])).generators(gen))
    with pytest.raises(ValueError):
        next(R.Streams(1, R.INIT, np.array([0]), 256).generators(gen))


# -- the numpy Philox kernel gives numpy's words ----------------------------

_KEYS = st.one_of(st.sampled_from([0, 2 ** 64 - 1, 2 ** 128 - 1]), st.integers(0, 2 ** 128 - 1))
# a counter whose next blocks carry into every higher word, and random ones
_COUNTERS = st.one_of(st.sampled_from([0, 2 ** 64 - 2, 2 ** 128 - 1, 2 ** 192 - 3,
                                       2 ** 256 - 4]),
                      st.integers(0, 2 ** 256 - 4))


def _words(value: int, n: int) -> list:
    return [(value >> (64 * i)) & (2 ** 64 - 1) for i in range(n)]


@given(pairs=st.lists(st.tuples(_KEYS, _COUNTERS), min_size=1, max_size=6))
@settings(max_examples=40)
def test_philox_kernel_gives_numpys_words(pairs):
    # counter c + b is the b-th block numpy draws after starting at counter c
    keys = np.array([_words(k, 2) for k, _ in pairs for b in (1, 2, 3)], dtype=np.uint64)
    counters = np.array([_words(c + b, 4) for _, c in pairs for b in (1, 2, 3)],
                        dtype=np.uint64)
    got = R.philox4x64(keys, counters).reshape(len(pairs), 12)
    for (k, c), row in zip(pairs, got):
        want = np.random.Philox(key=k, counter=c).random_raw(12)
        assert row.tolist() == want.tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 200, 4097])
def test_philox_kernel_gives_numpys_words_at_any_key_count(n):
    # the rounds work on (2, n) rows in kept buffers: every count, from none
    # to more than a block, with the all-ones and zero words among them
    draw = np.random.default_rng(n)
    keys = draw.integers(0, 2 ** 64, (n, 2), dtype=np.uint64)
    counters = draw.integers(0, 2 ** 64, (n, 4), dtype=np.uint64)
    keys[:2], counters[:2] = 2 ** 64 - 1, 0
    got = R.philox4x64(keys, counters)
    assert got.shape == (n, 4) and got.dtype == np.uint64
    for k, c, row in zip(keys.tolist(), counters.tolist(), got.tolist()):
        key = k[0] | k[1] << 64
        counter = sum(w << (64 * i) for i, w in enumerate(c))
        want = np.random.Philox(key=key, counter=(counter - 1) % 2 ** 256).random_raw(4)
        assert row == want.tolist()


@given(seed=_SEEDS, purpose=st.sampled_from(_PURPOSES), namespace=st.sampled_from(_NAMESPACES),
       indices=st.lists(_INDICES, min_size=1, max_size=5))
@settings(max_examples=25)
def test_block_streams_are_the_fresh_streams(seed, purpose, namespace, indices):
    streams = R.Streams(seed, purpose, np.array(indices), namespace)
    keys = streams.keys()
    assert [lo | hi << 64 for lo, hi in keys.tolist()] == \
        [R.stream_key(seed, purpose, i, namespace) for i in indices]
    counters = np.zeros((len(indices), 4), dtype=np.uint64)
    counters[:, 0] = 1
    first = R.philox4x64(keys, counters)
    for i, gen, words in zip(indices, streams.generators(), first):
        fresh = R.stream(seed, purpose, i, namespace)
        assert words.tolist() == fresh.bit_generator.random_raw(4).tolist()
        assert gen.random(5).tobytes() == R.stream(seed, purpose, i, namespace).random(5).tobytes()


def test_block_stream_keys_check_the_index_range():
    with pytest.raises(ValueError, match="out of range: 281474976710656"):
        R.Streams(1, R.DRIVER, np.array([0, 1 << 48])).keys()
    with pytest.raises(ValueError, match="out of range: -1"):
        R.Streams(1, R.DRIVER, np.array([-1])).keys()
    assert R.Streams(1, R.DRIVER, np.array([], dtype=np.int64)).keys().shape == (0, 2)
