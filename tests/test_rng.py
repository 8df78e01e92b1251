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

_NAMESPACES = [R.SIGNAL, R.OBSERVATION, R.FILTER, R.EXPERIMENT, 255]
_PURPOSES = [R.INIT, R.DRIVER, R.BROWNIAN, R.OBS_W, R.OBS_PROPOSAL, R.OBS_THIN,
             R.RESAMPLE, R.QUADRATURE, R.PROBE]
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
    assert R.rekey(gen, seed, purpose, index, namespace) is gen
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
        R.rekey(gen, 1, R.INIT, 1 << 48)
    with pytest.raises(ValueError):
        R.rekey(gen, 1, R.INIT, 0, 256)
