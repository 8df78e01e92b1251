import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from levylab import rng as R
from levylab.measures import (AtomicLevyMeasure, InfiniteMassError, JumpEvents,
                              LevyConfigError, TruncationConfig,
                              discarded_second_moment,
                              exponential_tails_1d, measure_from_config,
                              power_law_tails_1d, sample_jump_events,
                              zero_measure)

from oracles import quad_radial


class TestAtomic:
    def test_mass_and_moments_exact(self):
        m = AtomicLevyMeasure([[1.0, 0.0], [0.0, -2.0], [3.0, 4.0]], [0.5, 1.5, 0.25])
        assert m.mass() == 2.25
        assert m.mass(1.5, 4.0) == 1.5  # only |z|=2
        np.testing.assert_allclose(m.first_moment(0, 10),
                                   0.5 * np.array([1, 0]) + 1.5 * np.array([0, -2])
                                   + 0.25 * np.array([3, 4]))
        assert m.second_moment(0, 10) == 0.5 * 1 + 1.5 * 4 + 0.25 * 25

    ANNULI = [(0.0, math.inf), (0.0, 1.0), (0.5, 2.0), (0.95, 4.9), (1.0, 5.0),
              (2.0, 2.2), (5.0, math.inf), (0.0, 0.3)]

    def test_annulus_mass_and_marks_match_formulas(self):
        atoms = np.array([[0.5, 0.0], [0.0, -1.0], [3.0, 4.0], [-1.2, 1.6], [0.6, 0.8]])
        masses = np.array([0.3, 1.1, 0.25, 0.7, 0.45])
        m = AtomicLevyMeasure(atoms, masses)
        radii = np.linalg.norm(atoms, axis=1)
        for i, (lo, hi) in enumerate(self.ANNULI):
            sel = (radii > lo) & (radii <= hi)
            total = masses[sel].sum()
            assert m.mass(lo, hi) == float(total)
            assert m.require_finite(lo, hi) == float(total)
            if total > 0:
                cum = np.cumsum(masses[sel]) / total
                u = R.stream(5, R.PROBE, i).random(40)
                idx = np.minimum(np.searchsorted(cum, u, side="right"), sel.sum() - 1)
                got = m.marks(R.stream(5, R.PROBE, i).random(40), lo, hi)
                assert got.tobytes() == atoms[sel][idx].tobytes()
            else:
                assert m.marks(R.stream(5, R.PROBE, i).random(0), lo, hi).shape == (0, 2)
                with pytest.raises(LevyConfigError, match="zero-mass region"):
                    m.marks(R.stream(5, R.PROBE, i).random(3), lo, hi)
                ev = sample_jump_events(m, (lo, hi), 1.0, R.stream(5, R.DRIVER, i))
                assert len(ev) == 0 and ev.marks.shape == (0, 2)

    def test_first_moment_is_rowwise(self):
        # a row's compensator moment must not depend on the batch it comes in
        m = AtomicLevyMeasure([[0.9], [-0.9], [0.4], [1.7]], [0.6, 0.6, 0.35, 0.2])
        r_hi = np.random.default_rng(8).uniform(0.1, 2.5, 200)
        whole = m.first_moment(0.2, r_hi)
        alone = np.vstack([m.first_moment(0.2, r_hi[i:i + 1]) for i in range(200)])
        assert whole.tobytes() == alone.tobytes()
        radii = np.linalg.norm(m.atoms, axis=1)
        want = []
        for r in r_hi:
            sel = (radii > 0.2) & (radii <= r)
            want.append(m.masses[sel] @ m.atoms[sel])
        np.testing.assert_allclose(whole, np.vstack(want), rtol=0.0, atol=1e-15)

    def test_negative_mass_rejected(self):
        with pytest.raises(LevyConfigError):
            AtomicLevyMeasure([[1.0]], [-0.5])

    def test_zero_mark_rejected(self):
        with pytest.raises(LevyConfigError):
            AtomicLevyMeasure([[0.0]], [1.0])


class TestExponential:
    def test_mass_against_quadrature(self):
        m = exponential_tails_1d(intensity_pos=1.0, rate_pos=1.0)
        want = quad_radial(lambda r: 1.0, lambda r: 2 * math.exp(-r), 1.0, 60.0)
        assert m.mass(1.0, math.inf) == pytest.approx(want, rel=1e-10)
        assert m.mass(1.0, math.inf) == pytest.approx(2 / math.e, rel=1e-12)

    def test_moments_against_quadrature(self):
        m = exponential_tails_1d(1.0, 1.0, 0.0, 1.0)  # one-sided positive
        want1 = quad_radial(lambda r: r, lambda r: math.exp(-r), 0.1, 1.0)
        assert m.first_moment(0.1, 1.0)[0] == pytest.approx(want1, rel=1e-10)
        want2 = quad_radial(lambda r: r * r, lambda r: math.exp(-r), 0.1, 1.0)
        assert m.second_moment(0.1, 1.0) == pytest.approx(want2, rel=1e-10)

    def test_symmetric_first_moment_is_zero(self):
        m = exponential_tails_1d()
        assert m.first_moment(0.0, 5.0)[0] == 0.0

    def test_second_moment_at_a_huge_radius_is_the_whole_line(self):
        # r r overflows above about 1.3e154 where exp(-r) is already 0
        m = exponential_tails_1d()
        assert m.second_moment(0.0, 2e154) == m.second_moment(0.0, math.inf) == 4.0

    def test_radial_integral_matches_quad(self):
        m = exponential_tails_1d()
        got = m.radial_integral(lambda r: np.log1p(r), 0.5, math.inf)
        want = quad_radial(lambda r: math.log1p(r), lambda r: 2 * math.exp(-r),
                          0.5, 80.0)
        assert got == pytest.approx(want, rel=1e-8)


BROADCAST_MEASURES = {
    "atomic-1d": AtomicLevyMeasure([[0.5], [-1.0], [2.0], [0.75]], [1.0, 2.0, 3.0, 0.3]),
    "atomic-2d-9": AtomicLevyMeasure(
        [[0.5, 0.0], [0.0, -1.0], [3.0, 4.0], [-1.2, 1.6], [0.6, 0.8], [0.1, 0.2],
         [-0.3, -0.3], [1.5, -0.5], [0.0, 2.5]],
        [0.3, 1.1, 0.25, 0.7, 0.45, 0.9, 1.3, 0.15, 0.55]),
    "zero": zero_measure(2),
    "exponential": exponential_tails_1d(1.0, 1.0, 0.5, 2.0),
    "power-law": power_law_tails_1d(exponent=1.5, r_max=2.0),
}


@pytest.mark.parametrize("query", ["mass", "first_moment", "second_moment"])
@pytest.mark.parametrize("name", BROADCAST_MEASURES)
def test_queries_broadcast_over_radii(name, query):
    """A query on arrays of radii, for either bound or both, is the query at
    each pair of scalar radii, bit for bit.  The one exception: the atomic
    mass of two scalar radii sums the annulus's masses pairwise, like
    np.sum, and an array's mass adds them one by one; the two round alike
    up to 7 atoms in the annulus."""
    m = BROADCAST_MEASURES[name]
    fn = getattr(m, query)
    radii = [0.0, 1e-3, 0.3, 0.75, 1.0, 2.0, 2.5, 40.0, 2e154, math.inf]
    exact = np.ones((len(radii), len(radii)), dtype=bool)
    if isinstance(m, AtomicLevyMeasure):
        own = np.linalg.norm(m.atoms, axis=1)
        radii += own.tolist() + np.nextafter(own, 0.0).tolist()
        inside = (own > np.array(radii)[:, None, None]) & (own <= np.array(radii)[:, None])
        exact = (query != "mass") | (inside.sum(axis=2) < 8)
        assert exact.all() == (name != "atomic-2d-9" or query != "mass")
    radii = np.array(radii)
    want = np.array([[fn(float(a), float(b)) for b in radii] for a in radii])
    one = fn(0.3, 2.0)
    if query == "first_moment":
        assert want.shape == radii.shape * 2 + (m.dim,) and one.shape == (m.dim,)
    else:
        assert want.shape == radii.shape * 2 and type(one) is float
    cases = [(fn(radii[:, None], radii), want, exact)]
    cases += [(fn(radii, float(b)), want[:, j], exact[:, j]) for j, b in enumerate(radii)]
    cases += [(fn(float(a), radii), want[i], exact[i]) for i, a in enumerate(radii)]
    for got, ref, bitwise in cases:
        assert got.shape == ref.shape
        assert got[bitwise].tobytes() == ref[bitwise].tobytes()
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)


EMPTY_BAND_MEASURES = {**BROADCAST_MEASURES,
                       "exponential-2-3": exponential_tails_1d(1.0, 1.0, 2.0, 3.0)}


@pytest.mark.parametrize("query", ["mass", "first_moment", "second_moment"])
@pytest.mark.parametrize("name", EMPTY_BAND_MEASURES)
def test_empty_annulus_is_positive_zero(name, query):
    """r_lo >= r_hi is the empty set: every query gives +0.0 there, on
    scalar and on broadcast radii, and the query of a nonempty annulus
    keeps its value."""
    m = EMPTY_BAND_MEASURES[name]
    fn = getattr(m, query)
    radii = np.array([0.0, 1e-3, 0.15, 0.3, 0.75, 1.0, 2.0, 40.0, math.inf])
    lo, hi = np.meshgrid(radii, radii, indexing="ij")
    empty = lo >= hi
    zero = np.zeros(m.dim if query == "first_moment" else ())
    for a, b in zip(lo[empty], hi[empty]):
        assert np.asarray(fn(float(a), float(b))).tobytes() == zero.tobytes(), (a, b)
    for got in (fn(radii[:, None], radii), fn(lo, hi)):
        assert got[empty].tobytes() == np.zeros(got[empty].shape).tobytes()
        assert got[~empty].tobytes() == np.array(
            [fn(float(a), float(b)) for a, b in zip(lo[~empty], hi[~empty])]).tobytes()
    if name == "exponential-2-3":
        # nonzero before the fix: mass -0.274, first 0.00704, second -0.0139
        assert fn(0.15, 0.3) != 0.0 and np.asarray(fn(0.3, 0.15)).tobytes() == zero.tobytes()


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("r_lo", [0.01, 0.3, 2.0, 10.0])
@pytest.mark.parametrize("s", [0.05, 1.0, 20.0])
def test_exponential_radial_integral_against_quad(rate, r_lo, s):
    m = exponential_tails_1d(1.0, rate, 0.0, 1.0)
    got = m.radial_integral(lambda r: np.log1p(s * r), r_lo, math.inf)
    want, _ = integrate.quad(lambda r: math.log1p(s * r) * math.exp(-rate * r),
                             r_lo, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("beta", [0.5, 1.5, 2.5, 3.5])
@pytest.mark.parametrize("r_max", [1.0, 10.0])
@pytest.mark.parametrize("r_lo", [1e-3, 0.1, 0.9])
@pytest.mark.parametrize("s", [0.05, 1.0, 20.0])
def test_power_radial_integral_against_quad(beta, r_max, r_lo, s):
    m = power_law_tails_1d(coef=1.0, exponent=beta, r_max=r_max, two_sided=False)
    got = m.radial_integral(lambda r: np.log1p(s * r), r_lo, math.inf)
    want, _ = integrate.quad(lambda r: math.log1p(s * r) * r ** -beta,
                             r_lo, r_max, epsabs=0.0, epsrel=1e-12, limit=200)
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("beta", [0.3, 0.9])
@pytest.mark.parametrize("rate", [0.5, 5.0])
def test_radial_integral_from_zero_against_quad(rate, beta):
    # r_lo = 0 on sides with finite mass there: exponential, and power with beta < 1
    exp = exponential_tails_1d(1.0, rate, 0.0, 1.0)
    power = power_law_tails_1d(coef=1.0, exponent=beta, r_max=2.0, two_sided=False)
    for m, density, hi in ((exp, lambda r: math.exp(-rate * r), math.inf),
                           (power, lambda r: r ** -beta, 2.0)):
        want, _ = integrate.quad(lambda r: math.log1p(3.0 * r) * density(r), 0.0, hi,
                                 epsabs=0.0, epsrel=1e-12, limit=200)
        got = m.radial_integral(lambda r: np.log1p(3.0 * r), 0.0, math.inf)
        assert got == pytest.approx(want, rel=1e-12)


def test_radial_integral_rule_is_numpys_gauss_legendre():
    # the rule is written out so that no run imports numpy.polynomial; its
    # bits must stay leggauss(16)'s
    from levylab import measures
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert measures._GL_NODES.tobytes() == nodes.tobytes()
    assert measures._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_radial_integral_needs_finite_mass_at_zero():
    message = "needs r_lo > 0, or r_lo = 0 with finite mass near 0; got "
    with pytest.raises(LevyConfigError, match=message + "-0.1"):
        exponential_tails_1d().radial_integral(np.log1p, -0.1, math.inf)
    with pytest.raises(LevyConfigError, match=message + "0.0"):
        power_law_tails_1d(exponent=1.5).radial_integral(np.log1p, 0.0, math.inf)


def test_power_side_needs_finite_support():
    with pytest.raises(LevyConfigError, match="finite r_max"):
        power_law_tails_1d(r_max=math.inf)


class TestPowerLaw:
    def test_infinite_activity_finite_variance(self):
        m = power_law_tails_1d(coef=1.0, exponent=1.5, r_max=1.0)
        assert math.isinf(m.mass(0.0, 1.0))
        assert m.mass(0.25, 1.0) == pytest.approx(
            quad_radial(lambda r: 1.0, lambda r: 2 * r ** -1.5, 0.25, 1.0), rel=1e-10)
        assert m.second_moment(0.0, 1.0) == pytest.approx(2 * (1 / 1.5), rel=1e-12)

    def test_divergent_second_moment_detected(self):
        m = power_law_tails_1d(coef=1.0, exponent=3.5, r_max=1.0)
        assert math.isinf(m.second_moment(0.0, 1.0))

    def test_sampling_law(self):
        m = power_law_tails_1d(coef=1.0, exponent=1.5, r_max=1.0, two_sided=False)
        rng = R.stream(5, R.PROBE)
        draws = m.marks(rng.random(40_000), 0.1, 1.0)[:, 0]
        # inverse-CDF check via Kolmogorov-Smirnov against the analytic CDF
        a, b = 0.1 ** -0.5, 1.0 ** -0.5

        def cdf(r):
            return (a - r ** -0.5) / (a - b)

        ks = stats.kstest(draws, cdf)
        assert ks.pvalue > 0.01


class TestSampling:
    def test_zero_mass_empty(self):
        ev = sample_jump_events(zero_measure(1), (0.0, math.inf), 1.0,
                                R.stream(1, R.DRIVER))
        assert len(ev) == 0
        # no events is one shared instance per dimension, with read-only arrays
        assert ev is JumpEvents.empty(1) and JumpEvents.empty(2).marks.shape == (0, 2)
        with pytest.raises(ValueError):
            ev.times[...] = 1.0

    @pytest.mark.parametrize("spec", [AtomicLevyMeasure([[0.7, 0.1], [-0.4, 0.3]], [0.2, 0.3]),
                                      exponential_tails_1d(rate_pos=2.0)],
                             ids=["atomic-2d", "exponential"])
    def test_zero_count_draws_nothing_more(self, spec):
        # a particle with no events draws its Poisson count and nothing else,
        # so the stream continues exactly where the count left it
        seen = 0
        for i in range(40):
            rng = R.stream(19, R.DRIVER, i)
            ev = sample_jump_events(spec, (0.0, math.inf), 1.0, rng)
            alone = R.stream(19, R.DRIVER, i)
            if alone.poisson(spec.mass(0.0, math.inf)) == 0:
                seen += 1
                assert len(ev) == 0 and ev.marks.shape == (0, spec.dim)
                assert repr(rng.bit_generator.state) == repr(alone.bit_generator.state)
                assert rng.random() == alone.random()
        assert seen >= 5

    def test_atomic_poisson_mean(self):
        spec = AtomicLevyMeasure([[1.0]], [3.0])
        counts = [len(sample_jump_events(spec, (0.0, math.inf), 2.0,
                                         R.stream(7, R.DRIVER, i)))
                  for i in range(4000)]
        mean = np.mean(counts)
        se = math.sqrt(6.0 / 4000)
        assert abs(mean - 6.0) <= 3 * se

    def test_parametric_tail_mean_count(self):
        # mean count over (|z| > 1) for unit exponential tails is 2/e per unit time
        spec = exponential_tails_1d()
        lam = 2 / math.e
        counts = [len(sample_jump_events(spec, (1.0, math.inf), 1.0,
                                         R.stream(11, R.DRIVER, i)))
                  for i in range(4000)]
        assert abs(np.mean(counts) - lam) <= 3 * math.sqrt(lam / 4000)

    def test_poisson_gof_chisquare(self):
        spec = AtomicLevyMeasure([[0.7], [-0.4]], [1.1, 0.9])
        lam = 2.0 * 1.5
        counts = np.array([len(sample_jump_events(spec, (0.0, math.inf), 1.5,
                                                  R.stream(13, R.DRIVER, i)))
                           for i in range(10_000)])
        kmax = int(lam + 5 * math.sqrt(lam))
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        expected = stats.poisson.pmf(np.arange(kmax + 1), lam) * counts.size
        expected[-1] = counts.size - expected[:-1].sum()
        # pool cells with small expectation into the tail
        keep = expected >= 5
        obs = np.concatenate([observed[keep], [observed[~keep].sum()]])
        exp = np.concatenate([expected[keep], [expected[~keep].sum()]])
        res = stats.chisquare(obs, exp)
        assert res.pvalue >= 0.01

    def test_disjoint_regions_independent_counts(self):
        spec = exponential_tails_1d()
        n = 4000
        c1 = np.empty(n)
        c2 = np.empty(n)
        for i in range(n):
            rng = R.stream(17, R.DRIVER, i)
            c1[i] = len(sample_jump_events(spec, (0.5, 1.0), 1.0, rng))
            c2[i] = len(sample_jump_events(spec, (1.0, 3.0), 1.0, rng))
        rho = np.corrcoef(c1, c2)[0, 1]
        assert abs(rho) <= 3.0 / math.sqrt(n)

    def test_reproducible_bitwise(self):
        spec = exponential_tails_1d()
        ev1 = sample_jump_events(spec, (0.2, math.inf), 2.0, R.stream(3, R.DRIVER, 9))
        ev2 = sample_jump_events(spec, (0.2, math.inf), 2.0, R.stream(3, R.DRIVER, 9))
        assert np.array_equal(ev1.times, ev2.times)
        assert np.array_equal(ev1.marks, ev2.marks)

    def test_infinite_mass_region_rejected(self):
        spec = power_law_tails_1d(exponent=1.5)
        with pytest.raises(InfiniteMassError) as exc:
            sample_jump_events(spec, (0.0, 1.0), 1.0, R.stream(1, R.DRIVER))
        assert "0.0 < |z| <= 1" in str(exc.value)


def _block_drivers(lam):
    """Drivers whose mass above their floor is exactly lam: (measure, floor)."""
    return {
        "atomic-1d": (AtomicLevyMeasure([[0.9], [-0.4]], [lam / 2, lam / 2]), 0.0),
        "atomic-2d": (AtomicLevyMeasure([[0.7, 0.1], [-0.4, 0.3], [0.2, -1.1]],
                                        [lam / 4, lam / 4, lam / 2]), 0.0),
        # each side has mass intensity / rate
        "radial-exponential": (exponential_tails_1d(lam, 2.0), 0.0),
        # each side has mass coef * (1 / floor - 1 / r_max) = coef above 0.5
        "power-law-above-floor": (power_law_tails_1d(lam / 2, 2.0, r_max=1.0), 0.5),
        "zero": (zero_measure(2), 0.0),
    }


class TestBlockDraw:
    """One draw over a block of fresh streams (rng.Streams) gives every
    stream's events bit for bit as a fresh generator of that stream does,
    for any cut of the particles into blocks, on both sides of numpy's
    switch from the multiplication method to PTRS at a mean of 10."""

    N = 40

    @pytest.mark.parametrize("lam", [0.0, 0.6, 9.99, 10.0, 40.0])
    @pytest.mark.parametrize("name", list(_block_drivers(1.0)))
    @given(seed=st.integers(0, 2 ** 64 - 1), first=st.integers(0, (1 << 48) - 41),
           namespace=st.sampled_from([R.SIGNAL, R.FILTER]))
    @settings(max_examples=3)
    def test_block_equals_per_stream_draws(self, name, lam, seed, first, namespace):
        spec, floor = _block_drivers(lam)[name]
        assert spec.mass(floor, math.inf) == (lam if name != "zero" else 0.0)
        particles = np.arange(first, first + self.N)
        for T in (0.0, 1.0):
            want = [sample_jump_events(spec, (floor, math.inf), T,
                                       R.stream(seed, R.DRIVER, int(p), namespace))
                    for p in particles]
            for block in (1, 3, 64, self.N):
                got = [sample_jump_events(spec, (floor, math.inf), T,
                                          R.Streams(seed, R.DRIVER, particles[lo:lo + block],
                                                    namespace))
                       for lo in range(0, self.N, block)]
                counts = np.concatenate([c for c, _, _ in got])
                times = np.concatenate([t for _, t, _ in got])
                marks = np.concatenate([z for _, _, z in got])
                assert counts.tolist() == [len(ev) for ev in want]
                assert times.tobytes() == np.concatenate(
                    [np.empty(0)] + [ev.times for ev in want]).tobytes()
                assert marks.shape == (times.size, spec.dim)
                assert marks.tobytes() == np.concatenate(
                    [np.empty((0, spec.dim))] + [ev.marks for ev in want]).tobytes()
            if T and lam and name != "zero":
                assert counts.sum() > 0

    def test_tied_times_are_nudged_apart(self, monkeypatch):
        # three jumps of one stream whose time uniforms are forced equal: the
        # sorted times become t, t+ and t++ (the next floats up), as the
        # per-path draw nudges them; every other event is unchanged
        spec = AtomicLevyMeasure([[0.9], [-0.4]], [1.5, 1.5])
        streams = R.Streams(5, R.DRIVER, np.arange(20))
        counts, times, marks = sample_jump_events(spec, (0.0, math.inf), 1.0, streams)
        j = int(np.flatnonzero(counts == 3)[0])
        n, key = 3, streams.keys()[j]
        # the stream's words n + 1 .. 2n are its time uniforms
        kernel = R.philox4x64
        words = kernel(np.repeat(key[None], 3, axis=0),
                       np.array([[b, 0, 0, 0] for b in (1, 2, 3)], dtype=np.uint64)).ravel()

        def tied(keys, counters):
            out = kernel(keys, counters)
            for r in np.flatnonzero((keys == key).all(axis=1)):
                block = int(counters[r, 0]) - 1
                for w in range(n + 2, 2 * n + 1):
                    if w // 4 == block:
                        out[r, w % 4] = words[n + 1]
            return out

        monkeypatch.setattr(R, "philox4x64", tied)
        c2, t2, z2 = sample_jump_events(spec, (0.0, math.inf), 1.0, streams)
        t = 1.0 * (1.0 - (int(words[n + 1]) >> 11) * 2.0 ** -53)
        at = int(counts[:j].sum())
        assert c2.tolist() == counts.tolist() and z2.tobytes() == marks.tobytes()
        assert t2[at:at + 3].tolist() == [t, np.nextafter(t, 2.0),
                                          np.nextafter(np.nextafter(t, 2.0), 2.0)]
        rest = np.r_[0:at, at + 3:times.size]
        assert t2[rest].tobytes() == times[rest].tobytes()


class TestTruncation:
    def test_level_must_be_positive(self):
        with pytest.raises(LevyConfigError):
            TruncationConfig(level=0.0)
        with pytest.raises(LevyConfigError):
            TruncationConfig(level=-1.0)

    def test_eps_range(self):
        with pytest.raises(LevyConfigError):
            TruncationConfig(level=1.0, small_jump_mode="discard_below_eps", eps=2.0)
        cfg = TruncationConfig(level=1.0, small_jump_mode="discard_below_eps", eps=0.1)
        assert cfg.sampling_floor == 0.1

    def test_discarded_variance_report(self):
        spec = power_law_tails_1d(coef=1.0, exponent=1.5, r_max=1.0)
        cfg = TruncationConfig(level=0.5, small_jump_mode="discard_below_eps", eps=0.05)
        want = quad_radial(lambda r: r * r, lambda r: 2 * r ** -1.5, 0.0, 0.05)
        assert discarded_second_moment(spec, cfg) == pytest.approx(want, rel=1e-10)


def test_registry_roundtrip():
    m = measure_from_config({"name": "atomic",
                             "params": {"atoms": [[1.0], [-1.0]], "masses": [1, 2]}})
    assert m.mass() == 3.0
    with pytest.raises(LevyConfigError):
        measure_from_config({"name": "nope"})


def test_jump_events_invariants():
    with pytest.raises(LevyConfigError):
        JumpEvents(np.array([0.2, 0.1]), np.array([[1.0], [1.0]]))
