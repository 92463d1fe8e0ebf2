import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from besov_empirica import sampling
from besov_empirica.errors import ParameterError, TiesError
from besov_empirica.sampling import (
    SHORT_STREAM_WORDS,
    UNIFORM_STREAM,
    EmpiricalSample,
    SeedSpec,
    lemire_lattice,
    make_generator,
    order_statistics,
    philox_words,
    sample_gaussian,
    sample_uniform,
    stream_keys,
    uniform_samples,
)

SEED = 42


def ks_two_sample_critical(n1, n2, alpha=0.01):
    # Large-sample two-sided critical value c(alpha) * sqrt((n1+n2)/(n1*n2)).
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n1 + n2) / (n1 * n2))


class TestSeedSpec:
    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            SeedSpec(-1)

    def test_rejects_oversized(self):
        with pytest.raises(ParameterError):
            SeedSpec(1 << 64)

    def test_generator_creation_is_pure(self):
        spec = SeedSpec(SEED, 3, 1)
        a = make_generator(spec).standard_normal(8)
        b = make_generator(spec).standard_normal(8)
        np.testing.assert_array_equal(a, b)


class TestUniform:
    def test_deterministic(self):
        spec = SeedSpec(SEED, 5, 0)
        a = sample_uniform(1000, spec)
        b = sample_uniform(1000, spec)
        np.testing.assert_array_equal(a.sorted_values, b.sorted_values)

    def test_sorted_open_interval(self):
        smp = sample_uniform(10_000, SeedSpec(SEED, 0, 0))
        v = smp.sorted_values
        assert np.all(np.diff(v) > 0)
        assert v[0] > 0.0 and v[-1] < 1.0

    def test_mean_near_half(self):
        smp = sample_uniform(100_000, SeedSpec(SEED, 0, 0))
        assert abs(smp.sorted_values.mean() - 0.5) < 0.01

    def test_distinct_streams_pass_ks(self):
        n = 10_000
        a = sample_uniform(n, SeedSpec(SEED, 0, 0)).sorted_values
        b = sample_uniform(n, SeedSpec(SEED, 1, 0)).sorted_values
        stat = stats.ks_2samp(a, b).statistic
        assert stat < ks_two_sample_critical(n, n)

    def test_adjacent_replicate_streams_independent(self):
        n = 10_000
        for i in (3, 17):
            a = sample_uniform(n, SeedSpec(SEED, i, 0)).sorted_values
            b = sample_uniform(n, SeedSpec(SEED, i + 1, 0)).sorted_values
            assert stats.ks_2samp(a, b).statistic < ks_two_sample_critical(n, n)

    def test_substreams_differ(self):
        a = sample_uniform(100, SeedSpec(SEED, 0, 0)).sorted_values
        g = sample_gaussian(100, SeedSpec(SEED, 0, 1))
        assert not np.array_equal(a, np.sort(g))

    def test_too_small(self):
        with pytest.raises(ParameterError):
            sample_uniform(1, SeedSpec(SEED))


@st.composite
def _chunks(draw, max_count):
    """``(start, count)`` of consecutive streams, often next to ``2**32`` or
    at the top of the index range."""
    start = draw(
        st.integers(0, 2**64 - 1)
        | st.integers(2**32 - max_count, 2**32 + max_count)
        | st.integers(2**64 - max_count, 2**64 - 1)
        | st.integers(0, 10**6)
    )
    return start, draw(st.integers(1, min(max_count, 2**64 - start)))


# The batched path re-implements numpy's SeedSequence hash and Philox rounds,
# and re-keys one Philox per long stream; these tests fail when numpy moves
# any of them.
class TestBatchedStreams:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**64 - 1), chunk=_chunks(40), label=st.sampled_from([0, 1]))
    @example(seed=42, chunk=(2**32 - 5, 10), label=0)
    @example(seed=2**64 - 1, chunk=(2**64 - 10, 10), label=1)
    def test_keys_match_seed_sequence(self, seed, chunk, label):
        start, count = chunk
        want = [
            np.random.SeedSequence(seed, spawn_key=(start + i, label)).generate_state(2, np.uint64)
            for i in range(count)
        ]
        got = stream_keys(seed, start, count, label)
        assert got.dtype == np.uint64 and got.shape == (count, 2)
        np.testing.assert_array_equal(got, np.array(want))

    @settings(max_examples=60)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**64 - 1), chunk=_chunks(6))
    @example(n=100, seed=42, chunk=(2**32 - 3, 6))
    @example(n=SHORT_STREAM_WORDS, seed=7, chunk=(2**32 - 2, 5))
    @example(n=SHORT_STREAM_WORDS - 1, seed=7, chunk=(2**32 - 2, 5))
    def test_samples_match_sample_uniform(self, n, seed, chunk):
        start, count = chunk
        want = [
            sample_uniform(n, SeedSpec(seed, start + i, UNIFORM_STREAM)).sorted_values
            for i in range(count)
        ]
        got = uniform_samples(n, seed, start, count)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got / 2**53, np.stack(want))

    @pytest.mark.parametrize("n", [2, 3, SHORT_STREAM_WORDS - 1])
    def test_short_streams_skip_stream_generators(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("a short stream must not re-key a generator")

        monkeypatch.setattr(sampling, "stream_generators", refuse)
        want = [sample_uniform(n, SeedSpec(SEED, 9 + i, UNIFORM_STREAM)).sorted_values
                for i in range(4)]
        np.testing.assert_array_equal(uniform_samples(n, SEED, 9, 4) / 2**53, np.stack(want))

    @pytest.mark.parametrize("n", [SHORT_STREAM_WORDS, 100])
    def test_long_streams_use_stream_generators(self, monkeypatch, n):
        def refuse(*args):
            raise LookupError("stream_generators")

        monkeypatch.setattr(sampling, "stream_generators", refuse)
        with pytest.raises(LookupError):
            uniform_samples(n, SEED, 9, 4)

    def test_stream_index_range(self):
        with pytest.raises(ParameterError):
            stream_keys(SEED, 2**64 - 2, 3, 0)
        with pytest.raises(ParameterError):
            uniform_samples(3, SEED, -1, 2)
        with pytest.raises(ParameterError):
            uniform_samples(1, SEED, 0, 2)

    @staticmethod
    def _plant(monkeypatch, lattice):
        """Make ``uniform_samples(3, SEED, 0, 2)`` draw ``lattice``."""
        monkeypatch.setattr(
            sampling, "lemire_lattice", lambda words: (lattice, np.zeros(lattice.shape, bool))
        )

    def test_planted_tie_raises_as_sample_uniform(self, monkeypatch):
        lattice = np.array([[5, 9, 1], [2**52, 7, 2**52]], dtype=np.int64)
        with pytest.raises(TiesError) as want:
            order_statistics(lattice[1] / 2**53)
        self._plant(monkeypatch, lattice)
        with pytest.raises(TiesError) as got:
            uniform_samples(3, SEED, 0, 2)
        assert str(got.value) == str(want.value) == "tied observations in a sample of size 3"

    @pytest.mark.parametrize("planted", [0, 2**53])
    def test_planted_endpoint_raises_as_sample_uniform(self, monkeypatch, planted):
        lattice = np.array([[5, 9, 1], [3, planted, 4]], dtype=np.int64)
        with pytest.raises(ParameterError) as want:
            order_statistics(lattice[1] / 2**53)
        self._plant(monkeypatch, lattice)
        with pytest.raises(ParameterError) as got:
            uniform_samples(3, SEED, 0, 2)
        assert str(got.value) == str(want.value)


def _lemire_reference(word):
    """``Generator.integers(1, 2**53)``'s Lemire step in Python integers:
    the drawn value and whether numpy rejects the word."""
    product = word * (2**53 - 1)
    return (product >> 64) + 1, product % 2**64 < 2048


# ``lemire_lattice`` rebuilds numpy's bounded-integer algorithm; these tests
# pin it to big-integer arithmetic, and the batched tests above pin the
# whole draw to ``sample_uniform``.
class TestLemireLattice:
    # 0 is rejected; 2**11 - 1 is the last word without a borrow (hi < w)
    # and 2**11 the first with one; 2**64 - 1 is the largest word.
    CHOSEN = [0, 1, 2, 2**11 - 1, 2**11, 2**11 + 1, 2**52, 2**53 - 1, 2**53,
              2**53 + 1, 2**53 + 2**11 - 1, 2**63 - 1, 2**63, 2**64 - 2**11, 2**64 - 1]

    def _check(self, words):
        lattice, rejected = lemire_lattice(np.array(words, dtype=np.uint64))
        assert lattice.dtype == np.int64 and rejected.dtype == bool
        want = [_lemire_reference(w) for w in words]
        assert lattice.tolist() == [k for k, _ in want]
        assert rejected.tolist() == [r for _, r in want]

    def test_chosen_words(self):
        self._check(self.CHOSEN)
        assert lemire_lattice(np.array([0], dtype=np.uint64))[1].tolist() == [True]
        assert lemire_lattice(np.array([2**64 - 1], dtype=np.uint64))[0].tolist() == [2**53 - 1]

    def test_both_sides_of_the_borrow(self):
        words = [(k << 11) + r for k in (1, 5, 2**52 + 3) for r in (0, 1, 2**11 - 2, 2**11 - 1)]
        hi = [w << 53 & (2**64 - 1) for w in words]
        assert {h < w for h, w in zip(hi, words)} == {True, False}
        self._check(words)

    @settings(max_examples=200)
    @given(words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    def test_random_words(self, words):
        self._check(words)

    @pytest.mark.parametrize("n", [5, SHORT_STREAM_WORDS])
    def test_rejected_row_drawn_by_reference(self, monkeypatch, n):
        start, count = 10, 4

        def reject_row_two(words):
            lattice, rejected = lemire_lattice(words)
            rejected[2, 1] = True
            lattice[2] = 0  # the redraw must replace the whole row
            return lattice, rejected

        monkeypatch.setattr(sampling, "lemire_lattice", reject_row_two)
        want = [
            sample_uniform(n, SeedSpec(SEED, start + i, UNIFORM_STREAM)).sorted_values
            for i in range(count)
        ]
        got = uniform_samples(n, SEED, start, count)
        np.testing.assert_array_equal(got / 2**53, np.stack(want))


_KEY = st.integers(0, 2**64 - 1)


# ``philox_words`` rebuilds numpy's Philox4x64-10 rounds, counter and buffer
# order; these tests pin it to a fresh ``Philox`` with the same key.
class TestPhiloxWords:
    CHOSEN = [(0, 0), (2**64 - 1, 2**64 - 1), (2**63, 1)]

    def _check(self, keys, n):
        keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
        got = philox_words(keys, n)
        assert got.dtype == np.uint64 and got.shape == (len(keys), n)
        want = [np.random.Philox(key=key).random_raw(n) for key in keys]
        np.testing.assert_array_equal(got, np.array(want, dtype=np.uint64).reshape(-1, n))

    # One to nine words cover a partial first block, a full one and a partial
    # second and third; 17 is five blocks with one word of the last.
    @pytest.mark.parametrize("n", [*range(1, 10), 17])
    def test_chosen_keys(self, n):
        self._check(self.CHOSEN, n)
        for seed in (0, 2**64 - 1):
            self._check(stream_keys(seed, 2**32 - 3, 6, UNIFORM_STREAM), n)

    @settings(max_examples=100)
    @given(keys=st.lists(st.tuples(_KEY, _KEY), min_size=1, max_size=8), n=st.integers(1, 40))
    def test_random_keys(self, keys, n):
        self._check(keys, n)

    @pytest.mark.parametrize("n", [3, 9])
    def test_passes_split_the_chunk(self, monkeypatch, n):
        # Three blocks a pass: seven one-block streams take passes of 3, 3
        # and 1 streams, and three-block streams one stream a pass.
        monkeypatch.setattr(sampling, "_PHILOX_PASS_BLOCKS", 3)
        self._check(stream_keys(SEED, 0, 7, UNIFORM_STREAM), n)


class TestGaussian:
    def test_deterministic(self):
        spec = SeedSpec(SEED, 2, 1)
        np.testing.assert_array_equal(sample_gaussian(64, spec), sample_gaussian(64, spec))

    def test_sample_variance(self):
        x = sample_gaussian(100_000, SeedSpec(SEED, 0, 1))
        assert 0.97 <= x.var(ddof=1) <= 1.03

    def test_tail_fraction(self):
        x = sample_gaussian(100_000, SeedSpec(SEED, 0, 1))
        frac = np.mean(np.abs(x) > 1.96)
        assert abs(frac - 0.05) < 0.002

    def test_needs_positive_count(self):
        with pytest.raises(ParameterError):
            sample_gaussian(0, SeedSpec(SEED))


class TestTies:
    def test_order_statistics_aborts_on_ties(self):
        with pytest.raises(TiesError):
            order_statistics([0.3, 0.5, 0.3])

    def test_order_statistics_rejects_boundary(self):
        with pytest.raises(ParameterError):
            order_statistics([0.0, 0.5])
        with pytest.raises(ParameterError):
            order_statistics([0.5, 1.0])

    def test_sample_type_rejects_ties(self):
        with pytest.raises(TiesError):
            EmpiricalSample(n=2, sorted_values=np.array([0.2, 0.2]))

    def test_order_statistics_sorts(self):
        smp = order_statistics([0.9, 0.1, 0.5])
        assert smp.sorted_values.tolist() == [0.1, 0.5, 0.9]
        assert smp.n == 3
