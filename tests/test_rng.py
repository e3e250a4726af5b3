"""Determinism and draw-order contracts of the random stream layer."""

from __future__ import annotations

import random
from itertools import count, islice

import numpy as np
import pytest

import oob.rng
from oob import MASK64, RandomSource, derive_seed, sources, splitmix64
from oob.rng import _HASH_CHUNK, _HashedSeed


class TestSplitmix64:
    def test_reference_sequence(self):
        # First three outputs of the standard SplitMix64 generator seeded
        # with 0, i.e. the mix applied to 0, gamma, 2*gamma.
        gamma = 0x9E3779B97F4A7C15
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(gamma) == 0x6E789E6AA1B965F4
        assert splitmix64((2 * gamma) % 2**64) == 0x06C45D188009454F

    def test_stays_in_64_bits(self):
        for x in (0, 1, MASK64, 2**63, 123456789):
            assert 0 <= splitmix64(x) <= MASK64

    def test_injective_on_small_range(self):
        outputs = {splitmix64(i) for i in range(10000)}
        assert len(outputs) == 10000


class TestDeriveSeed:
    def test_frozen_values(self):
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(12345, 7) == 7191089600892386798

    def test_distinct_across_indices(self):
        seeds = {derive_seed(42, j) for j in range(5000)}
        assert len(seeds) == 5000

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_seed(2**64, 0)
        with pytest.raises(ValueError):
            derive_seed(0, -1)

    @pytest.mark.parametrize("index", [2**64, 2**64 + 5, True, False, 1.0, "3", None])
    def test_index_validation(self, index):
        # 2**64 would wrap to index 0 and repeat trial 0's seed.
        with pytest.raises(ValueError, match="index"):
            derive_seed(12345, index)

    def test_index_range_ends(self):
        assert derive_seed(7, MASK64) == 7 ^ splitmix64(MASK64)
        assert derive_seed(7, np.uint64(MASK64)) == derive_seed(7, MASK64)
        assert derive_seed(7, np.int64(3)) == derive_seed(7, 3)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(99), RandomSource(99)
        assert [a.normal() for _ in range(10)] == [b.normal() for _ in range(10)]
        assert [a.uniform_open() for _ in range(10)] == [
            b.uniform_open() for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        assert RandomSource(1).normal() != RandomSource(2).normal()

    def test_uniform_open_interval(self):
        u = RandomSource(7).uniforms_open(1_000_000)
        assert float(u.min()) > 0.0
        assert float(u.max()) <= 1.0

    def test_batch_matches_scalar_order(self):
        # Documented on RandomSource, and relied on by normal_feed: batches
        # consume the same variates as scalar calls.
        batch = RandomSource(5).normals(8)
        scalar = RandomSource(5)
        assert list(batch) == [scalar.normal() for _ in range(8)]
        ubatch = RandomSource(5).uniforms_open(8)
        uscalar = RandomSource(5)
        assert list(ubatch) == [uscalar.uniform_open() for _ in range(8)]

    def test_uniform_batch_row_major(self):
        grid = RandomSource(11).uniforms_open((3, 4))
        flat = RandomSource(11).uniforms_open(12)
        assert np.array_equal(grid.reshape(-1), flat)

    def test_seed_validation(self):
        for bad in (-1, 2**64, 1.5, "7", True):
            with pytest.raises(ValueError):
                RandomSource(bad)

    def test_seed_attribute(self):
        assert RandomSource(123).seed == 123


class TestNormalFeed:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("draws", [127, 128, 129, 383, 384, 385, 5000])
    def test_draws_match_scalar_calls(self, seed, draws):
        # 128 and 384 end the first and second batch exactly.
        draw = RandomSource(seed).normal_feed()
        scalar = RandomSource(seed)
        assert [draw() for _ in range(draws)] == [scalar.normal() for _ in range(draws)]

    def test_long_run_through_ziggurat_tails(self):
        # Tail draws take extra 64-bit words; the feed must stay aligned.
        draws = 200_000
        draw = RandomSource(3).normal_feed()
        fed = [draw() for _ in range(draws)]
        scalar = RandomSource(3)
        assert fed == [scalar.normal() for _ in range(draws)]
        assert max(abs(z) for z in fed) > 3.45


class TestSources:
    """``sources`` reproduces numpy's SeedSequence seeding of PCG64 exactly.

    The batch hash is uint32 array arithmetic that wraps by design; pytest
    turns warnings into errors, so an overflow warning would fail these.
    """

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, MASK64]

    @staticmethod
    def assert_states_match(seeds):
        built = list(sources(seeds))
        assert [s.seed for s in built] == [int(seed) for seed in seeds]
        for source, seed in zip(built, seeds):
            assert source._gen.bit_generator.state == np.random.PCG64(seed).state, seed

    def test_edge_seeds(self):
        numpy_ints = [np.uint64(MASK64), np.int64(5), np.uint32(2**32 - 1)]
        self.assert_states_match(self.EDGE_SEEDS + numpy_ints)

    def test_random_64_bit_seeds(self):
        rng = np.random.default_rng(20261018)
        seeds = rng.integers(0, 2**64, size=5000, dtype=np.uint64, endpoint=False)
        self.assert_states_match([int(s) for s in seeds])

    def test_seeds_of_every_bit_length(self):
        # Seeds below 2**32 have one entropy word in numpy, the rest two.
        r = random.Random(11)
        lengths = [bits for bits in range(1, 65) for _ in range(20)]
        seeds = [r.getrandbits(bits) | 1 << (bits - 1) for bits in lengths]
        self.assert_states_match(seeds)

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [derive_seed(3, 9)])
    def test_draws_match_constructor(self, seed):
        (batch,) = sources([seed])
        single = RandomSource(seed)
        assert np.array_equal(batch.normals(100), single.normals(100))
        assert np.array_equal(batch.uniforms_open((4, 25)), single.uniforms_open((4, 25)))
        assert batch.normal() == single.normal()
        assert batch.uniform_open() == single.uniform_open()
        assert repr(batch) == repr(single)

    def test_crosses_chunk_boundary(self, hash_calls):
        seeds = [derive_seed(9, j) for j in range(_HASH_CHUNK + 3)]
        built = list(sources(seeds))
        assert hash_calls == [_HASH_CHUNK, 3]
        for j in (0, _HASH_CHUNK - 1, _HASH_CHUNK, _HASH_CHUNK + 2):
            assert np.array_equal(built[j].normals(8), RandomSource(seeds[j]).normals(8))

    def test_lazy_over_unbounded_input(self, hash_calls):
        first = list(islice(sources(count()), 3))
        assert [s.seed for s in first] == [0, 1, 2]
        assert hash_calls == [_HASH_CHUNK]

    def test_empty_input(self, hash_calls):
        assert list(sources([])) == []
        assert hash_calls == []

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7", True])
    def test_bad_seed_refused(self, bad):
        with pytest.raises(ValueError, match="seed"):
            list(sources([0, bad]))

    def test_hashed_seed_answers_only_the_pcg64_request(self):
        (state,) = oob.rng._pcg64_states([5])
        seed = _HashedSeed(state)
        assert seed.generate_state(4, np.uint64) is state
        for request in [(8, np.uint32), (4, np.uint32), (2, np.uint64)]:
            with pytest.raises(ValueError):
                seed.generate_state(*request)
