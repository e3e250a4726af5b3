"""Determinism and draw-order contracts of the random stream layer."""

from __future__ import annotations

import numpy as np
import pytest

from oob import RandomSource, derive_seed
from oob.rng import _MASK64
from oob.rng import _splitmix64 as splitmix64


class TestSplitmix64:
    def test_reference_sequence(self):
        # First three outputs of the standard SplitMix64 generator seeded
        # with 0, i.e. the mix applied to 0, gamma, 2*gamma.
        gamma = 0x9E3779B97F4A7C15
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(gamma) == 0x6E789E6AA1B965F4
        assert splitmix64((2 * gamma) % 2**64) == 0x06C45D188009454F

    def test_stays_in_64_bits(self):
        for x in (0, 1, _MASK64, 2**63, 123456789):
            assert 0 <= splitmix64(x) <= _MASK64

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
        assert derive_seed(7, _MASK64) == 7 ^ splitmix64(_MASK64)
        assert derive_seed(7, np.uint64(_MASK64)) == derive_seed(7, _MASK64)
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
        grid = RandomSource(11).normals((3, 4))
        flat = RandomSource(11).normals(12)
        assert np.array_equal(grid.reshape(-1), flat)

    def test_out_buffers_match_allocating_draws(self):
        # A draw into a caller's buffer gives the bytes of the allocating
        # call and leaves the stream where that call leaves it.
        drawn, reference = RandomSource(21), RandomSource(21)
        z, u = np.empty(100), np.empty((3, 7))
        assert drawn.normals(100, out=z) is z
        assert z.tobytes() == reference.normals(100).tobytes()
        z = np.empty((4, 5))
        assert drawn.normals((4, 5), out=z) is z
        assert z.tobytes() == reference.normals((4, 5)).tobytes()
        assert drawn.uniforms_open((3, 7), out=u) is u
        assert u.tobytes() == reference.uniforms_open((3, 7)).tobytes()
        assert drawn.normal() == reference.normal()
        assert drawn.uniform_open() == reference.uniform_open()

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

