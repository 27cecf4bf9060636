"""Tests for the Zipf rank sampler behind hot hubs and hot queries."""

import random
from collections import Counter

import pytest

from repro.workloads import ZipfSampler


class TestZipfSampler:
    def test_rank_zero_dominates(self):
        sampler = ZipfSampler(20, s=1.2)
        rng = random.Random(3)
        counts = Counter(sampler.sample(rng) for _ in range(2000))
        assert counts[0] > counts[1] > counts[10]

    def test_all_ranks_reachable(self):
        sampler = ZipfSampler(5, s=0.5)
        rng = random.Random(3)
        assert set(sampler.sample(rng) for _ in range(2000)) == set(range(5))

    def test_deterministic_for_seeded_rng(self):
        draws = [
            [ZipfSampler(10, s=1.3).sample(random.Random(7)) for _ in range(5)]
            for _ in range(2)
        ]
        assert draws[0] == draws[1]

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)

    def test_negative_domain_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            ZipfSampler(-3)

    def test_one_rank_always_draws_it(self):
        sampler = ZipfSampler(1)
        rng = random.Random(5)
        assert {sampler.sample(rng) for _ in range(200)} == {0}

    @pytest.mark.parametrize("n, s", [(2, 0.0), (7, 0.8), (50, 1.2), (1000, 2.0)])
    def test_draws_stay_in_range(self, n, s):
        sampler = ZipfSampler(n, s=s)
        rng = random.Random(n)
        assert all(0 <= sampler.sample(rng) < n for _ in range(500))

    def test_zero_exponent_is_uniform(self):
        sampler = ZipfSampler(4, s=0.0)
        rng = random.Random(11)
        counts = Counter(sampler.sample(rng) for _ in range(4000))
        assert all(800 < counts[rank] < 1200 for rank in range(4))

    def test_larger_exponent_skews_harder(self):
        def head_share(s):
            sampler = ZipfSampler(20, s=s)
            rng = random.Random(9)
            return sum(sampler.sample(rng) == 0 for _ in range(2000))

        assert head_share(2.0) > head_share(1.2) > head_share(0.5)
