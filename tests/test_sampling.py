import math
from fractions import Fraction

import numpy as np
import pytest

from intmat.errors import DomainError
from intmat.sampling import (
    EntryDistribution,
    Seed,
    generator,
    raw_u64,
    sample_matrix,
    sample_vector,
    uniform_ints,
    vempala_sum_distribution,
)


def test_same_seed_same_matrix():
    dist = EntryDistribution.uniform_symmetric(3)
    a = sample_matrix(6, 7, dist, Seed(123, 4))
    b = sample_matrix(6, 7, dist, Seed(123, 4))
    assert a == b


def test_different_stream_different_matrix():
    dist = EntryDistribution.uniform_symmetric(3)
    a = sample_matrix(8, 8, dist, Seed(123, 0))
    b = sample_matrix(8, 8, dist, Seed(123, 1))
    assert a != b


def test_entries_within_support():
    dist = EntryDistribution.uniform_symmetric(5)
    v = sample_vector(1000, dist, Seed(9))
    assert all(-5 <= e <= 5 for e in v.entries)


def test_m_zero_gives_all_zeros():
    dist = EntryDistribution.uniform_symmetric(0)
    m = sample_matrix(4, 4, dist, Seed(1))
    assert all(e == 0 for e in m.entries)


def test_alphabets_bounded_by_int64():
    dist = EntryDistribution.uniform_symmetric(2**62)
    assert dist.max_abs_value() == 2**62
    draws = dist.sample_array(generator(Seed(2)), 1000)
    assert draws.min() >= -(2**62) and draws.max() <= 2**62
    assert (draws < 0).any() and (draws > 0).any()
    with pytest.raises(DomainError):
        EntryDistribution.uniform_symmetric(2**63)
    with pytest.raises(DomainError):
        EntryDistribution.custom([0, 2**63], [Fraction(1, 2), Fraction(1, 2)])
    wide = EntryDistribution.custom([-(2**63), 2**63 - 1], [Fraction(1, 2), Fraction(1, 2)])
    assert set(wide.sample_array(generator(Seed(3)), 100).tolist()) == {-(2**63), 2**63 - 1}


def test_uniform_frequencies_m2():
    # 10^5 draws from 5 values: counts within 4 sigma of 20000 and the
    # chi-square statistic below 18.467 (0.999 quantile, 4 df)
    dist = EntryDistribution.uniform_symmetric(2)
    draws = dist.sample_array(generator(Seed(2024)), 100_000)
    counts = np.bincount(draws + 2, minlength=5)
    sigma = math.sqrt(100_000 * 0.2 * 0.8)
    assert all(abs(c - 20_000) <= 4 * sigma for c in counts)
    chi2 = float(((counts - 20_000.0) ** 2 / 20_000.0).sum())
    assert chi2 < 18.467


def test_empirical_mean_within_4_sigma():
    # unscaled entry variance is m(m+1)/3
    m = 2
    dist = EntryDistribution.uniform_symmetric(m)
    draws = dist.sample_array(generator(Seed(55)), 100_000)
    sigma_mean = math.sqrt(m * (m + 1) / 3 / 100_000)
    assert abs(float(draws.mean())) <= 4 * sigma_mean


def test_streams_do_not_overlap():
    # raw 64-bit outputs of distinct streams share no values in 2^20 draws
    a = raw_u64(generator(Seed(77, 0)), 1 << 20)
    b = raw_u64(generator(Seed(77, 1)), 1 << 20)
    assert not np.intersect1d(a, b).size


def test_shards_do_not_overlap():
    a = raw_u64(generator(Seed(77), shard=0), 1 << 16)
    b = raw_u64(generator(Seed(77), shard=1), 1 << 16)
    assert not np.intersect1d(a, b).size


def test_uniform_ints_rejection_exactness():
    # width 5 from a mask of 8: every residue must appear, none outside
    draws = uniform_ints(generator(Seed(4)), 5, 50_000)
    assert set(np.unique(draws)) == {0, 1, 2, 3, 4}


def test_max_probability_uniform():
    for m in range(0, 6):
        dist = EntryDistribution.uniform_symmetric(m)
        assert dist.max_probability == Fraction(1, 2 * m + 1)


def test_custom_distribution_validation():
    with pytest.raises(DomainError):
        EntryDistribution.custom([0, 1], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(DomainError):
        EntryDistribution.custom([1, 0], [Fraction(1, 2), Fraction(1, 2)])


def test_custom_sampling_frequencies():
    dist = EntryDistribution.custom([-1, 0, 1], [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
    assert dist.max_probability == Fraction(1, 2)
    draws = dist.sample_array(generator(Seed(31)), 100_000)
    for value, p in zip((-1, 0, 1), (0.25, 0.5, 0.25)):
        count = int((draws == value).sum())
        sigma = math.sqrt(100_000 * p * (1 - p))
        assert abs(count - 100_000 * p) <= 5 * sigma


def test_vempala_m1_pmf():
    d = vempala_sum_distribution(Fraction(1, 2), 1)
    assert d.support == (-1, 0, 1)
    assert d.pmf == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))


def test_vempala_m2_matches_direct_convolution():
    mu = Fraction(1, 2)
    base = {-1: mu / 2, 0: 1 - mu, 1: mu / 2}
    conv = {}
    for a, pa in base.items():
        for b, pb in base.items():
            conv[a + b] = conv.get(a + b, Fraction(0)) + pa * pb
    d = vempala_sum_distribution(mu, 2)
    assert d.pmf == tuple(conv[s] for s in range(-2, 3))


def test_vempala_pmf_sums_to_one():
    for m in range(1, 9):
        d = vempala_sum_distribution(Fraction(1, 3), m)
        assert sum(d.pmf, Fraction(0)) == 1
        assert d.support == tuple(range(-m, m + 1))


def test_vempala_domain_errors():
    with pytest.raises(DomainError):
        vempala_sum_distribution(Fraction(0), 3)
    with pytest.raises(DomainError):
        vempala_sum_distribution(Fraction(1, 2), 0)


def test_seed_validation():
    with pytest.raises(DomainError):
        Seed(-1)
    with pytest.raises(DomainError):
        Seed(1 << 64)
