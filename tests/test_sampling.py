import bisect
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from intmat import sampling
from intmat.charfunc import small_ball_probe
from intmat.cli import main
from intmat.errors import DomainError
from intmat.sampling import (
    EntryDistribution,
    Seed,
    generator,
    raw_u64,
    sample_batches,
    sample_matrix,
    sample_vector,
    vempala_sum_distribution,
)
from intmat.singularity import mc_singularity

from oracles import uniform_ints


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


def test_uniform_frequencies_m64():
    # 129 values at 1000 expected draws each: chi-square below 183.186
    # (0.999 quantile, 128 df)
    dist = EntryDistribution.uniform_symmetric(64)
    draws = dist.sample_array(generator(Seed(2025)), 129_000)
    assert draws.min() >= -64 and draws.max() <= 64
    counts = np.bincount(draws + 64, minlength=129)
    chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
    assert chi2 < 183.186


def test_draws_come_in_bounded_sub_batches(monkeypatch):
    requests, drawn = [], []
    sample_array = EntryDistribution.sample_array

    def recording(self, gen, count):
        requests.append(count)
        drawn.append(sample_array(self, gen, count))
        return drawn[-1]

    monkeypatch.setattr(EntryDistribution, "sample_array", recording)
    # one shard of 300 zero 64x64 matrices: 1.2M entries, two sub-batches
    report = mc_singularity(64, EntryDistribution.uniform_symmetric(0), 300, Seed(1))
    assert report.hits == 300
    assert requests == [256 * 4096, 44 * 4096]
    requests.clear()
    drawn.clear()
    # rows of n = 2048 entries, 512 rows per sub-batch; x = e1 and eps = 1/2
    # hit exactly when the first entry is 0
    n, trials = 2048, 1500
    rep = small_ball_probe([1.0] + [0.0] * (n - 1), 1, 0.5, trials, Seed(2))
    assert max(requests) <= 1 << 20 and sum(requests) == trials * n
    first = np.concatenate(drawn).reshape(trials, n)[:, 0]
    assert rep.mc_probability.hits == int(np.count_nonzero(first == 0))


def test_sub_batch_size_does_not_change_the_draws(monkeypatch):
    # int64 and custom-pmf draws concatenate across calls (Philox keeps the
    # spare 32-bit half of a word between calls), so odd-sized sub-batches
    # give the one-call draw; int16 draws do not (see the narrow golden)
    wide = {name: GOLDEN_DRAWS[name] for name in ("uniform_m2_62", "custom_pmf")}
    wide["uniform_narrow_m"] = (
        EntryDistribution.uniform_symmetric(sampling._NARROW_M), Seed(105), None
    )
    dist = wide["custom_pmf"][0]
    report = mc_singularity(3, dist, 5000, Seed(4))
    monkeypatch.setattr(sampling, "_DRAW_BATCH", 50)
    assert mc_singularity(3, dist, 5000, Seed(4)).hits == report.hits
    monkeypatch.setattr(sampling, "_DRAW_BATCH", 7)
    for dist, seed, _ in wide.values():
        whole = dist.sample_array(generator(seed), 4095)
        assert whole.dtype == np.int64
        batches = list(sample_batches(dist, generator(seed), 4095, 1))
        assert len(batches) == 585
        assert np.array_equal(np.concatenate(batches).ravel(), whole)


def test_narrow_draws_are_int16_below_the_stream_constant():
    for m in (0, 1, 16, sampling._NARROW_M - 1):
        draws = EntryDistribution.uniform_symmetric(m).sample_array(generator(Seed(6)), 1000)
        assert draws.dtype == np.int16
        assert draws.min() >= -m and draws.max() <= m
    assert EntryDistribution.uniform_symmetric(sampling._NARROW_M).sample_array(
        generator(Seed(6)), 10
    ).dtype == np.int64


def test_raw_u64_gives_the_full_range_words():
    # twin generators, raw words interleaved with bounded draws of both widths
    a, b = generator(Seed(5, 3), shard=2), generator(Seed(5, 3), shard=2)
    for k in range(1, 12):
        assert np.array_equal(
            raw_u64(a, 3 * k), b.integers(0, 2**64, size=3 * k, dtype=np.uint64)
        )
        for dtype in (np.int16, np.int64):
            assert np.array_equal(
                a.integers(-3, 3, size=k, dtype=dtype, endpoint=True),
                b.integers(-3, 3, size=k, dtype=dtype, endpoint=True),
            )


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


def _decode_laws():
    tiny = Fraction(1, 2**60)
    rng = np.random.default_rng(33)
    weights = rng.integers(0, 1000, size=900).tolist()
    return [
        vempala_sum_distribution(Fraction(1, 2), 4),  # thresholds on bucket edges
        # masses of 2**-60 put several thresholds in one bucket; zero masses
        # repeat a threshold, and at the end reach 2**64
        EntryDistribution.custom(
            [-9, -3, 0, 1, 5, 7, 8, 9, 40],
            [tiny, tiny, 0, Fraction(1, 3), 3 * tiny, 0, Fraction(2, 3) - 5 * tiny, 0, 0],
        ),
        EntryDistribution.custom([0, 1, 2], [Fraction(1, 2), Fraction(1, 2), 0]),
        EntryDistribution.custom(range(900), [Fraction(w, sum(weights)) for w in weights]),
    ]


@pytest.mark.parametrize("dist", _decode_laws(), ids=["vempala", "tiny", "zero_tail", "wide"])
def test_custom_decode_table_matches_the_cumulative_search(dist):
    # oracle: value i for the words w with #{thresholds <= w} = i, in Python ints
    bounds, cum = [], Fraction(0)
    for p in dist.pmf[:-1]:
        cum += p
        bounds.append(cum.numerator * 2**64 // cum.denominator)
    words = {0, 2**64 - 1}
    for t in bounds:
        words |= {t - 1, t, t + 1}
    words = sorted(w for w in words if 0 <= w < 2**64)
    words += raw_u64(generator(Seed(34)), 20_000).tolist()
    got = dist._decode(np.array(words, dtype=np.uint64))
    assert got.dtype == np.int64
    assert got.tolist() == [dist.support[bisect.bisect_right(bounds, w)] for w in words]


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


# Golden stream: SHA-256 prefixes of seeded outputs. Any change to the random
# stream (the sampler, the keys, or numpy's Generator, which NEP 19 does not
# promise to keep stable across versions) changes one of these. A stream
# change bumps sampling.STREAM_VERSION and replaces the hashes together.
GOLDEN_DRAWS = {  # first 4096 draws: (distribution, seed, hash)
    "uniform_m2": (EntryDistribution.uniform_symmetric(2), Seed(101), "d91a3c6070430d50"),
    "uniform_m2_62": (EntryDistribution.uniform_symmetric(2**62), Seed(102), "d6fc9f5b2753682c"),
    "custom_pmf": (
        EntryDistribution.custom([-3, 0, 1, 5], [Fraction(1, 7), Fraction(3, 7),
                                                 Fraction(2, 7), Fraction(1, 7)]),
        Seed(103, 2),
        "416f54a4753cb3eb",
    ),
}
# 300,000 items of 9 int16 entries: three sub-batches, so the schedule is pinned
GOLDEN_NARROW_BATCHES = "bf2a5b756051b6fa"
GOLDEN_ESTIMATE = "ef9ba4f298dca8dd"
GOLDEN_CLI = {
    "smallball": "e0f2047314c3f731",
    "mds_generate": "b91f9e3e46ff0e7a",
    "estimate_n12": "5539544ef85118f3",
}
GOLDEN_SMALLBALL_SHARDS = "79c14d4da401bf9d"
GOLDEN_ESTIMATE_ARGV = ["estimate", "--n", "3", "--m", "2", "--trials", "70000", "--seed", "7", "--json"]
GOLDEN_SMALLBALL_SHARDS_ARGV = ["smallball", "--n", "12", "--m", "3", "--eps", "0.2",
                                "--trials", "70000", "--seed", "9", "--json"]
GOLDEN_CLI_ARGV = {
    "smallball": ["smallball", "--n", "12", "--m", "3", "--eps", "0.2", "--trials", "20000",
                  "--seed", "9", "--json"],
    "mds_generate": ["mds", "generate", "--k", "3", "--n", "6", "--m", "16", "--seed", "11",
                     "--json"],
    # past the expansion's bound: singular matrices decided off the expansion
    "estimate_n12": ["estimate", "--n", "12", "--m", "1", "--trials", "20000", "--seed", "7",
                     "--json"],
}
# n = 4 on {-2**40, 0, 2**40}: past the expansion's bound, and singular in half the trials
GOLDEN_WIDE_LAW = "509b77acd545b8a7"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_golden_hashes_pin_stream_version_3():
    assert sampling.STREAM_VERSION == 3


@pytest.mark.parametrize("name", sorted(GOLDEN_DRAWS))
def test_golden_sample_array(name):
    dist, seed, digest = GOLDEN_DRAWS[name]
    draws = dist.sample_array(generator(seed), 4096)
    assert _digest(draws.astype("<i8").tobytes()) == digest


def test_golden_narrow_sub_batches():
    dist = EntryDistribution.uniform_symmetric(3)
    batches = list(sample_batches(dist, generator(Seed(104)), 300_000, 9))
    assert [b.shape[0] for b in batches] == [116_508, 116_508, 66_984]
    draws = np.concatenate(batches).ravel()
    assert _digest(draws.astype("<i8").tobytes()) == GOLDEN_NARROW_BATCHES
    # the first sub-batch is the one-call draw's prefix; the next ones are not
    whole = dist.sample_array(generator(Seed(104)), draws.size)
    first = batches[0].size
    assert np.array_equal(draws[:first], whole[:first])
    assert not np.array_equal(draws[first:], whole[first:])


@pytest.mark.parametrize("threads", ["1", "2", "8"])
def test_golden_estimate_stdout(capsys, threads):
    # 70000 trials span three shards
    assert main(GOLDEN_ESTIMATE_ARGV + ["--threads", threads]) == 0
    assert _digest(capsys.readouterr().out.encode()) == GOLDEN_ESTIMATE


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI))
def test_golden_cli_stdout(capsys, name):
    assert main(GOLDEN_CLI_ARGV[name]) == 0
    assert _digest(capsys.readouterr().out.encode()) == GOLDEN_CLI[name]


@pytest.mark.parametrize("threads", [None, "1", "2", "8"])
def test_golden_smallball_stdout_across_threads(capsys, threads):
    # 70000 trials span three shards; no flag takes the usable CPU count
    extra = [] if threads is None else ["--threads", threads]
    assert main(GOLDEN_SMALLBALL_SHARDS_ARGV + extra) == 0
    assert _digest(capsys.readouterr().out.encode()) == GOLDEN_SMALLBALL_SHARDS


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_wide_law_estimate_stdout(capsys, tmp_path, threads):
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"support": [-(2**40), 0, 2**40], "pmf": ["1/4", "1/2", "1/4"]}))
    argv = ["estimate", "--n", "4", "--dist", f"custom:{spec}", "--trials", "20000",
            "--seed", "7", "--json", "--threads", threads]
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out.encode()) == GOLDEN_WIDE_LAW
