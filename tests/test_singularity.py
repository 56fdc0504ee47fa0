import sys
import time
from fractions import Fraction
from itertools import product
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import intmat.singularity
from intmat.errors import BudgetExceededError, DomainError, FitError
from intmat.linalg import (
    _FILTER_PRIME as P,
    _det_rows,
    det_batch,
    det_residues,
    hadamard_below,
    nonsingular_mod_p,
)
from intmat.sampling import EntryDistribution, Seed
from intmat.singularity import (
    MAX_THREADS,
    MAX_TRIALS,
    SHARD_ENTRIES,
    EstimateReport,
    _count_singular,
    exact_singular_fraction,
    fit_exponent,
    lower_bound,
    map_shards,
    mc_singularity,
    schwartz_zippel_bound,
    wilson_interval,
)

from oracles import (
    cofactor_det,
    divisor_singular_fraction,
    enumerate_singular_fraction,
    philox_zero_count,
    span_count_singular_fraction,
    sylvester_hadamard,
    totient_singular_fraction,
)


def test_exact_fraction_n1():
    assert exact_singular_fraction(1, 1) == Fraction(1, 3)
    assert exact_singular_fraction(1, 5) == Fraction(1, 11)


def test_exact_fraction_n2_m1_oracle():
    vals = (-1, 0, 1)
    singular = sum(
        1
        for a, b, c, d in product(vals, repeat=4)
        if cofactor_det([[a, b], [c, d]]) == 0
    )
    frac = exact_singular_fraction(2, 1)
    assert frac == Fraction(singular, 81)
    # equal-rows injection: at least 3^(4-2) singular matrices
    assert singular >= 9


# Every (n, m) whose full enumeration is at most 2 * 10**6 matrices, for
# n <= 8: n = 1 up to m = 18 and at m = 999,999, n = 2 up to m = 18, n = 3
# up to m = 2, and m = 0 beyond.
ORACLE_GRID = [(1, 999_999)] + [
    (n, m) for n in range(1, 9) for m in range(19) if (2 * m + 1) ** (n * n) <= 2 * 10**6
]


@pytest.mark.parametrize("n, m", ORACLE_GRID)
def test_exact_fraction_matches_full_enumeration(n, m):
    assert exact_singular_fraction(n, m) == enumerate_singular_fraction(n, m)


def test_exact_fraction_pinned_values():
    # both checked once against enumerate_singular_fraction (43 M and 40 M
    # matrices), which is too slow to run here
    assert exact_singular_fraction(4, 1) == Fraction(1677689, 4782969)
    assert exact_singular_fraction(3, 3) == Fraction(2840071, 40353607)
    # equal to span_count_singular_fraction, and to the former library code
    assert exact_singular_fraction(3, 5, budget=11**9) == Fraction(54304331, 2357947691)


@pytest.mark.parametrize("n, m", [(3, 3), (3, 4), (4, 1)])
def test_exact_fraction_matches_the_unreduced_span_count(n, m):
    budget = (2 * m + 1) ** (n * n)
    assert exact_singular_fraction(n, m, budget=budget) == span_count_singular_fraction(n, m)


def test_exact_fraction_n2_matches_the_totient_sum():
    for m in range(1, 41):
        assert exact_singular_fraction(2, m) == totient_singular_fraction(m)
    frac = exact_singular_fraction(2, 300, budget=601**4)
    assert frac == totient_singular_fraction(300) == divisor_singular_fraction(300)
    assert frac == Fraction(6110945, 130466162401)


@pytest.mark.parametrize("n, m", [(3, 3), (4, 1)])
def test_exact_fraction_folds_the_tally_before_the_last_chunk(monkeypatch, n, m):
    # a fold runs whenever the buffered words outnumber the running tally's:
    # after both chunks at (3, 3), and 5 times in the 9 chunks of (4, 1)
    monkeypatch.setattr(intmat.singularity, "_TALLY_WORDS", 0)
    budget = (2 * m + 1) ** (n * n)
    assert exact_singular_fraction(n, m, budget=budget) == span_count_singular_fraction(n, m)


@pytest.mark.parametrize("n, m", [(9, 1), (8, 83), (2, 2**31), (7, 1), (4, 20)])
def test_exact_fraction_refuses_past_the_int64_bound(monkeypatch, n, m):
    # each has at least 2**64 row stacks: the refusal comes before any chunk
    def no_enumeration(*args):
        raise AssertionError("no row stack may be enumerated past 2**64 of them")

    monkeypatch.setattr(intmat.singularity, "_cube", no_enumeration)
    assert (2 * m + 1) ** (n * (n - 1)) >= 2**64
    with pytest.raises(BudgetExceededError, match=r"2\*\*64 row stacks") as err:
        exact_singular_fraction(n, m, budget=(2 * m + 1) ** (n * n))
    assert err.value.required is None


class _Enumerated(Exception):
    pass


def _enumerated(*args):
    raise _Enumerated


# the largest m whose (2m+1)**(n*(n-1)) row stacks stay below 2**64, the
# range of _cube's uint64 odometer; from n = 7 on only m = 0 is admitted
ROW_STACK_EDGES = [(2, 2**31 - 1), (3, 812), (4, 19), (5, 4), (6, 1)]


@pytest.mark.parametrize("n, edge", ROW_STACK_EDGES)
def test_keys_pack_into_one_uint64_up_to_the_edge(n, edge):
    # the base grows with m, so the edge bounds every admitted m
    hadamard_squared = (edge * edge * (n - 1)) ** (n - 1)  # bounds |minor|**2
    base = isqrt(hadamard_squared) + 1
    assert base**2 > hadamard_squared and base**n < 2**64


@pytest.mark.parametrize("n, edge", ROW_STACK_EDGES)
def test_exact_fraction_row_stack_edge(monkeypatch, n, edge):
    monkeypatch.setattr(intmat.singularity, "_cube", _enumerated)
    assert (2 * edge + 1) ** (n * (n - 1)) < 2**64 <= (2 * edge + 3) ** (n * (n - 1))
    # the int64 minors and dets that enumeration reads are exact at the edge
    assert hadamard_below(n, edge, 63) and hadamard_below(n - 1, edge, 63)
    with pytest.raises(_Enumerated):
        exact_singular_fraction(n, edge, budget=(2 * edge + 1) ** (n * n))
    with pytest.raises(BudgetExceededError) as err:
        exact_singular_fraction(n, edge + 1, budget=(2 * edge + 3) ** (n * n))
    assert err.value.required is None


def test_exact_fraction_budget():
    with pytest.raises(BudgetExceededError) as err:
        exact_singular_fraction(4, 4)
    assert err.value.required == 9**16


def test_lower_bound_values():
    assert lower_bound(2, 1) == Fraction(1, 9)
    assert lower_bound(3, 2) == Fraction(1, 125)
    with pytest.raises(DomainError):
        lower_bound(1, 1)


def test_lower_bound_below_exact():
    assert exact_singular_fraction(2, 1) >= lower_bound(2, 1)
    assert exact_singular_fraction(2, 2) >= lower_bound(2, 2)


def test_schwartz_zippel_values():
    assert schwartz_zippel_bound(2, 8) == Fraction(1, 4)
    assert schwartz_zippel_bound(3, 2) == Fraction(1)
    assert exact_singular_fraction(2, 2) <= schwartz_zippel_bound(2, 2)


def test_bounds_sandwich_exact_fraction():
    for n, m in [(2, 1), (2, 2), (2, 3), (3, 1)]:
        frac = exact_singular_fraction(n, m)
        assert lower_bound(n, m) <= frac <= schwartz_zippel_bound(n, m)


def test_mc_scalar_case():
    # a 1x1 matrix is singular iff its entry is 0; 1,100,000 trials are two
    # shards of 2**19 and a partial third, each counted off Philox directly
    trials = 1_100_000
    r = mc_singularity(1, EntryDistribution.uniform_symmetric(1), trials, Seed(8))
    assert r.hits == philox_zero_count((8, 0), 1, trials, 2**19)


def test_mc_matches_exact_within_999_ci():
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        exact = float(exact_singular_fraction(n, m))
        r = mc_singularity(n, EntryDistribution.uniform_symmetric(m), 100_000, Seed(99))
        lo, hi = wilson_interval(r.hits, r.trials, confidence=0.999)
        assert lo <= exact <= hi


def test_mc_above_lower_bound_minus_noise():
    r = mc_singularity(2, EntryDistribution.uniform_symmetric(1), 100_000, Seed(5))
    p = float(lower_bound(2, 1))
    sigma = (p * (1 - p) / r.trials) ** 0.5
    assert r.estimate >= p - 3 * sigma


def test_mc_deterministic_across_threads():
    dist = EntryDistribution.uniform_symmetric(2)
    r1 = mc_singularity(3, dist, 70_000, Seed(21), threads=1)
    r8 = mc_singularity(3, dist, 70_000, Seed(21), threads=8)
    assert (r1.trials, r1.hits, r1.estimate, r1.ci_low, r1.ci_high) == (
        r8.trials,
        r8.hits,
        r8.estimate,
        r8.ci_low,
        r8.ci_high,
    )


def test_map_shards_sums_shard_sizes_in_order():
    # a shard holds SHARD_ENTRIES entries of whole trials, or one larger trial
    for entries, per in [(1, 2**19), (36, 14_563), (100, 5_242), (2**20, 1)]:
        rest = (per + 1) // 2  # a partial last shard unless a shard is one trial
        trials = 2 * per + rest
        seen = []
        total = map_shards(lambda i, size: seen.append((i, size)) or size, trials, entries, 1)
        assert total == trials
        assert seen == [(0, per), (1, per), (2, rest)]
        assert map_shards(lambda i, size: i, trials, entries, 2) == 0 + 1 + 2


def test_map_shards_has_no_shard_cap():
    trials = 2**16 + 5  # one trial per shard
    assert map_shards(lambda i, size: size, trials, 2**20, 2) == trials


@pytest.mark.parametrize("threads", [1, 2, 3, 7])
def test_map_shards_runs_each_shard_once_for_any_thread_count(threads):
    seen = []

    def count_shard(i, size):
        seen.append((i, size))
        return (i + 1) ** 3 * size

    # workers switch every microsecond, so a shard index handed out twice or
    # skipped would show; 11 shards of 14,563 trials (36 entries each) and a
    # partial last one, then 5,000 shards of one trial
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        partial_last = [(i, 14_563) for i in range(11)] + [(11, 1_000)]
        for trials, entries, want in [
            (11 * (SHARD_ENTRIES // 36) + 1_000, 36, partial_last),
            (5_000, 2**20, [(i, 1) for i in range(5_000)]),
        ]:
            seen.clear()
            total = map_shards(count_shard, trials, entries, threads)
            assert sorted(seen) == want
            assert total == sum((i + 1) ** 3 * size for i, size in want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 2, 7])
def test_map_shards_stops_handing_out_shards_after_one_raises(threads):
    calls = []

    def count_shard(i, size):
        calls.append(i)
        if i == 0:
            raise MemoryError("shard 0")
        time.sleep(0.001)
        return size

    with pytest.raises(MemoryError, match="shard 0"):
        map_shards(count_shard, 5_000, 2**20, threads)  # 5,000 shards of one trial
    assert len(calls) < 100


def test_map_shards_caps_shards_and_threads_before_any_work():
    def count_shard(shard, size):
        raise AssertionError("no shard may run when a cap is exceeded")

    cap = MAX_TRIALS
    assert cap == 2**31
    for entries in (1, 64, 2**20):
        for trials in (cap + 1, 10**23):
            with pytest.raises(DomainError, match=f"trials must be <= {cap}"):
                map_shards(count_shard, trials, entries, 2)
    with pytest.raises(DomainError, match=f"threads must be <= {MAX_THREADS}"):
        map_shards(count_shard, 10, 1, MAX_THREADS + 1)
    with pytest.raises(DomainError, match="threads must be >= 1"):
        map_shards(count_shard, 10, 1, 0)


def test_mc_custom_distribution():
    # Pr[singular 1x1] = Pr[sum = 0]
    # the sum of two sparse sign laws (mass 1/2 at 0, 1/4 at each of -1, +1)
    dist = EntryDistribution.custom(range(-2, 3), [Fraction(c, 16) for c in (1, 4, 6, 4, 1)])
    p0 = float(dist.pmf[2])
    r = mc_singularity(1, dist, 50_000, Seed(3))
    assert r.m is None
    lo, hi = wilson_interval(r.hits, r.trials, confidence=0.999)
    assert lo <= p0 <= hi


def assert_filter_matches_scalar(mats):
    # the filter proves exactly the matrices whose det is nonzero modulo p,
    # so never a singular one, and the exact confirmation decides the rest
    dets = [_det_rows(mat.tolist()) for mat in mats]
    proved = nonsingular_mod_p(mats)
    assert proved.tolist() == [d % P != 0 for d in dets]
    assert not any(proved[i] for i, d in enumerate(dets) if d == 0)
    assert _count_singular(mats) == dets.count(0)


@st.composite
def filter_batches(draw):
    """(B, n, n) int64 batches, n = 1..12, entries up to 2**62, some with a
    planted repeated row or zero column, or every entry a multiple of p."""
    n = draw(st.integers(1, 12))
    plant = draw(st.sampled_from(("none", "repeated_row", "zero_column", "times_p")))
    top = 2**62 // P if plant == "times_p" else 2**62
    m = draw(st.integers(0, 3) | st.integers(0, top))
    b = draw(st.integers(1, max(1, 200 // (n * n))))
    entries = draw(st.lists(st.integers(-m, m), min_size=b * n * n, max_size=b * n * n))
    mats = np.array(entries, dtype=np.int64).reshape(b, n, n)
    if plant == "repeated_row" and n > 1:
        mats[:, n - 1] = mats[:, 0]
    elif plant == "zero_column":
        mats[:, :, n // 2] = 0
    elif plant == "times_p":
        mats *= P
    return mats


@settings(derandomize=True, max_examples=300, deadline=None)
@given(filter_batches())
def test_filter_then_confirm_matches_scalar(mats):
    assert_filter_matches_scalar(mats)


@pytest.mark.parametrize("n", range(9, 13))
def test_filter_planted_singular(n):
    # n >= 9 always takes the filter: every planted singular matrix must
    # reach the exact confirmation, and the random ones must be decided
    rng = np.random.default_rng(200 + n)
    for m in (3, 2**62):
        def draw(bound):
            return rng.integers(-bound, bound, size=(30, n, n), endpoint=True, dtype=np.int64)

        repeated_row = draw(m)
        repeated_row[:, n - 1] = repeated_row[:, 0]
        zero_column = draw(m)
        zero_column[:, :, n // 2] = 0
        row_sum = draw(m // 2)  # so the summed row stays within +-m
        row_sum[:, n - 1] = row_sum[:, 0] + row_sum[:, 1]
        planted = np.concatenate([repeated_row, zero_column, row_sum])
        assert not nonsingular_mod_p(planted).any()
        assert_filter_matches_scalar(np.concatenate([planted, draw(m)]))


def test_multiples_of_the_prime_all_go_to_confirmation(monkeypatch):
    # every entry divisible by p: the filter proves nothing, the answer stays exact
    rng = np.random.default_rng(500)
    mats = P * rng.integers(-3, 4, size=(200, 10, 10))
    mats[:50, 9] = mats[:50, 0]
    want = sum(_det_rows(mat.tolist()) == 0 for mat in mats)
    confirm = intmat.singularity._det_rows
    calls = []
    monkeypatch.setattr(intmat.singularity, "_det_rows", lambda a: calls.append(a) or confirm(a))
    assert not nonsingular_mod_p(mats).any()
    assert _count_singular(mats) == want >= 50
    assert len(calls) == 200


def test_filter_takes_int16_batches_off_the_guard():
    # uniform draws below 2**11 come as int16, also past the expansion's guard
    rng = np.random.default_rng(501)
    mats = rng.integers(-100, 101, size=(300, 8, 8)).astype(np.int16)
    mats[:100, 7] = mats[:100, 3]
    mats[100:110, :, 0] = -32768  # int16's lowest value
    assert not hadamard_below(8, 100, 63)
    assert_filter_matches_scalar(mats)


def assert_count_matches_scalar(mats):
    # the residue pass, then the mod-p filter and _det_rows on what it leaves
    assert _count_singular(mats) == sum(_det_rows(mat.tolist()) == 0 for mat in mats)


def record_filter_input(monkeypatch) -> list:
    """Every batch _count_singular hands to nonsingular_mod_p, in order."""
    received = []
    proved = intmat.singularity.nonsingular_mod_p
    monkeypatch.setattr(
        intmat.singularity, "nonsingular_mod_p", lambda mats: received.append(mats) or proved(mats)
    )
    return received


def _refuse(*args):
    raise AssertionError("_count_singular has one exact path: no det_batch")


@pytest.mark.parametrize("n", range(1, 13))
def test_count_never_calls_det_batch(n, monkeypatch):
    for module in (intmat.singularity, intmat.linalg):
        monkeypatch.setattr(module, "det_batch", _refuse)
    rng = np.random.default_rng(1000 + n)
    for m in (1, 3, 77, 2**40):
        mats = rng.integers(-m, m, size=(40, n, n), endpoint=True, dtype=np.int64)
        mats[:10, n - 1] = mats[:10, 0] if n > 1 else 0
        assert_count_matches_scalar(mats)


@pytest.mark.parametrize("n", range(1, 9))
def test_residue_pass_planted_singular(n):
    rng = np.random.default_rng(600 + n)
    for m in (1, 3, 100, 2**40):
        def draw(bound):
            return rng.integers(-bound, bound, size=(20, n, n), endpoint=True, dtype=np.int64)

        zero_column = draw(m)
        zero_column[:, :, n // 2] = 0
        planted = [zero_column, draw(m)]
        if n >= 2:
            repeated_row = draw(m)
            repeated_row[:, n - 1] = repeated_row[:, 0]
            planted.append(repeated_row)
        if n >= 3:
            row_sum = draw(m // 2)  # so the summed row stays within +-m
            row_sum[:, n - 1] = row_sum[:, 0] + row_sum[:, 1]
            planted.append(row_sum)
        assert_count_matches_scalar(np.concatenate(planted))


@pytest.mark.parametrize("n", range(2, 9))
def test_residue_pass_multiples_of_2_8(n):
    # det is a multiple of 2**(8n), so every residue is zero and the exact
    # paths decide every matrix
    rng = np.random.default_rng(700 + n)
    mats = 2**8 * rng.integers(-3, 4, size=(60, n, n))
    mats[:20, n - 1] = mats[:20, 0]
    assert not det_residues(mats).any()
    assert_count_matches_scalar(mats)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_residue_pass_hadamard_multiples(n):
    # det(m * H) = m**n * n**(n/2): a power of two past 2**16 for m = 2 at
    # n = 8, m = 16 at n = 4 and m = 2**20 at n = 2
    nonsingular = np.stack([m * sylvester_hadamard(n) for m in (1, 2, 3, 16, 77, 2**20)])
    singular = nonsingular.copy()
    singular[:, n - 1] = singular[:, 0]
    assert_count_matches_scalar(np.concatenate([nonsingular, singular]))
    assert (det_residues(nonsingular) == 0).sum() >= 1


@pytest.mark.parametrize(
    "n, edge", [(1, 65_535), (2, 181), (3, 23), (4, 7), (5, 4), (6, 2), (7, 1), (8, 1)]
)
def test_residue_pass_at_the_int16_exact_edge(n, edge, monkeypatch):
    # up to the edge every |det| < 2**16 and the residues alone give the
    # count; one past it the zero residues, and only they, go to the filter
    assert hadamard_below(n, edge, 16) and not hadamard_below(n, edge + 1, 16)
    received = record_filter_input(monkeypatch)
    rng = np.random.default_rng(800 + n)
    for m in (edge, edge + 1):
        mats = rng.integers(-m, m, size=(200, n, n), endpoint=True)
        mats[:20] = m * rng.choice(np.array([-1, 1]), size=(20, n, n))
        mats[20:40, n - 1] = mats[20:40, 0] if n > 1 else 0
        if n & (n - 1) == 0:
            mats[40] = m * sylvester_hadamard(n)
        received.clear()
        assert _count_singular(mats) == sum(_det_rows(mat.tolist()) == 0 for mat in mats)
        if m == edge:
            assert received == []
        else:
            assert len(received) == 1
            assert np.array_equal(received[0], mats[det_residues(mats) == 0])


def test_residue_pass_confirms_only_the_zero_residues(monkeypatch):
    # uniform (8, 16): the mod-p filter sees the zero residues (the singular
    # matrices and about 4 in 10**5 others), not the batch
    rng = np.random.default_rng(900)
    mats = rng.integers(-16, 17, size=(1 << 15, 8, 8)).astype(np.int16)
    want = int(np.count_nonzero(det_batch(mats) == 0))
    zero = det_residues(mats) == 0
    received = record_filter_input(monkeypatch)
    assert _count_singular(mats) == want
    assert len(received) == 1 and np.array_equal(received[0], mats[zero])
    assert want <= len(received[0]) <= 10


@pytest.mark.parametrize("n, scale", [(10, P), (4, 2**40)])
def test_scale_does_not_change_singularity(n, scale):
    # a law scaled by c draws the same support indices, and c * M is singular
    # iff M is; at scale p every matrix takes the exact confirmation
    def hits(c):
        pmf = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        return mc_singularity(n, EntryDistribution.custom([-c, 0, c], pmf), 2000, Seed(3)).hits

    assert hits(scale) == hits(1) > 0


def test_monotone_in_n_and_m_beyond_ci_overlap():
    reports = {}
    for n in (2, 3, 4, 5, 6):
        reports[n] = mc_singularity(n, EntryDistribution.uniform_symmetric(2), 20_000, Seed(6))
    for n in (2, 3, 4, 5):
        assert not (reports[n + 1].ci_low > reports[n].ci_high)
    by_m = {}
    for m in (1, 2, 4, 8):
        by_m[m] = mc_singularity(3, EntryDistribution.uniform_symmetric(m), 20_000, Seed(7))
    for a, b in [(1, 2), (2, 4), (4, 8)]:
        assert not (by_m[b].ci_low > by_m[a].ci_high)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.01
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0 and lo > 0.99
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi


def test_zero_hit_rule_of_three():
    r = EstimateReport.from_counts(1000, 0, 2, 1, 0.0)
    assert r.estimate == 0.0
    assert r.ci_high == pytest.approx(3 / 1000)
    assert r.ci_low == 0.0


def test_report_invariants():
    r = EstimateReport.from_counts(5000, 17, 3, 2, 0.1)
    assert r.ci_low <= r.estimate <= r.ci_high
    assert r.estimate_fraction() == Fraction(17, 5000)
    with pytest.raises(DomainError):
        EstimateReport.from_counts(10, 11, 2, 1, 0.0)


def test_fit_exact_model_recovery():
    pts = [(n, m, m ** (-0.5 * n)) for n in (2, 3, 4) for m in (2, 4, 8)]
    fit = fit_exponent(pts)
    assert abs(fit.c_hat - 0.5) < 1e-9
    assert fit.residual < 1e-12


def test_fit_noisy_model_recovery():
    import numpy as np

    rng = np.random.default_rng(4)
    pts = [
        (n, m, m ** (-0.5 * n) * (1 + 0.1 * rng.uniform(-1, 1)))
        for n in (2, 3, 4)
        for m in (2, 4, 8)
    ]
    fit = fit_exponent(pts)
    assert 0.4 <= fit.c_hat <= 0.6


def test_fit_from_pilot_estimates_positive():
    pts = []
    for n in (2, 3):
        for m in (2, 4, 8):
            r = mc_singularity(n, EntryDistribution.uniform_symmetric(m), 20_000, Seed(44))
            pts.append((n, m, r.estimate))
    assert fit_exponent(pts).c_hat > 0


def test_fit_preconditions():
    with pytest.raises(FitError):
        fit_exponent([(2, 2, 0.1), (3, 2, 0.0), (4, 2, 0.0)])
    with pytest.raises(FitError):
        fit_exponent([(2, 1, 0.1), (3, 2, 0.05), (4, 2, 0.01)])
