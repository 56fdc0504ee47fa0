import time
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intmat import mds
from intmat.errors import BudgetExceededError, DimensionError, DomainError, GenerationError
from intmat.linalg import _FILTER_PRIME as P, IntMatrix
from intmat.mds import (
    MINOR_BUDGET,
    default_generation_m,
    generate_mds,
    is_mds,
    pigeonhole_min_alphabet,
)
from intmat.sampling import EntryDistribution, Seed, generator

from oracles import brute_is_mds


def vandermonde(k, n):
    return IntMatrix.from_rows([[x**i for x in range(n)] for i in range(k)])


def test_vandermonde_2x4_is_mds():
    m = IntMatrix.from_rows([[1, 1, 1, 1], [0, 1, 2, 3]])
    verdict = is_mds(m)
    assert verdict.is_mds and verdict.witness is None
    assert verdict.minors_checked == 6


def test_duplicate_columns_witnessed():
    m = IntMatrix.from_rows([[1, 2, 1, 5], [3, 4, 3, 6], [0, 1, 0, 2]])
    verdict = is_mds(m)
    assert not verdict.is_mds
    assert 0 in verdict.witness and 2 in verdict.witness


def test_random_3x6_matches_brute_oracle():
    rng = np.random.default_rng(20)
    for _ in range(150):
        rows = rng.integers(-1, 2, size=(3, 6)).tolist()
        mine = is_mds(IntMatrix.from_rows(rows))
        truth, witness = brute_is_mds(rows)
        assert mine.is_mds == truth
        if not truth:
            assert mine.witness == witness  # both scans are lexicographic


def test_negative_verdicts_match_brute_oracle_up_to_5x10():
    rng = np.random.default_rng(24)
    negatives = 0
    for k in range(1, 6):
        for n in range(k, 11):
            for _ in range(3):
                rows = rng.integers(-2, 3, size=(k, n))
                if n > k:  # plant a dependent column late in the order
                    a, b = rng.integers(0, n - 1, size=2)
                    rows[:, n - 1] = rows[:, a] + rows[:, b] if k > 1 else 0
                rows = rows.tolist()
                mine = is_mds(IntMatrix.from_rows(rows))
                truth, witness = brute_is_mds(rows)
                assert mine.is_mds == truth
                if truth:
                    assert mine.minors_checked == comb(n, k)
                    continue
                negatives += 1
                assert mine.witness == witness
                assert mine.minors_checked == list(combinations(range(n), k)).index(witness) + 1
    assert negatives >= 100


def test_negative_verdict_is_confirmed_by_one_scalar_det(monkeypatch):
    det = mds.det
    calls = []

    def counted(sub):
        calls.append(sub)
        return det(sub)

    monkeypatch.setattr(mds, "det", counted)
    m = IntMatrix.from_rows([[1, 2, 3, 2], [0, 1, 1, 1], [4, 0, 5, 0]])  # columns 1 and 3 agree
    verdict = is_mds(m)
    assert verdict.witness == (0, 1, 3) and verdict.minors_checked == 2
    assert calls == [m.submatrix_columns((0, 1, 3))]
    calls.clear()
    assert is_mds(vandermonde(3, 6)).is_mds
    assert calls == []
    # a candidate that det refutes is skipped: a zero residue is no verdict
    monkeypatch.setattr(mds, "det", lambda sub: calls.append(sub) or 1)
    assert is_mds(m) == mds.MdsVerdict(True, None, 4)
    assert calls == [m.submatrix_columns((0, 1, 3)), m.submatrix_columns((1, 2, 3))]


@st.composite
def wide_mds_cases(draw):
    """k x n matrices with entries above the int64 expansion bound (or all
    multiples of the filter prime), some with a planted dependent column
    and some with a planted dependent row (rank below k)."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 8))
    scale = draw(st.sampled_from((1, P, P << 40)))
    m = draw(st.integers(1, 2**70)) if scale == 1 else draw(st.integers(1, 5))
    cols = [[scale * v for v in draw(st.lists(st.integers(-m, m), min_size=k, max_size=k))]
            for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j, *rest = draw(st.permutations(range(n)))
        cols[j] = cols[i] if not rest else [x - y for x, y in zip(cols[i], cols[rest[0]])]
    rows = [list(r) for r in zip(*cols)]
    if k > 1 and draw(st.booleans()):
        i, j, *rest = draw(st.permutations(range(k)))
        rows[j] = rows[i] if not rest else [x + y for x, y in zip(rows[i], rows[rest[0]])]
    return rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(wide_mds_cases())
def test_wide_entries_match_brute_oracle(rows):
    verdict = is_mds(IntMatrix.from_rows(rows))
    truth, witness = brute_is_mds(rows)
    assert (verdict.is_mds, verdict.witness) == (truth, witness)
    n, k = len(rows[0]), len(rows)
    want = comb(n, k) if truth else list(combinations(range(n), k)).index(witness) + 1
    assert verdict.minors_checked == want


def test_multiples_of_the_prime_make_every_minor_a_candidate(monkeypatch):
    det = mds.det
    calls = []
    monkeypatch.setattr(mds, "det", lambda sub: calls.append(sub) or det(sub))
    rows = (P * vandermonde(3, 7).to_numpy().astype(object)).tolist()
    assert is_mds(IntMatrix.from_rows(rows)) == mds.MdsVerdict(True, None, comb(7, 3))
    assert len(calls) == comb(7, 3)
    rows[2][6] = rows[2][5]
    rows[0][6], rows[1][6] = rows[0][5], rows[1][5]  # columns 5 and 6 agree
    calls.clear()
    verdict = is_mds(IntMatrix.from_rows(rows))
    assert (verdict.is_mds, verdict.witness) == brute_is_mds(rows)
    assert len(calls) == verdict.minors_checked == list(combinations(range(7), 3)).index((0, 5, 6)) + 1


def test_nonzero_minor_with_a_zero_residue_costs_one_det(monkeypatch):
    det = mds.det
    calls = []
    monkeypatch.setattr(mds, "det", lambda sub: calls.append(sub) or det(sub))
    assert is_mds(IntMatrix.from_rows([[P << 40, 1]])) == mds.MdsVerdict(True, None, 2)
    assert len(calls) == 1


def test_minor_budget_fails_before_allocating(monkeypatch):
    def no_expansion(m):
        raise AssertionError("maximal_minors must not run over budget")

    monkeypatch.setattr(mds, "maximal_minors", no_expansion)
    wide = IntMatrix(10, 30, (1,) * 300)
    with pytest.raises(BudgetExceededError) as err:
        is_mds(wide)
    assert err.value.required == comb(30, 10) > MINOR_BUDGET
    assert err.value.budget == MINOR_BUDGET
    assert str(comb(30, 10)) in str(err.value)


def test_generate_checks_the_minor_budget_before_drawing(monkeypatch):
    def no_draw(seed):
        raise AssertionError("the budget must be checked before the first draw")

    monkeypatch.setattr(mds, "generator", no_draw)
    with pytest.raises(BudgetExceededError) as err:
        generate_mds(1, 10**8)
    assert err.value.required == 10**8 and err.value.budget == MINOR_BUDGET
    with pytest.raises(BudgetExceededError):
        generate_mds(10, 30, m=1)


def test_minor_budget_refuses_a_huge_binomial_at_once(monkeypatch):
    # C(10**8, 5 * 10**7) has about 3 * 10**7 digits; it is never computed
    monkeypatch.setattr(mds.math, "comb", lambda n, k: pytest.fail("C(n, k) computed"))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as err:
        generate_mds(5 * 10**7, 10**8, seed=Seed(1))
    assert time.perf_counter() - start < 1.0
    assert err.value.required == 2**65 and err.value.budget == MINOR_BUDGET
    assert len(str(err.value)) < 100


def _no_expansion(m):
    raise AssertionError("maximal_minors must not run: the first det decides")


def test_near_square_shapes_within_budget_use_scalar_det(monkeypatch):
    # the 19 x 19 identity has one maximal minor, but C(19, 9) = 92,378
    # minors in the expansion's middle level: one det decides
    det = mds.det
    calls = []
    monkeypatch.setattr(mds, "det", lambda sub: calls.append(sub) or det(sub))
    monkeypatch.setattr(mds, "maximal_minors", _no_expansion)
    assert comb(19, 9) > MINOR_BUDGET
    assert is_mds(IntMatrix.identity(19)) == mds.MdsVerdict(True, None, 1)
    assert len(calls) == 1
    singular = IntMatrix(19, 19, IntMatrix.identity(19).entries[:-1] + (0,))
    assert is_mds(singular) == mds.MdsVerdict(False, tuple(range(19)), 1)
    assert len(calls) == 2


def _expands_only(monkeypatch, shape):
    """Make mds.maximal_minors assert that it expands a matrix of `shape`."""
    expand = mds.maximal_minors

    def checked(m):
        assert (m.rows, m.cols) == shape
        return expand(m)

    monkeypatch.setattr(mds, "maximal_minors", checked)


def test_16x20_vandermonde_is_mds_within_budget(monkeypatch):
    # C(20, 16) = 4,845 maximal minors; A's widest level, C(20, 10), is over,
    # so the 4 x 20 kernel basis is expanded instead
    _expands_only(monkeypatch, (4, 20))
    assert comb(20, 16) <= MINOR_BUDGET < comb(20, 10)
    assert is_mds(vandermonde(16, 20)) == mds.MdsVerdict(True, None, comb(20, 16))


def test_16x20_scalar_path_keeps_witness_order(monkeypatch):
    # [I | 0]: the first column set is nonsingular, the second takes column 16
    _expands_only(monkeypatch, (4, 20))
    rows = [[int(i == j) for j in range(20)] for i in range(16)]
    verdict = is_mds(IntMatrix.from_rows(rows))
    assert verdict.witness == tuple(range(15)) + (16,)
    assert verdict.minors_checked == 2


def test_rank_below_k_is_witnessed_by_the_first_column_set(monkeypatch):
    monkeypatch.setattr(mds, "maximal_minors", _no_expansion)
    rows = [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 1, 0, 1, 1]]  # row 1 = 2 * row 0
    assert is_mds(IntMatrix.from_rows(rows)) == mds.MdsVerdict(False, (0, 1, 2), 1)
    assert brute_is_mds(rows) == (False, (0, 1, 2))


def test_witness_is_lexicographically_first():
    # columns 0,1 dependent and columns 2,3 dependent: (0,1) must win
    m = IntMatrix.from_rows([[1, 2, 1, 3], [2, 4, 0, 0]])
    verdict = is_mds(m)
    assert verdict.witness == (0, 1)


def test_k_greater_than_n_rejected():
    with pytest.raises(DimensionError):
        is_mds(IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]]))


def test_permutation_invariance():
    rng = np.random.default_rng(21)
    for _ in range(60):
        rows = rng.integers(-2, 3, size=(3, 5))
        perm = rng.permutation(5)
        a = is_mds(IntMatrix.from_rows(rows.tolist()))
        b = is_mds(IntMatrix.from_rows(rows[:, perm].tolist()))
        assert a.is_mds == b.is_mds


def test_row_scaling_invariance():
    rng = np.random.default_rng(22)
    for _ in range(60):
        rows = rng.integers(-2, 3, size=(3, 5)).tolist()
        scaled = [row[:] for row in rows]
        scaled[1] = [-7 * v for v in scaled[1]]
        assert is_mds(IntMatrix.from_rows(rows)).is_mds == is_mds(
            IntMatrix.from_rows(scaled)
        ).is_mds


def test_vandermonde_all_shapes_up_to_8():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert is_mds(vandermonde(k, n)).is_mds


def test_pigeonhole_forces_failure():
    # n > |alphabet|^2 * k cannot be MDS; alphabet {0,1}, k=2, n=9
    rng = np.random.default_rng(23)
    for _ in range(40):
        rows = rng.integers(0, 2, size=(2, 9)).tolist()
        assert not is_mds(IntMatrix.from_rows(rows)).is_mds


def test_generate_k1_needs_nonzero_entries():
    rep = generate_mds(1, 5, m=1, max_attempts=200, seed=Seed(17))
    assert all(v != 0 for v in rep.matrix.entries)
    assert is_mds(rep.matrix).is_mds


def test_generate_4_8_16_succeeds_quickly():
    rep = generate_mds(4, 8, m=16, max_attempts=64, seed=Seed(2026))
    assert rep.m_used == 16
    assert rep.attempts <= 64
    truth, _ = brute_is_mds(rep.matrix.to_lists())
    assert truth


def test_generate_success_rate_regression():
    # pilot at (4, 8, 16): 200/200 attempts succeeded; freeze >= 45/50
    ok = 0
    for i in range(50):
        try:
            generate_mds(4, 8, m=16, max_attempts=1, seed=Seed(300 + i))
            ok += 1
        except GenerationError:
            pass
    assert ok >= 45


def test_generate_below_pigeonhole_always_fails():
    # alphabet size 3 < sqrt(20/2): every attempt must fail
    with pytest.raises(GenerationError) as err:
        generate_mds(2, 20, m=1, max_attempts=25, seed=Seed(40))
    assert err.value.attempts == 25
    assert err.value.last_witness is not None


def test_generate_reproducible():
    a = generate_mds(3, 6, m=8, max_attempts=64, seed=Seed(77))
    b = generate_mds(3, 6, m=8, max_attempts=64, seed=Seed(77))
    assert a.matrix == b.matrix and a.attempts == b.attempts


def test_pigeonhole_min_alphabet_values():
    assert pigeonhole_min_alphabet(2, 200) == 10
    assert pigeonhole_min_alphabet(4, 4) == 1
    assert pigeonhole_min_alphabet(2, 9) == 3
    with pytest.raises(DomainError):
        pigeonhole_min_alphabet(1, 10)


def test_pigeonhole_is_minimal():
    for k in (2, 3, 5):
        for n in range(k, 60):
            s = pigeonhole_min_alphabet(k, n)
            assert s * s * k >= n
            assert s == 1 or (s - 1) * (s - 1) * k < n


def test_default_generation_m_policy():
    # the smallest m whose Schwartz-Zippel union bound C(n, k) * k / (2m + 1)
    # on a singular minor is below 1/2
    def bound(k, n, m):
        return Fraction(comb(n, k) * k, 2 * m + 1)

    for n in range(1, 13):
        for k in range(1, n + 1):
            m = default_generation_m(k, n)
            assert bound(k, n, m) < Fraction(1, 2) <= bound(k, n, m - 1)
    with pytest.raises(DimensionError):
        default_generation_m(3, 2)


def test_default_generation_m_pinned_values():
    # seeded `mds generate` outputs without --m depend on this value
    assert default_generation_m(4, 8) == 280
    assert default_generation_m(1, 1) == 1
    assert default_generation_m(2, 200) == 39_800


def test_default_generation_m_huge_alphabet_returns():
    # k = 2, n = 200 once derived an alphabet beyond int64; the bound's
    # alphabet is one the sampler draws directly
    m = default_generation_m(2, 200)
    assert m < 2**63
    draws = EntryDistribution.uniform_symmetric(m).sample_array(generator(Seed(1)), 1000)
    assert np.abs(draws).max() <= m


def test_generate_without_m_uses_the_bound_within_max_attempts():
    for k, n in ((1, 1), (1, 4), (2, 5), (3, 6), (4, 8), (5, 7), (6, 7)):
        for i in range(10):
            try:
                rep = generate_mds(k, n, max_attempts=2, seed=Seed(900 + i))
            except GenerationError as err:
                assert err.attempts == 2
                continue
            assert rep.m_used == k * comb(n, k)
            assert 1 <= rep.attempts <= 2
            assert brute_is_mds(rep.matrix.to_lists())[0]
