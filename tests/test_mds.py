from itertools import combinations
from math import comb

import numpy as np
import pytest

from intmat import mds
from intmat.errors import BudgetExceededError, DimensionError, DomainError, GenerationError
from intmat.linalg import IntMatrix
from intmat.mds import (
    MINOR_BUDGET,
    default_generation_m,
    generate_mds,
    is_mds,
    pigeonhole_min_alphabet,
    union_bound_failure,
)
from intmat.sampling import Seed

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
    # a scalar det that disagrees with the expansion is an error, not a verdict
    monkeypatch.setattr(mds, "det", lambda sub: 1)
    with pytest.raises(RuntimeError):
        is_mds(m)


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


def test_union_bound_boundary_and_limits():
    import math

    # base exactly 1: bound is 1
    m_boundary = (math.e * 8 / 4) ** (1 / 0.5)
    assert union_bound_failure(4, 8, round(m_boundary), 0.5) <= 1.0
    assert union_bound_failure(4, 8, 2, 0.5) == 1.0
    assert union_bound_failure(4, 8, 10**9, 0.5) < 1e-12
    with pytest.raises(DomainError):
        union_bound_failure(4, 8, 2, 0.0)


def test_union_bound_dominates_empirical_failure_rate():
    # pilot at (3, 6, 16): empirical failure rate 0.018 with fitted
    # c ~ 0.68; the bound at the conservative c = 0.5 already dominates
    assert union_bound_failure(3, 6, 16, 0.5) >= 0.05


def test_default_generation_m_policy():
    m = default_generation_m(4, 8)
    assert union_bound_failure(4, 8, m, 0.1) <= 0.5
    assert m == 1 or union_bound_failure(4, 8, m - 1, 0.1) > 0.5


def test_default_generation_m_pinned_values():
    # seeded `mds generate` outputs without --m depend on this value
    assert default_generation_m(4, 8) == 127590919
    assert default_generation_m(1, 1) == 22555101


def test_default_generation_m_huge_alphabet_returns():
    m = default_generation_m(2, 200)
    assert union_bound_failure(2, 200, m, 0.1) <= 0.5 < union_bound_failure(2, 200, m - 1, 0.1)
    assert m > 2**63
