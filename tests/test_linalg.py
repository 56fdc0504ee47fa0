import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from intmat.errors import DimensionError
from intmat.linalg import (
    IntMatrix,
    RationalVector,
    _det_rows,
    batch_det_fits_int64,
    det,
    det_batch,
    det_mod,
    is_singular,
    kernel_basis,
    matvec,
    rank,
)

from oracles import cofactor_det, rref_kernel, rref_rank


def random_matrix(rng, rows, cols, lo, hi):
    return IntMatrix.from_rows(rng.integers(lo, hi + 1, size=(rows, cols)).tolist())


def test_det_identity():
    assert det(IntMatrix.identity(3)) == 1


def test_det_2x2():
    assert det(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2


def test_det_non_square_rejected():
    with pytest.raises(DimensionError):
        det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_cofactor_oracle_random_5x5():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = random_matrix(rng, 5, 5, -3, 3)
        assert det(m) == cofactor_det(m.to_lists())


def test_det_duplicated_row_is_zero():
    rng = np.random.default_rng(12)
    for _ in range(100):
        rows = rng.integers(-4, 5, size=(4, 4)).tolist()
        i, j = rng.choice(4, size=2, replace=False)
        rows[i] = list(rows[j])
        assert det(IntMatrix.from_rows(rows)) == 0


def test_det_big_entries_stay_exact():
    # force values far beyond int64 to confirm the big-integer path
    big = 10**30
    m = IntMatrix.from_rows([[big, 1], [1, big]])
    assert det(m) == big * big - 1


def test_rank_trivial_cases():
    assert rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(IntMatrix.identity(6)) == 6


def test_rank_matches_rref_oracle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 7))
        m = random_matrix(rng, rows, cols, -2, 2)
        assert rank(m) == rref_rank(m.to_lists())


def test_is_singular_trivial():
    assert is_singular(IntMatrix.from_rows([[1, 1], [1, 1]]))
    assert not is_singular(IntMatrix.identity(4))
    with pytest.raises(DimensionError):
        is_singular(IntMatrix.from_rows([[1, 2, 3]]))


def test_is_singular_all_81_matrices_n2_m1():
    vals = [-1, 0, 1]
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    m = IntMatrix.from_rows([[a, b], [c, d]])
                    assert is_singular(m) == (cofactor_det([[a, b], [c, d]]) == 0)


def test_singular_rank_det_consistency():
    rng = np.random.default_rng(14)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = random_matrix(rng, n, n, -2, 2)
        d = det(m)
        r = rank(m)
        assert is_singular(m) == (d == 0) == (r < n)


def test_kernel_rank1_case():
    (v,) = kernel_basis(IntMatrix.from_rows([[1, 2], [2, 4]]))
    # canonical form: integer entries, positive leading coordinate
    assert v.entries == (Fraction(2), Fraction(-1))


def test_kernel_identity_empty():
    assert kernel_basis(IntMatrix.identity(5)) == []


def test_kernel_exactness_and_dimension():
    rng = np.random.default_rng(15)
    for _ in range(200):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 7))
        m = random_matrix(rng, rows, cols, -3, 3)
        basis = kernel_basis(m)
        assert len(basis) + rank(m) == cols
        for v in basis:
            assert all(e == 0 for e in matvec(m, v).entries)
        # kernel dimension agrees with the RREF oracle
        assert len(basis) == len(rref_kernel(m.to_lists()))


def test_kernel_rectangular_full_rank_row():
    rng = np.random.default_rng(16)
    found = 0
    while found < 50:
        m = random_matrix(rng, 4, 5, -5, 5)
        if rank(m) < 4:
            continue
        found += 1
        basis = kernel_basis(m)
        assert len(basis) == 1
        assert all(e == 0 for e in matvec(m, basis[0]).entries)


def test_kernel_canonical_normalization():
    for v in kernel_basis(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])):
        ints = [e for e in v.entries]
        assert all(e.denominator == 1 for e in ints)
        lead = next(e for e in ints if e != 0)
        assert lead > 0


def test_det_mod_agrees_with_det():
    rng = np.random.default_rng(17)
    p = (1 << 61) - 1
    for _ in range(100):
        m = random_matrix(rng, 4, 4, -6, 6)
        assert det_mod(m, p) == det(m) % p


def test_batch_det_matches_scalar():
    rng = np.random.default_rng(18)
    for n in range(1, 7):
        mats = rng.integers(-3, 4, size=(400, n, n))
        assert batch_det_fits_int64(n, 3)
        got = det_batch(mats)
        for i in range(mats.shape[0]):
            assert int(got[i]) == det(IntMatrix.from_rows(mats[i].tolist()))


def test_batch_det_overflow_guard():
    assert batch_det_fits_int64(4, 8)
    assert not batch_det_fits_int64(30, 1000)


INT64_MAX = (1 << 63) - 1


def largest_fitting_m(n):
    """Largest m with batch_det_fits_int64(n, m), capped at int64's range."""
    lo, hi = 0, INT64_MAX
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if batch_det_fits_int64(n, mid) else (lo, mid - 1)
    return lo


def sylvester_hadamard(n):
    h = np.ones((1, 1), dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def assert_batch_matches_scalar(mats):
    got = det_batch(mats)
    assert got.dtype == np.int64 and got.shape == (mats.shape[0],)
    for i in range(mats.shape[0]):
        assert int(got[i]) == _det_rows(mats[i].tolist()), mats[i]


@pytest.mark.parametrize("n", range(1, 11))
def test_batch_det_both_branches_up_to_the_guard(n):
    # n <= 8 takes the minor expansion, n >= 9 batch Bareiss; numpy int64
    # wraps silently, so the all-+-m batches at the largest m the guard
    # admits are the overflow check
    rng = np.random.default_rng(100 + n)
    for m in (3, largest_fitting_m(n)):
        uniform = rng.integers(-m, m, size=(40, n, n), endpoint=True, dtype=np.int64)
        extreme = m * rng.choice(np.array([-1, 1]), size=(40, n, n))
        assert_batch_matches_scalar(np.concatenate([uniform, extreme]))
        if n & (n - 1) == 0:  # a Hadamard matrix has the largest det of all +-m matrices
            assert_batch_matches_scalar(m * sylvester_hadamard(n)[None])


@pytest.mark.parametrize("n", range(2, 11))
def test_batch_det_planted_singular(n):
    rng = np.random.default_rng(200 + n)
    for m in (3, largest_fitting_m(n)):
        def draw(bound):
            return rng.integers(-bound, bound, size=(30, n, n), endpoint=True, dtype=np.int64)

        repeated_row = draw(m)
        repeated_row[:, n - 1] = repeated_row[:, 0]
        zero_column = draw(m)
        zero_column[:, :, n // 2] = 0
        planted = [repeated_row, zero_column]
        if n >= 3:
            row_sum = draw(m // 2)  # so the summed row stays within +-m
            row_sum[:, n - 1] = row_sum[:, 0] + row_sum[:, 1]
            planted.append(row_sum)
        mats = np.concatenate(planted)
        assert not det_batch(mats).any()
        assert_batch_matches_scalar(mats)


@st.composite
def small_batches(draw):
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, largest_fitting_m(n)))
    b = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(-m, m), min_size=b * n * n, max_size=b * n * n))
    return np.array(entries, dtype=np.int64).reshape(b, n, n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_batches())
def test_batch_det_property_matches_scalar(mats):
    assert_batch_matches_scalar(mats)


def test_intmatrix_validation():
    with pytest.raises(DimensionError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionError):
        RationalVector(())
