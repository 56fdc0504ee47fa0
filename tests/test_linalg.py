import numpy as np
import pytest
from itertools import combinations
from math import isqrt

from hypothesis import given, settings, strategies as st

from intmat import linalg
from intmat.errors import DimensionError
from intmat.linalg import (
    IntMatrix,
    _det_rows,
    batch_det_fits_int64,
    det,
    det_batch,
    det_mod,
    det_residues,
    is_singular,
    kernel_basis,
    maximal_minors,
    nonsingular_mod_p,
    rank,
)

from oracles import (
    cofactor_det,
    kernel_basis_oracle,
    matvec,
    rref_kernel,
    rref_rank,
    sylvester_hadamard,
)


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


def test_det_zero_leading_pivots_match_cofactor_oracle():
    # a zero top-left block, its rows shuffled: zero pivots force row swaps,
    # whose signs the swap-free cofactor expansion checks
    rng = np.random.default_rng(14)
    swapped = 0
    for n in range(2, 7):
        for _ in range(60):
            a = rng.integers(-3, 4, size=(n, n))
            a[: rng.integers(1, n + 1), : rng.integers(1, n)] = 0
            rows = a[rng.permutation(n)].tolist()
            want = cofactor_det(rows)
            assert det(IntMatrix.from_rows(rows)) == want, rows
            swapped += rows[0][0] == 0 and want != 0
    assert swapped > 50


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
    assert v == (2, -1)


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
            assert all(e == 0 for e in matvec(m, v))
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
        assert all(e == 0 for e in matvec(m, basis[0]))


def test_kernel_canonical_normalization():
    for v in kernel_basis(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])):
        assert all(type(e) is int for e in v)
        lead = next(e for e in v if e != 0)
        assert lead > 0


@st.composite
def kernel_inputs(draw):
    # mostly (c-1) x c, the lifting path's shape; small entries make rank
    # deficiency likely, large ones need many p-adic digits
    r = draw(st.integers(1, 6))
    c = r + 1 if draw(st.booleans()) else draw(st.integers(1, 7))
    bound = draw(st.sampled_from((1, 3, 2**20, 2**40)))
    entries = draw(st.lists(st.integers(-bound, bound), min_size=r * c, max_size=r * c))
    return IntMatrix(r, c, tuple(entries))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernel_basis_matches_fraction_oracle(m):
    assert kernel_basis(m) == kernel_basis_oracle(m)


@st.composite
def normal_vector_inputs(draw):
    # (c-1) x c with planted dependent columns, entries that are multiples of
    # the lifting prime, or entries up to 2**70 (past int64 and past the
    # int64 lifting bound |a| * r * p < 2**62)
    r = draw(st.integers(1, 7))
    c = r + 1
    bound = draw(st.sampled_from((2, 16, 2**40, 2**70)))
    cols = [draw(st.lists(st.integers(-bound, bound), min_size=r, max_size=r)) for _ in range(c)]
    for j in range(draw(st.integers(0, 2))):
        # column j+1 becomes a combination of earlier columns
        if j + 1 < c:
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            cols[j + 1] = [s * u + t * v for u, v in zip(cols[0], cols[j])]
    scale = draw(st.sampled_from((1, 1, linalg._LIFT_PRIME, linalg._LIFT_PRIME * 2**40)))
    return IntMatrix.from_rows([[scale * cols[j][i] for j in range(c)] for i in range(r)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(normal_vector_inputs())
def test_kernel_basis_normal_vector_shapes_match_oracle(m):
    want = kernel_basis_oracle(m)
    assert kernel_basis(m) == want
    x = linalg._lifted_kernel(m)
    if x is not None:
        assert [linalg._canonical(x)] == want


def test_lifting_prime_is_prime_and_lazy_sums_fit_int64():
    p = linalg._LIFT_PRIME
    assert p < 2**25 and all(p % d for d in range(2, isqrt(p) + 1))
    # the largest such prime: no prime lies between p and 2**25
    assert all(any(q % d == 0 for d in range(2, isqrt(q) + 1)) for q in range(p + 1, 2**25))
    # a Gauss-Jordan entry is a residue minus at most r products below p**2
    r = 8191
    assert r * (p - 1) ** 2 + p < 2**63


@pytest.mark.parametrize(
    "rows",
    [
        [[linalg._LIFT_PRIME, 0, 0], [0, 1, 0]],  # rank 1 modulo the lifting prime only
        [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 1]],  # rank-deficient 3 x 4
        [[0, 0, 0], [0, 0, 0]],  # zero matrix, (c-1) x c
        [[0, 0, 1], [0, 0, 2]],  # two free columns
    ],
)
def test_kernel_basis_fallback_from_the_multimodular_shape(rows):
    m = IntMatrix.from_rows(rows)
    assert linalg._lifted_kernel(m) is None
    assert kernel_basis(m) == kernel_basis_oracle(m)


@pytest.mark.parametrize("rows", [[[0, 5]], [[1, 2, 3], [2, 4, 7]], [[0, 1, 2], [0, 3, 5]]])
def test_kernel_basis_multimodular_with_an_early_free_column(rows):
    m = IntMatrix.from_rows(rows)
    assert linalg._lifted_kernel(m) is not None
    assert kernel_basis(m) == kernel_basis_oracle(m)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [2, 4, 6], [1, 0, 1], [3, 4, 7], [0, 1, 1]],  # tall, rank 2
        [[1, 2], [3, 4], [5, 6]],  # tall, full column rank
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],  # zero
        [[2**70 + 1, 3, 5], [7, 2**65, 11], [13, 17, 19], [1, 1, 1]],  # tall, huge entries
    ],
)
def test_kernel_basis_other_shapes_take_the_integer_back_substitution(rows, monkeypatch):
    def no_lifting(m):
        raise AssertionError("only (c-1) x c matrices take the lifting path")

    monkeypatch.setattr(linalg, "_lifted_kernel", no_lifting)
    m = IntMatrix.from_rows(rows)
    assert kernel_basis(m) == kernel_basis_oracle(m)


def test_kernel_basis_lifts_2_400_entries_exactly():
    # twice the squared Hadamard bound of 3 x 4 with entries 2**400 needs
    # 97 digits modulo p, lifted in Python integers
    m = IntMatrix.from_rows([[2**400, 1, 2, 3], [4, 2**400 + 5, 6, 7], [8, 9, 2**400, 11]])
    x = linalg._lifted_kernel(m)
    assert x is not None and not any(sum(a * b for a, b in zip(row, x)) for row in m.to_lists())
    assert kernel_basis(m) == kernel_basis_oracle(m) == [linalg._canonical(x)]


@pytest.mark.parametrize("bound", [16, 2**40])
def test_kernel_basis_39x40_lifting_matches_oracle(bound):
    rng = np.random.default_rng(40)
    for _ in range(3):
        m = random_matrix(rng, 39, 40, -bound, bound)
        assert linalg._lifted_kernel(m) is not None
        assert kernel_basis(m) == kernel_basis_oracle(m)


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
    assert not batch_det_fits_int64(9, 1)  # n >= 9 always takes the mod-p filter
    assert not batch_det_fits_int64(30, 1000)


INT64_MAX = (1 << 63) - 1
P = linalg._FILTER_PRIME


def largest_fitting_m(n):
    """Largest m with batch_det_fits_int64(n, m), capped at int64's range."""
    lo, hi = 0, INT64_MAX
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if batch_det_fits_int64(n, mid) else (lo, mid - 1)
    return lo


def assert_batch_matches_scalar(mats):
    got = det_batch(mats)
    assert got.dtype == np.int64 and got.shape == (mats.shape[0],)
    for i in range(mats.shape[0]):
        assert int(got[i]) == _det_rows(mats[i].tolist()), mats[i]


@pytest.mark.parametrize("n", range(1, 9))
def test_batch_det_both_branches_up_to_the_guard(n):
    # m = 3 and the largest m the int64 guard admits; numpy int64 wraps
    # silently, so the all-+-m batches at that m are the overflow check
    rng = np.random.default_rng(100 + n)
    for m in (3, largest_fitting_m(n)):
        uniform = rng.integers(-m, m, size=(40, n, n), endpoint=True, dtype=np.int64)
        extreme = m * rng.choice(np.array([-1, 1]), size=(40, n, n))
        assert_batch_matches_scalar(np.concatenate([uniform, extreme]))
        if n & (n - 1) == 0:  # a Hadamard matrix has the largest det of all +-m matrices
            assert_batch_matches_scalar(m * sylvester_hadamard(n)[None])


@pytest.mark.parametrize("n", range(2, 9))
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
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, largest_fitting_m(n)))
    b = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(-m, m), min_size=b * n * n, max_size=b * n * n))
    return np.array(entries, dtype=np.int64).reshape(b, n, n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_batches())
def test_batch_det_property_matches_scalar(mats):
    assert_batch_matches_scalar(mats)


@pytest.mark.parametrize("n, edge", [(8, 77), (6, 549), (4, 25_809)])
def test_expansion_guard_edge(n, edge):
    # n * m * (m * sqrt(n-1))**(n-1) < 2**63 decides the n <= 8 branch exactly
    assert batch_det_fits_int64(n, edge)
    assert not batch_det_fits_int64(n, edge + 1)


def test_expansion_guard_admits_the_exact_workload_alphabets():
    assert batch_det_fits_int64(8, 16)
    assert batch_det_fits_int64(6, 64)


@st.composite
def wide_matrices(draw):
    """k x n matrices on both sides of the int64 expansion bound, some with planted zero minors."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 9))
    limit = largest_fitting_m(k)
    m = draw(st.integers(limit + 1, 2**70) if draw(st.booleans()) else st.integers(0, limit))
    cols = [draw(st.lists(st.integers(-m, m), min_size=k, max_size=k)) for _ in range(n)]
    plant = draw(st.sampled_from(("none", "repeat", "sum")[: min(n, 3)]))
    if plant != "none":
        i, j, *rest = draw(st.permutations(range(n)))
        cols[j] = cols[i] if plant == "repeat" else [x + y for x, y in zip(cols[i], cols[rest[0]])]
    return plant, IntMatrix.from_rows([list(r) for r in zip(*cols)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wide_matrices())
def test_maximal_minors_match_scalar_det(case):
    plant, m = case
    k, n = m.rows, m.cols
    got = maximal_minors(m)
    subsets = list(combinations(range(n), k))
    assert got.shape == (len(subsets),)
    for value, cols in zip(got, subsets):
        assert int(value) == det(m.submatrix_columns(cols)) % P, cols
    if plant == "repeat" and k >= 2 or plant == "sum" and k >= 3:
        assert (got == 0).any()


@pytest.mark.parametrize("k", range(1, 9))
def test_maximal_minors_int64_at_the_guard(k):
    # all-+-m rows at the largest m the guard admits; for k a power of two the
    # first k columns are m times a Hadamard matrix, the largest +-m minor
    rng = np.random.default_rng(300 + k)
    m = largest_fitting_m(k)
    a = m * rng.choice(np.array([-1, 1]), size=(k, k + 3))
    if k & (k - 1) == 0:
        a[:, :k] = m * sylvester_hadamard(k)
    mat = IntMatrix.from_rows(a.tolist())
    got = maximal_minors(mat)
    for value, cols in zip(got, combinations(range(k + 3), k)):
        assert int(value) == det(mat.submatrix_columns(cols)) % P, cols


@pytest.mark.parametrize(
    "n, edge", [(1, 2**31 - 1), (2, 32_767), (3, 710), (4, 100), (5, 30), (6, 13), (7, 7), (8, 4)]
)
def test_batch_det_int32_lanes_at_the_edge(n, edge):
    # the largest m whose expansion bound stays below 2**31, and one past it;
    # all-+-m batches and, for n a power of two, m times a Hadamard matrix
    # (the largest det of all +-m matrices)
    rng = np.random.default_rng(400 + n)
    for m in (edge, edge + 1):
        mats = m * rng.choice(np.array([-1, 1]), size=(40, n, n))
        if n & (n - 1) == 0:
            mats[0] = m * sylvester_hadamard(n)
        assert_batch_matches_scalar(mats)


@pytest.mark.parametrize("b", [8_191, 8_192, 8_193, 16_385])
def test_batch_det_lane_boundaries(b):
    rng = np.random.default_rng(b)
    mats = rng.integers(-3, 4, size=(b, 4, 4))
    mats[-1, 3] = mats[-1, 0]  # a singular matrix in the last lane
    assert_batch_matches_scalar(mats)
    assert np.array_equal(nonsingular_mod_p(mats), det_batch(mats) % P != 0)


def test_batch_det_takes_int16_batches():
    rng = np.random.default_rng(401)
    mats = rng.integers(-2047, 2048, size=(300, 3, 3)).astype(np.int16)
    mats[:, :, 0] = -32768 * (rng.random((300, 3)) < 0.1)  # int16's lowest value
    assert_batch_matches_scalar(mats)


def test_batch_det_one_extreme_matrix_forces_int64():
    rng = np.random.default_rng(402)
    mats = rng.integers(-4, 5, size=(10_000, 8, 8))
    assert_batch_matches_scalar(mats)
    mats[9_999] = 77 * sylvester_hadamard(8)  # the largest m batch_det_fits_int64 admits
    assert_batch_matches_scalar(mats)


@st.composite
def residue_batches(draw):
    """(B, n, n) batches, n = 1..8: int16 over its whole range, -32768 too,
    or int64 with entries up to 2**62."""
    n = draw(st.integers(1, 8))
    dtype, top = draw(st.sampled_from(((np.int16, 2**15), (np.int64, 2**62))))
    m = draw(st.integers(0, 3) | st.integers(0, top) | st.just(top))
    b = draw(st.integers(1, 6))
    entry = st.integers(-m, min(m, top - 1)) | st.just(-m)
    entries = draw(st.lists(entry, min_size=b * n * n, max_size=b * n * n))
    return np.array(entries, dtype=dtype).reshape(b, n, n)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(residue_batches())
def test_det_residues_are_the_det_modulo_2_16(mats):
    got = det_residues(mats)
    assert got.dtype == np.uint16 and got.shape == (mats.shape[0],)
    for i in range(mats.shape[0]):
        assert int(got[i]) == _det_rows(mats[i].tolist()) % 2**16, mats[i]


def test_det_residues_lane_boundaries_and_int16_extremes():
    rng = np.random.default_rng(403)
    mats = rng.integers(-32768, 32768, size=(8_193, 3, 3)).astype(np.int16)
    mats[::7, 0, 0] = -32768
    mats[-1, 2] = mats[-1, 0]  # a singular matrix in the last lane
    want = np.array([_det_rows(mat.tolist()) % 2**16 for mat in mats])
    assert np.array_equal(det_residues(mats), want)


def test_minor_plan_subsets_match_combinations():
    for n in range(1, 19):
        for r in range(n):
            cols, sub = linalg._minor_plan(n, r)
            subsets = list(combinations(range(n), r + 1))
            assert np.array_equal(cols, np.array(subsets, dtype=np.intp).T), (n, r)
            if n <= 12:  # each subset without its t-th column, by position
                pos = {c: i for i, c in enumerate(combinations(range(n), r))}
                want = [[pos[s[:t] + s[t + 1 :]] for s in subsets] for t in range(r + 1)]
                assert np.array_equal(sub, np.array(want)), (n, r)


def test_filter_prime_keeps_a_level_in_int64():
    assert P == 536_870_909 and all(P % d for d in range(2, isqrt(P) + 1))
    # is_mds expands min(k, n-k) rows with C(n, k) <= MINOR_BUDGET, so at most 9
    assert 18 * P * P < 2**63
    with pytest.raises(DimensionError):  # refused before any level is built
        maximal_minors(IntMatrix(33, 33, (1,) * 33 * 33))


def test_intmatrix_validation():
    with pytest.raises(DimensionError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([[1, 2], [3]])
