"""Exact integer/rational linear algebra: determinant, rank, kernel.

Everything here is exact. Determinants use fraction-free (Bareiss)
elimination on Python integers, so there is no rounding anywhere and no
rational blow-up during the forward pass. Rank and kernel bases come from
the same fraction-free echelon form, with a cheap rational back
substitution only at the end.

`det_batch` gives exact int64 determinants of a whole batch at once for the
Monte Carlo and enumeration hot paths: a division-free expansion over
column subsets for n <= 8, batch Bareiss above. Callers use it only when
`batch_det_fits_int64` holds, and fall back to the scalar big-integer
routine otherwise.

`maximal_minors` gives every k x k minor of one k x n matrix (the MDS
check) by the same expansion, one level of column subsets at a time, in
int64 when the expansion's bound allows and in Python integers otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, gcd, lcm

import numpy as np

from .errors import DimensionError

# Primes of the former mod-p nonsingularity prefilter. Nothing here uses
# them; `mds` keeps importing them, with `det_mod`, while the benchmark
# tracer (perfbench/tracing.py) still wraps `intmat.mds.det_mod`.
_FILTER_PRIMES = ((1 << 61) - 1, 10**18 + 9)

# Largest n that det_batch expands over column subsets. The expansion costs
# n * 2**(n-1) vector multiply-adds; batch Bareiss costs ~n**3/3 lane
# updates, but each of its n-1 steps also pays for a pivot search, row
# swaps, dead-lane bookkeeping and an int64 floor division. On a 2-vCPU
# Xeon the expansion takes 1.8 us per matrix at n = 8 against 4.2 us, and
# 9.6 us at n = 10 against 8.4 us. Its working set is also exponential:
# level k holds C(n, k) vectors, and at n = 8 the two widest levels hold
# 126 B-vectors, about twice the (64, B) input; at n = 10, 462 (4.6x).
_EXPANSION_MAX_N = 8


@dataclass(frozen=True)
class IntMatrix:
    """Dense row-major matrix of arbitrary-precision signed integers."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("matrix must have at least one row and one column")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise DimensionError("matrix must have at least one row and one column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        flat = tuple(int(v) for r in rows for v in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols][: self.rows]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_numpy(self) -> np.ndarray:
        """int64 view of the matrix; raises if any entry does not fit."""
        arr = np.array(self.to_lists(), dtype=object)
        out = arr.astype(np.int64)
        if not (out == arr).all():
            raise OverflowError("entries do not fit in int64")
        return out

    def submatrix_columns(self, cols) -> "IntMatrix":
        cols = list(cols)
        flat = tuple(self.at(i, j) for i in range(self.rows) for j in cols)
        return IntMatrix(self.rows, len(cols), flat)

    def max_abs(self) -> int:
        return max(abs(v) for v in self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


@dataclass(frozen=True)
class RationalVector:
    """Exact rational vector; Fraction keeps entries reduced."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.entries:
            raise DimensionError("empty vector")

    @classmethod
    def from_values(cls, values) -> "RationalVector":
        return cls(tuple(Fraction(v) for v in values))

    def __len__(self) -> int:
        return len(self.entries)

    def norm_squared(self) -> Fraction:
        return sum((e * e for e in self.entries), Fraction(0))


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    return _det_rows([list(m.row(i)) for i in range(m.rows)])


def _det_rows(a: list[list[int]]) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                # Bareiss two-term update; division by the previous pivot
                # is exact (entries stay k-minors of the input).
                row_i[j] = (piv * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def det_mod(m: IntMatrix, p: int) -> int:
    """Determinant modulo a prime, by ordinary elimination mod p."""
    if not m.is_square:
        raise DimensionError("determinant needs a square matrix")
    n = m.rows
    a = [[v % p for v in m.row(i)] for i in range(n)]
    d = 1
    for k in range(n):
        piv_row = next((i for i in range(k, n) if a[i][k]), None)
        if piv_row is None:
            return 0
        if piv_row != k:
            a[k], a[piv_row] = a[piv_row], a[k]
            d = -d % p
        piv = a[k][k]
        d = d * piv % p
        inv = pow(piv, p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return d


def is_singular(m: IntMatrix) -> bool:
    """True iff det(m) = 0, by the exact determinant (a mod-p residue, which
    could only prove nonsingularity, costs several times as much)."""
    return det(m) == 0


def _echelon(m: IntMatrix):
    """Fraction-free row echelon form.

    Returns (rows, pivots) where rows is the eliminated integer matrix and
    pivots is a list of (row, col) positions, first nonzero pivot in column
    order. Exact over the rationals: the echelon rows are integer
    left-multiples of the RREF rows.
    """
    a = [list(m.row(i)) for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    pivots: list[tuple[int, int]] = []
    prev = 1
    p = 0
    for col in range(ncols):
        piv_row = next((i for i in range(p, nrows) if a[i][col] != 0), None)
        if piv_row is None:
            continue
        if piv_row != p:
            a[p], a[piv_row] = a[piv_row], a[p]
        piv = a[p][col]
        for i in range(p + 1, nrows):
            aic = a[i][col]
            row_i = a[i]
            row_p = a[p]
            for j in range(col + 1, ncols):
                row_i[j] = (piv * row_i[j] - aic * row_p[j]) // prev
            row_i[col] = 0
        pivots.append((p, col))
        prev = piv
        p += 1
        if p == nrows:
            break
    return a, pivots


def rank(m: IntMatrix) -> int:
    """Exact rank over the rationals."""
    _, pivots = _echelon(m)
    return len(pivots)


def _normalize_kernel_vector(v: list[Fraction]) -> RationalVector:
    # integer-cleared, content-reduced, first nonzero coordinate positive
    denom = lcm(*(f.denominator for f in v)) if len(v) > 1 else v[0].denominator
    ints = [int(f * denom) for f in v]
    content = 0
    for x in ints:
        content = gcd(content, x)
    if content > 1:
        ints = [x // content for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return RationalVector(tuple(Fraction(x) for x in ints))


def kernel_basis(m: IntMatrix) -> list[RationalVector]:
    """Exact basis of the right kernel, ordered by free column index.

    Each basis vector is canonical: integer entries with content 1 and a
    positive leading coordinate. Empty list iff m has full column rank.
    """
    a, pivots = _echelon(m)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(m.cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        x = [Fraction(0)] * m.cols
        x[f] = Fraction(1)
        for r, c in reversed(pivots):
            s = sum((Fraction(a[r][j]) * x[j] for j in range(c + 1, m.cols) if x[j]), Fraction(0))
            x[c] = -s / a[r][c]
        basis.append(_normalize_kernel_vector(x))
    return basis


def matvec(m: IntMatrix, v: RationalVector) -> RationalVector:
    if m.cols != len(v):
        raise DimensionError("dimension mismatch in matrix-vector product")
    out = []
    for i in range(m.rows):
        row = m.row(i)
        out.append(sum((Fraction(row[j]) * v.entries[j] for j in range(m.cols)), Fraction(0)))
    return RationalVector(tuple(out))


def _expansion_fits_int64(n: int, max_abs: int) -> bool:
    """n * m * (m * sqrt(n-1))**(n-1) < 2**63 for m = max_abs, squared to stay
    in integers: the bound on every intermediate of the minor expansion up to
    n rows (see `det_batch`), which grows with n."""
    return (n * max_abs) ** 2 * (max_abs * max_abs * (n - 1)) ** (n - 1) < 1 << 126


def batch_det_fits_int64(n: int, max_abs: int) -> bool:
    """Whether `det_batch` is overflow-safe for n x n matrices, per branch.

    For n <= 8 (the minor expansion): n * m * (m * sqrt(n-1))**(n-1) < 2**63
    with m = max_abs, tested exactly in integers; the largest admitted m is
    77 at n = 8, 549 at n = 6 and 25,809 at n = 4. For n >= 9 (batch
    Bareiss): 2 * (m**2 * (n-1))**(n-1) < 2**63, twice the product of two
    Hadamard-bounded (n-1)-minors, which is what a Bareiss update forms.
    """
    if n <= _EXPANSION_MAX_N:
        return _expansion_fits_int64(n, max_abs)
    b = max_abs * max_abs * (n - 1)
    return 2 * b ** (n - 1) < (1 << 63)


@lru_cache(maxsize=64)
def _minor_plan(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Index plan for level r -> r+1 of the Laplace recurrence over n columns.

    Column i is the i-th (r+1)-subset S of range(n) in `combinations` order:
    cols[t, i] = S_t and sub[t, i] is the position of S without S_t among the
    r-subsets, so M[i] = sum_t (-1)**(r+t) * a[r, cols[t, i]] * M_prev[sub[t, i]].
    Both are read-only (r+1, C(n, r+1)) arrays, cached and shared.
    """
    count = comb(n, r + 1)
    flat = chain.from_iterable(combinations(range(n), r + 1))
    sets = np.fromiter(flat, dtype=np.intp, count=count * (r + 1)).reshape(count, r + 1)
    # The lexicographic rank of an r-subset c of range(n) is
    # C(n, r) - 1 - sum_j C(n-1-c_j, r-j). Dropping S_t leaves S_i at
    # position j = i for i < t and j = i - 1 for i > t.
    binom = np.array([[comb(x, y) for y in range(r + 2)] for x in range(n)], dtype=np.intp)
    cols = np.ascontiguousarray(sets.T)
    del sets
    sub = np.empty_like(cols)
    before = np.zeros(count, dtype=np.intp)
    after = sum(binom[n - 1 - cols[t], r + 1 - t] for t in range(r + 1))
    for t in range(r + 1):
        after -= binom[n - 1 - cols[t], r + 1 - t]  # S_t's weight at position t - 1
        sub[t] = comb(n, r) - 1 - before - after
        before += binom[n - 1 - cols[t], r - t]  # S_t's weight at position t
    cols.flags.writeable = sub.flags.writeable = False
    return cols, sub


def maximal_minors(m: IntMatrix) -> np.ndarray:
    """All k x k minors of a k x n matrix, in `itertools.combinations` order.

    Level r holds the minors of the first r rows on every r-subset of
    columns; level r+1 follows by Laplace expansion along row r
    (`_minor_plan`), vectorized over the level: about sum_r r * C(n, r)
    multiply-adds, with max_r C(n, r) minors held at once. int64 when the
    expansion bound proves every intermediate exact, else Python ints.
    """
    k, n = m.rows, m.cols
    if k > n:
        raise DimensionError(f"maximal minors need k <= n, got {k}x{n}")
    dtype = np.int64 if _expansion_fits_int64(k, m.max_abs()) else object
    a = np.array(m.to_lists(), dtype=dtype)
    minors = np.ones(1, dtype=dtype)
    for r in range(k):
        cols, sub = _minor_plan(n, r)
        row = -a[r] if r % 2 else a[r]  # folds (-1)**r into the row
        acc = row[cols[0]] * minors[sub[0]]
        for t in range(1, r + 1):
            term = row[cols[t]] * minors[sub[t]]
            if t % 2:
                acc -= term
            else:
                acc += term
        minors = acc
    return minors


def det_batch(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a batch of small integer matrices.

    mats is (B, n, n) integer-valued; the caller must ensure
    `batch_det_fits_int64(n, max|entry|)`.

    For n <= 8 this is a division-free expansion over column subsets: with
    M[S] the minor of the first k rows on the k columns S (one B-vector),
    the (k+1)-minors follow by Laplace expansion along row k,

        M[S] = sum_t (-1)**(k+t) * a[k, S_t] * M[S without S_t],

    n * 2**(n-1) vector multiply-adds in all, with no pivoting, no row
    swaps and no division. Every intermediate is a minor of the input or a
    partial Laplace sum, bounded by (k+1) * m * (m * sqrt(k))**k for entries
    |a| <= m. That grows with k, and `batch_det_fits_int64` keeps it below
    2**63 at k = n-1, so int64 never wraps. The subsets and their
    sub-subsets come from `_minor_plan`, shared with `maximal_minors`.

    Larger n runs batch Bareiss, whose cost grows as n**3 rather than 2**n.
    Row swaps and all-zero pivot columns (singular) are handled per
    matrix, vectorized over the batch.
    """
    b, n, n2 = mats.shape
    if n != n2:
        raise DimensionError("batch of square matrices required")
    if n <= _EXPANSION_MAX_N:
        a = np.array(mats.transpose(1, 2, 0), dtype=np.int64, order="C")
        minors = list(a[0])
        for k in range(1, n):
            row = -a[k] if k % 2 else a[k]  # folds (-1)**k into the row
            plan_cols, plan_sub = _minor_plan(n, k)
            level = []
            for cols, sub in zip(plan_cols.T.tolist(), plan_sub.T.tolist()):
                acc = row[cols[0]] * minors[sub[0]]
                for t in range(1, k + 1):
                    term = row[cols[t]] * minors[sub[t]]
                    if t % 2:
                        acc -= term
                    else:
                        acc += term
                level.append(acc)
            minors = level
        return minors[0]
    a = mats.astype(np.int64, copy=True)
    sign = np.ones(b, dtype=np.int64)
    dead = np.zeros(b, dtype=bool)
    prev = np.ones(b, dtype=np.int64)
    for k in range(n - 1):
        col = a[:, k:, k]
        nz = col != 0
        has_pivot = nz.any(axis=1)
        newly_dead = ~has_pivot & ~dead
        if newly_dead.any():
            dead |= newly_dead
            # park dead lanes on a unit pivot so later updates stay benign
            a[newly_dead, k, k] = 1
            a[newly_dead, k + 1 :, k] = 0
        pick = np.argmax(nz, axis=1)
        swap = has_pivot & (pick > 0) & ~dead
        idx = np.nonzero(swap)[0]
        if idx.size:
            src = k + pick[idx]
            tmp = a[idx, src, :].copy()
            a[idx, src, :] = a[idx, k, :]
            a[idx, k, :] = tmp
            sign[idx] = -sign[idx]
        piv = a[:, k, k].copy()
        piv[dead] = 1  # keep the divisor chain nonzero on dead lanes
        below = a[:, k + 1 :, k].copy()
        block = a[:, k + 1 :, k + 1 :]
        a[:, k + 1 :, k + 1 :] = (
            piv[:, None, None] * block - below[:, :, None] * a[:, k, k + 1 :][:, None, :]
        ) // prev[:, None, None]
        a[:, k + 1 :, k] = 0
        prev = piv
    return np.where(dead, 0, sign * a[:, n - 1, n - 1])
