"""Exact integer linear algebra: determinant and kernel.

Everything here is exact. The determinant and the kernel fallback share
one fraction-free (Bareiss) elimination on Python integers, `_echelon`, so
there is no rounding anywhere and no rational blow-up during the forward
pass.

`kernel_basis` returns integer tuples and has two exact paths. A (c-1) x c
matrix of rank c-1 (the normal vector of c-1 rows) is solved by p-adic
lifting modulo one prime; an exact integer check that the vector is a
kernel vector proves the result. Every other case, and any case that the
prime or the check rejects, back-substitutes on the fraction-free echelon
form in integers, scaling the partial solution instead of dividing.

The Monte Carlo hot path (n <= 8) starts with `det_residues`, a
division-free expansion over column subsets (`leading_minors`) in uint16
on the whole batch it is given, which the caller bounds (a Monte Carlo
shard); `det_batch` runs it in uint64, and exact enumeration stops it one
level early for the maximal minors of (n-1) x n row stacks. Unsigned
wraparound keeps every determinant exact modulo 2**w for entries of any
size, so a nonzero residue proves the matrix nonsingular, and a zero
residue proves it singular when Hadamard's bound (m * sqrt(n))**n for
entries |a| <= m is below 2**w (`hadamard_below`). Otherwise only the zero
residues, the singular matrices and a few in 10**5 others, go on. They,
and every batch past n = 8, go through `nonsingular_mod_p`, elimination
modulo one prime that can only prove a matrix nonsingular; the caller
confirms the rest with the scalar big-integer routine. No Monte Carlo path
calls `det_batch`.

`maximal_minors` gives every k x k minor of one k x n matrix modulo the
prime _FILTER_PRIME (the MDS check) by the same expansion, one level of
column subsets at a time, in int64. A nonzero residue proves a minor
nonzero; a zero residue proves nothing, and the caller confirms it with the
exact `det`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, isqrt, prod
from operator import mul

import numpy as np

from .errors import DimensionError

# The prime of both filters, `maximal_minors` (MDS) and `nonsingular_mod_p`,
# 2**29 - 3. A level of the expansion sums at most k products of two
# residues, each below p**2 < 2**58, so k * p**2 < 2**63 for every k up to 32
# (`maximal_minors` checks it), and `is_mds` expands at most
# min(k, n-k) <= 9 rows; an elimination step forms piv * x - a * y from
# residues, within +-p**2: int64 never wraps.
_FILTER_PRIME = (1 << 29) - 3

# Largest n that Monte Carlo sends through the residue pass before
# `nonsingular_mod_p`.
# The expansion costs n * 2**(n-1) vector multiply-adds and the filter
# ~n**3/3 vector updates plus a remainder each. On a 2-vCPU Xeon, per matrix
# of entries in [-3, 3] in batches of 8,192 (a 2**19-entry shard holds
# 8,192 at n = 8 and 6,472 at n = 9), the uint16 expansion
# (`det_residues`) takes 0.4-0.6 us at n = 8, 1.1-1.3 at n = 9 and 2.5-2.8
# at n = 10, for entries of any size, against the filter's 3.5, 4.6 and
# 6.2 us.
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

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix_columns(self, cols) -> "IntMatrix":
        cols = list(cols)
        flat = tuple(self.at(i, j) for i in range(self.rows) for j in cols)
        return IntMatrix(self.rows, len(cols), flat)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    return _det_rows(m.to_lists())


def _det_rows(a: list[list[int]]) -> int:
    """det of square integer rows, in place: `_echelon`'s signed last entry."""
    sign, _ = _echelon(a)
    return sign * a[-1][-1]


def det_mod(m: IntMatrix, p: int) -> int:
    """Determinant modulo p."""
    return det(m) % p


def _echelon(a: list[list[int]]) -> tuple[int, list[tuple[int, int]]]:
    """Bareiss's fraction-free elimination (Math. Comp. 22, 1968) of integer
    rows a, in place, to row echelon form: the one loop behind `det` and the
    `kernel_basis` fallback. Returns (sign, pivots): sign is
    (-1)**(row swaps), pivots the (row, col) pivot positions in column
    order. Each update divides by the previous pivot exactly, so every entry
    stays a minor of a; rows past the rank end up zero, and the last entry of
    a square a ends up det(a) * sign."""
    nrows, ncols = len(a), len(a[0])
    pivots: list[tuple[int, int]] = []
    sign, prev, p = 1, 1, 0
    for col in range(ncols):
        if a[p][col] == 0:
            for i in range(p + 1, nrows):
                if a[i][col] != 0:
                    a[p], a[i] = a[i], a[p]
                    sign = -sign
                    break
            else:
                continue
        piv = a[p][col]
        row_p = a[p]
        for i in range(p + 1, nrows):
            row_i = a[i]
            aic = row_i[col]
            for j in range(col + 1, ncols):
                row_i[j] = (piv * row_i[j] - aic * row_p[j]) // prev
            row_i[col] = 0
        pivots.append((p, col))
        prev = piv
        p += 1
        if p == nrows:
            break
    return sign, pivots


def _canonical(x: list[int]) -> tuple[int, ...]:
    """x divided by its content, first nonzero coordinate made positive."""
    content = gcd(*x)
    if x[next(i for i, v in enumerate(x) if v)] < 0:
        content = -content
    return tuple(v // content for v in x)


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Exact basis of the right kernel, ordered by free column index.

    Each basis vector is a canonical integer tuple: content 1 and a
    positive leading coordinate. Empty list iff m has full column rank.
    A (c-1) x c matrix of rank c-1 modulo _LIFT_PRIME takes p-adic lifting
    (`_lifted_kernel`); every other case, and any case that path cannot
    certify, takes the fraction-free back substitution below.
    """
    if m.cols == m.rows + 1:
        x = _lifted_kernel(m)
        if x is not None:
            return [_canonical(x)]
    a = m.to_lists()
    _, pivots = _echelon(a)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(m.cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        x = [0] * m.cols
        x[f] = 1
        for r, c in reversed(pivots):
            row, piv = a[r], a[r][c]
            s = sum(row[j] * x[j] for j in range(c + 1, m.cols) if x[j])
            if s % piv:
                # scale the partial solution so that piv divides s
                scale = abs(piv) // gcd(s, piv)
                x = [v * scale for v in x]
                s *= scale
            x[c] = -s // piv
        basis.append(_canonical(x))
    return basis


# The prime of `_lifted_kernel`, the largest below 2**25: a lazily reduced
# Gauss-Jordan entry (a residue minus at most r products of two residues)
# and a lifting product C @ (res mod p) stay within r * p**2 < 2**63 for
# every r up to 8,192.
_LIFT_PRIME = 33554393


def _lifted_kernel(m: IntMatrix) -> list[int] | None:
    """An integer kernel vector of a (c-1) x c matrix of rank c-1, by
    Dixon's p-adic lifting (Numer. Math. 40, 1982) modulo one prime p.

    One Gauss-Jordan pass on [m | I] modulo p finds the pivot columns B and
    the free column b and leaves C = B^-1 mod p in the right half; each step
    reduces only its pivot column and row. B y = -b is then lifted one
    digit z = C @ (res mod p) mod p at a time, res <- (res - B @ z) / p,
    until p**K exceeds 2 * H**2, H the Hadamard bound (the product of the
    row norms), which bounds det B and every numerator of y. Rational
    reconstruction with a running common denominator d gives x = (d*y, d).
    B @ z runs in int64 while |m| * r * p < 2**62, else in Python integers.
    None when the rank modulo p is below c-1 (about 1 in p of random
    inputs; always when p divides every entry), or when reconstruction or
    the exact check m x = 0 fails. A returned x proves itself: rank c-1
    modulo p gives rank c-1 over Q, and m x = 0 with x_free = d != 0.
    """
    r, c = m.rows, m.cols
    p = _LIFT_PRIME
    if r * p * p >= 1 << 63:
        return None
    rows = [m.row(i) for i in range(r)]
    try:
        a = np.array(rows, dtype=np.int64)
        top = max(int(a.max()), -int(a.min()))
    except OverflowError:
        a, top = np.array(rows, dtype=object), None
    # [m | I] stored transposed: a step's update is then one contiguous block
    g = np.empty((c + r, r), dtype=np.int64)
    g[:c] = a.T % p
    g[c:] = np.eye(r, dtype=np.int64)
    pivot_cols = []
    for col in range(c):
        k = len(pivot_cols)
        if k == r:
            break
        f = g[col] % p
        if not f[k]:
            nz = np.flatnonzero(f[k:])
            if not nz.size:
                continue
            g[:, [k, k + nz[0]]] = g[:, [k + nz[0], k]]
            f[[k, k + nz[0]]] = f[[k + nz[0], k]]
        pivot_row = g[col + 1 :, k] % p * pow(int(f[k]), -1, p) % p
        f[k] = 0
        g[col + 1 :] -= pivot_row[:, None] * f
        g[col + 1 :, k] = pivot_row
        pivot_cols.append(col)
    if len(pivot_cols) < r:
        return None
    free = next(j for j in range(c) if j not in pivot_cols)
    inv = g[c:].T % p
    # int64 while |B @ z| < r * |m| * p < 2**62, so res - B @ z fits too
    dtype = np.int64 if top is not None and top * r * p < 1 << 62 else object
    basis = a[:, pivot_cols].astype(dtype)
    res = -a[:, free].astype(dtype)
    hadamard_sq = prod(sum(map(mul, row, row)) for row in rows)
    y, modulus = 0, 1
    while modulus <= 2 * hadamard_sq:
        z = inv @ (res % p).astype(np.int64) % p
        res = (res - basis @ z.astype(dtype)) // p
        y = y + z.astype(object) * modulus
        modulus *= p
    # d * y_j = n / d' by rational reconstruction; d' = 1 once d clears y_j
    bound = isqrt(hadamard_sq)
    x, d = [0] * c, 1
    for j, u in zip(pivot_cols, y.tolist()):
        frac = _rational_reconstruction(d * u, modulus, bound)
        if frac is None:
            return None
        n, den = frac
        if den > 1:
            d *= den
            x = [v * den for v in x]
        x[j] = n
    x[free] = d
    if any(sum(map(mul, row, x)) for row in rows):
        return None
    return x


def _rational_reconstruction(u: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with n = d * u modulo `modulus`, |n| <= bound and 0 < d <= bound,
    by the half extended Euclidean algorithm, or None; unique when
    2 * bound**2 < modulus."""
    r0, r1, t0, t1 = modulus, u % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def hadamard_below(n: int, top: int, bits: int) -> bool:
    """Whether every n x n integer matrix with entries |a| <= top has
    |det| < 2**bits, by Hadamard's inequality |det| <= (top * sqrt(n))**n,
    squared to stay in integers. Tight at n = 1, 2, 4 and 8, where top times
    a Sylvester-Hadamard matrix attains the bound."""
    return (top * top * n) ** n < 1 << (2 * bits)


@lru_cache(maxsize=64)
def _minor_plan(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Index plan for level r -> r+1 of the Laplace recurrence over n columns.

    Column i is the i-th (r+1)-subset S of range(n) in `combinations` order:
    cols[t, i] = S_t and sub[t, i] is the position of S without S_t among the
    r-subsets, so M[i] = sum_t (-1)**(r+t) * a[r, cols[t, i]] * M_prev[sub[t, i]].
    Both are read-only (r+1, C(n, r+1)) arrays, cached and shared.
    """
    count = comb(n, r + 1)
    cols = np.empty((r + 1, count), dtype=np.intp)
    sub = np.empty_like(cols)
    if r == 0:
        cols[0] = np.arange(n)
        sub[0] = 0
    else:
        # Each r-subset g, in order, followed by every larger column c in
        # turn: the (r+1)-subsets in lexicographic order, g + {c} at position
        # off[g] + c. Dropping c leaves g; dropping S_t for t < r leaves the
        # (r-1)-subset q = g without S_t, followed by c, at prev_off[q] + c.
        prev_cols, prev_sub = _minor_plan(n, r - 1)
        last = prev_cols[-1]
        reps = n - 1 - last
        off = np.cumsum(reps) - reps - last - 1
        g = np.repeat(np.arange(last.size), reps)
        cols[:r] = np.take(prev_cols, g, axis=1)
        cols[r] = np.arange(count) - off[g]
        prev_off = np.empty(comb(n, r - 1), dtype=np.intp)
        prev_off[prev_sub[-1]] = np.arange(last.size) - last
        sub[:r] = prev_off[np.take(prev_sub, g, axis=1)] + cols[r]
        sub[r] = g
    cols.flags.writeable = sub.flags.writeable = False
    return cols, sub


def maximal_minors(m: IntMatrix) -> np.ndarray:
    """All k x k minors of a k x n matrix modulo _FILTER_PRIME, in
    `itertools.combinations` order, as int64 residues in [0, p).

    Level r holds the minors of the first r rows on every r-subset of
    columns; level r+1 follows by Laplace expansion along row r
    (`_minor_plan`), vectorized over the level: about sum_r r * C(n, r)
    multiply-adds, with max_r C(n, r) minors held at once. The entries are
    reduced modulo p first and every level once, so a level sums at most k
    products below p**2, whatever the size of the entries. A residue is
    zero when the minor is, and for about 1 in p nonzero minors.
    """
    k, n = m.rows, m.cols
    if k > n:
        raise DimensionError(f"maximal minors need k <= n, got {k}x{n}")
    p = _FILTER_PRIME
    if k * p * p >= 1 << 63:
        raise DimensionError(f"a level of {k} residue products would overflow int64")
    a = np.array([[v % p for v in m.row(i)] for i in range(k)], dtype=np.int64)
    minors = np.ones(1, dtype=np.int64)
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
        minors = acc % p
    return minors


def leading_minors(a: np.ndarray, k: int) -> list[np.ndarray]:
    """Minors of the first k rows of a batch on every k-subset of columns.

    a is (rows, n, B), the batch with its matrix index last; the result
    holds C(n, k) B-vectors in `combinations` order of the column subsets.
    With M[S] the minor of the first r rows on the r columns S, the
    (r+1)-minors follow by Laplace expansion along row r,

        M[S] = sum_t (-1)**(r+t) * a[r, S_t] * M[S without S_t],

    with no pivoting, no row swaps and no division; the subsets and their
    sub-subsets come from `_minor_plan`. Every operation is a ring
    operation, so in an unsigned dtype of w bits each minor comes out exact
    modulo 2**w, whatever the intermediates were; it is the minor itself,
    read as signed, when Hadamard's bound on it is below 2**(w-1).
    """
    minors = list(a[0])
    for r in range(1, k):
        row = -a[r] if r % 2 else a[r]  # folds (-1)**r into the row
        plan_cols, plan_sub = _minor_plan(a.shape[1], r)
        level = []
        for cols, sub in zip(plan_cols.T.tolist(), plan_sub.T.tolist()):
            acc = row[cols[0]] * minors[sub[0]]
            for t in range(1, r + 1):
                term = row[cols[t]] * minors[sub[t]]
                if t % 2:
                    acc -= term
                else:
                    acc += term
            level.append(acc)
        minors = level
    return minors


def _wrapped_dets(mats: np.ndarray, dtype) -> np.ndarray:
    """det of each matrix of a (B, n, n) integer batch modulo 2**w, in the
    unsigned dtype of w bits, by `leading_minors` on the whole batch. One
    astype reduces int16 and int64 entries alike modulo 2**w into a
    C-ordered (n, n, B) copy, which reads whole rows of a Monte Carlo shard,
    a `.transpose(2, 0, 1)` view of (n, n, B) storage. The caller bounds B:
    a 2**19-entry shard's widest uint16 level is 1.1 MiB at n = 8, and less
    at every smaller n."""
    _, n, n2 = mats.shape
    if n != n2:
        raise DimensionError("batch of square matrices required")
    return leading_minors(mats.transpose(1, 2, 0).astype(dtype, order="C"), n)[0]


def det_batch(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a (B, n, n) integer batch, as int64.

    The expansion of `leading_minors` in uint64 gives det modulo
    2**64; read as int64 it is the determinant when Hadamard's bound is
    below 2**63, so the caller must ensure `hadamard_below(n,
    max|entry|, 63)`. n * 2**(n-1) vector multiply-adds in all.
    """
    return _wrapped_dets(mats, np.uint64).view(np.int64)


def det_residues(mats: np.ndarray) -> np.ndarray:
    """det of each matrix of a (B, n, n) integer batch modulo 2**16, as uint16.

    The expansion of `det_batch` in uint16, exact modulo 2**16 for
    entries of any size. A nonzero residue proves the matrix nonsingular;
    when `hadamard_below(n, max|entry|, 16)` holds, a zero residue proves it
    singular.
    """
    return _wrapped_dets(mats, np.uint16)


def nonsingular_mod_p(mats: np.ndarray) -> np.ndarray:
    """True where det ≢ 0 (mod _FILTER_PRIME), which proves the matrix
    nonsingular; False for every singular matrix and about 1 in p others.

    mats is a (B, n, n) integer batch with entries in int64. The whole batch
    is reduced modulo p once, in one int64 (n, n, B) copy, and eliminated
    without division: a zero pivot takes the first lower row with a nonzero
    entry in its column added to it (det unchanged), and each step k
    replaces every lower row_i by piv * row_i - a_ik * row_k, reduced once
    (det times a power of piv). det is then nonzero modulo p iff every pivot
    is. The caller bounds B: the copy of a Monte Carlo shard is 4 MiB, or
    one trial of at most 2**20 entries.
    """
    _, n, n2 = mats.shape
    if n != n2:
        raise DimensionError("batch of square matrices required")
    p = _FILTER_PRIME
    # int64 before the remainder: an int16 batch cannot hold p
    a = np.array(mats.transpose(1, 2, 0), dtype=np.int64, order="C") % p
    for k in range(n - 1):
        zero = np.flatnonzero(a[k, k] == 0)
        if zero.size:
            below = k + 1 + np.argmax(a[k + 1 :, k, zero] != 0, axis=0)
            a[k, k:, zero] = (a[k, k:, zero] + a[below, k:, zero]) % p
        block = a[k + 1 :, k + 1 :]
        block *= a[k, k]
        block -= a[k + 1 :, k, None] * a[k, None, k + 1 :]
        block %= p
    return a.diagonal().all(axis=1)
