"""Reference computations the checker trusts, written without intmat.

Determinants use closed forms (n <= 4), or float64 LU whose near-zero
values are re-decided by plain Fraction elimination. MDS verdicts come from a batched determinant modulo a
prime below 2^31, with every zero residue confirmed exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
import math

import numpy as np

PRIME = 2_147_483_629  # a prime below 2^31: a product of two residues fits int64


def det_small(mats: np.ndarray) -> np.ndarray:
    """Exact int64 determinants of a (B, n, n) batch, n <= 4, small entries."""
    a = mats.astype(np.int64)
    n = a.shape[1]
    if n == 1:
        return a[:, 0, 0]
    if n == 2:
        return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    if n == 3:
        return (
            a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
            - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
            + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0])
        )
    if n == 4:
        # Laplace expansion along the top two rows (2x2 minor products)
        total = np.zeros(a.shape[0], dtype=np.int64)
        for cols in combinations(range(4), 2):
            rest = tuple(c for c in range(4) if c not in cols)
            top = a[:, 0, cols[0]] * a[:, 1, cols[1]] - a[:, 0, cols[1]] * a[:, 1, cols[0]]
            bot = a[:, 2, rest[0]] * a[:, 3, rest[1]] - a[:, 2, rest[1]] * a[:, 3, rest[0]]
            sign = -1 if (cols[0] + cols[1] + 1) % 2 else 1
            total += sign * top * bot
        return total
    raise ValueError("det_small handles n <= 4")


def singular_mask(mats: np.ndarray, max_abs: int) -> np.ndarray:
    """Boolean mask of singular matrices in a (B, n, n) integer batch."""
    n = mats.shape[1]
    if n <= 4:
        return det_small(mats) == 0
    # float64 LU decides clear cases; anything near zero is confirmed exactly
    hadamard = (max_abs * math.sqrt(n)) ** n
    d = np.linalg.det(mats.astype(np.float64))
    near = np.abs(d) < max(0.5, hadamard * 2.0**-30)
    mask = np.zeros(mats.shape[0], dtype=bool)
    for i in np.flatnonzero(near):
        mask[i] = fraction_det(mats[i].tolist()) == 0
    return mask


def exact_singular_fraction(n: int, m: int) -> Fraction:
    """Pr[det = 0] over all (2m+1)^(n^2) matrices, by chunked enumeration."""
    width = 2 * m + 1
    total = width ** (n * n)
    singular = 0
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((idx.size, n * n), dtype=np.int64)
        for e in range(n * n):
            idx, digits[:, e] = np.divmod(idx, width)
        singular += int(np.count_nonzero(det_small(digits.reshape(-1, n, n) - m) == 0))
    return Fraction(singular, total)


def fraction_det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in r] for r in rows]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def det_mod_batch(mats: np.ndarray, p: int = PRIME) -> np.ndarray:
    """Determinants modulo p of a (B, k, k) integer batch, vectorized."""
    a = np.mod(mats.astype(object), p).astype(np.int64)
    b, k, _ = a.shape
    det = np.ones(b, dtype=np.int64)
    lanes = np.arange(b)
    for c in range(k):
        nz = a[:, c:, c] != 0
        has = nz.any(axis=1)
        det[~has] = 0
        pick = c + np.argmax(nz, axis=1)
        swap = has & (pick != c)
        if swap.any():
            rows = a[lanes[swap], pick[swap], :].copy()
            a[lanes[swap], pick[swap], :] = a[lanes[swap], c, :]
            a[lanes[swap], c, :] = rows
            det[swap] = (p - det[swap]) % p
        piv = np.where(has, a[:, c, c], 1)
        det = det * piv % p
        inv = _pow_mod(piv, p - 2, p)
        factors = a[:, c + 1 :, c] * inv[:, None] % p
        a[:, c + 1 :, :] = (a[:, c + 1 :, :] - factors[:, :, None] * a[:, c, None, :] % p) % p
    return det


def _pow_mod(x: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(x)
    base = x % p
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def mds_verdict(rows) -> tuple[bool, tuple[int, ...] | None, int]:
    """(is_mds, lexicographically first singular column set, minors checked)."""
    k, n = len(rows), len(rows[0])
    cols = list(combinations(range(n), k))
    a = np.array(rows, dtype=object)
    minors = np.stack([a[:, list(c)] for c in cols])
    residues = det_mod_batch(minors)
    for i in np.flatnonzero(residues == 0):
        c = cols[int(i)]
        if fraction_det([[rows[r][j] for j in c] for r in range(k)]) == 0:
            return False, c, int(i) + 1
    return True, None, len(cols)


def rank_mod_p(rows: np.ndarray, p: int = PRIME) -> int:
    """Rank modulo p; equal to the rank over Q whenever it is full."""
    a = np.mod(np.asarray(rows, dtype=np.int64), p)
    rank = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        factors = a[rank + 1 :, c] * inv % p
        a[rank + 1 :] = (a[rank + 1 :] - factors[:, None] * a[rank] % p) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def vempala_pmf(mu: Fraction, m: int) -> dict[int, Fraction]:
    """Law of a sum of m sparse signs (0 w.p. 1-mu, +-1 w.p. mu/2 each)."""
    law = {0: Fraction(1)}
    for _ in range(m):
        nxt: dict[int, Fraction] = {}
        for v, p in law.items():
            for dv, dp in ((-1, mu / 2), (0, 1 - mu), (1, mu / 2)):
                nxt[v + dv] = nxt.get(v + dv, Fraction(0)) + p * dp
        law = nxt
    return {v: law[v] for v in sorted(law)}


def frac_round_half_up(y: Fraction) -> Fraction:
    """y - round(y) with ties rounded up, in [-1/2, 1/2)."""
    return y - math.floor(y + Fraction(1, 2))


def lcd_first_witness(x: list[Fraction], alpha: float, beta: float, d_max: float, step: float):
    """First grid index j (1-based) whose point j*step is an LCD witness, or None.

    Each grid point is decided in float64 and re-decided in exact rationals
    when the float residual lies within 1e-9 of the bound.
    """
    n = len(x)
    s = math.floor(Fraction(alpha) * n)
    steps = int(d_max / step + 1e-9)
    ds = np.array([j * step for j in range(1, steps + 1)])
    xf = np.array([float(v) for v in x])
    y = ds[:, None] * xf[None, :]
    frac = y - np.floor(y + 0.5)
    mags = np.sort(np.abs(frac), axis=1)[:, : n - s]
    resid = np.sqrt(np.sum(mags * mags, axis=1))
    bound = beta * np.minimum(ds, math.sqrt(n))
    for j in range(steps):
        if abs(resid[j] - bound[j]) <= 1e-9:
            if _exact_witness(x, Fraction(float(ds[j])), s, Fraction(beta)):
                return j + 1
        elif resid[j] <= bound[j]:
            return j + 1
    return None


def _exact_witness(x, d: Fraction, s: int, beta: Fraction) -> bool:
    fr = sorted((frac_round_half_up(d * v) ** 2 for v in x), reverse=True)
    resid2 = sum(fr[s:], Fraction(0))
    n = len(x)
    bound2 = beta * beta * (d * d if d * d <= n else n)
    return resid2 <= bound2


def lcd_support(x: list[Fraction], d: Fraction, s: int) -> tuple[tuple[int, ...], float]:
    """Top-s support (index tiebreak) and residual of {d*x} at one grid point."""
    fr = [frac_round_half_up(d * v) for v in x]
    order = sorted(range(len(fr)), key=lambda i: (-abs(fr[i]), i))
    resid2 = sum((fr[i] ** 2 for i in order[s:]), Fraction(0))
    return tuple(sorted(order[:s])), math.sqrt(resid2)


def sparse_residual_sq(x: list[Fraction], s: int) -> Fraction:
    """Squared l2 norm of x without its s largest-magnitude entries."""
    sq = sorted((v * v for v in x), reverse=True)
    return sum(sq[s:], Fraction(0))
