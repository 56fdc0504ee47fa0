"""Singularity-probability experiments: Monte Carlo, exact enumeration,
analytic bounds, and the exponent fit for the m**(-c*n) scaling law."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count
from math import isqrt
from operator import mul
from statistics import NormalDist
from threading import Event

import numpy as np

from .errors import BudgetExceededError, DomainError, FitError
from .linalg import (
    _EXPANSION_MAX_N,
    det_residues,
    hadamard_below,
    leading_minors,
    nonsingular_mod_p,
    _det_rows,
)
# Uncalled: perfbench/tracing.py wraps intmat.singularity.det_batch, so the
# name stays until the tracer reads run statistics instead of private names.
from .linalg import det_batch  # noqa: F401
from .sampling import EntryDistribution, Seed, generator

SHARD_ENTRIES = 1 << 19  # per Monte Carlo shard: one draw, decided as one batch
# Most trials and worker threads in one `map_shards` call.
MAX_TRIALS = 1 << 31
MAX_THREADS = 256
DEFAULT_ENUM_BUDGET = 10**8
_ENUM_CHUNK = 1 << 16  # row stacks per chunk of exact_singular_fraction
_HITS_ENTRIES = 1 << 20  # entries of c' . r' per step of the last-row count (one key at least)
_TALLY_WORDS = 1 << 18  # chunk-tally words buffered before a fold (or the running tally's, if more)


def wilson_interval(hits: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval; valid even for hit counts near 0 or trials."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not 0 <= hits <= trials:
        raise DomainError("hits must lie in [0, trials]")
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    p = hits / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * ((p * (1 - p) / trials + z * z / (4 * trials * trials)) ** 0.5)
    # the boundary endpoints are exact; don't let rounding dust leak in
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class EstimateReport:
    """One Monte Carlo run: counts, point estimate and 95% Wilson interval."""

    trials: int
    hits: int
    estimate: float
    ci_low: float
    ci_high: float
    n: int
    m: int | None
    elapsed: float

    def __post_init__(self):
        if self.hits > self.trials:
            raise DomainError("hits cannot exceed trials")

    def estimate_fraction(self) -> Fraction:
        return Fraction(self.hits, self.trials)

    @classmethod
    def from_counts(cls, trials, hits, n, m, elapsed) -> "EstimateReport":
        lo, hi = wilson_interval(hits, trials)
        if hits == 0:
            # rule of three: one-sided 95% upper bound when nothing was seen
            hi = min(1.0, 3.0 / trials)
        return cls(trials, hits, hits / trials, lo, hi, n, m, elapsed)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log p = -c * n * log m + b."""

    points: tuple[tuple[int, int, float], ...]
    c_hat: float
    intercept: float
    residual: float


def map_shards(count_shard, trials: int, entries: int, threads: int) -> int:
    """The sum of count_shard(i, size) over the shards i of `trials` trials
    of `entries` entries each.

    Shards hold max(1, SHARD_ENTRIES // entries) trials each (the last one
    the rest). Up to `threads` workers take shard indices from one shared
    counter until none is left, or until a shard raises, which the call
    then raises; the counts are exact integers, so the sum does not depend
    on the thread count. Raises DomainError before any work for more than
    MAX_TRIALS trials or MAX_THREADS threads.
    """
    if threads < 1:
        raise DomainError("threads must be >= 1")
    if threads > MAX_THREADS:
        raise DomainError(f"threads must be <= {MAX_THREADS}")
    if trials > MAX_TRIALS:
        raise DomainError(f"trials must be <= {MAX_TRIALS}")
    per = max(1, SHARD_ENTRIES // entries)
    order, stop = count(), Event()

    def drain() -> int:
        total = 0
        while not stop.is_set() and (start := next(order) * per) < trials:
            total += count_shard(start // per, min(per, trials - start))
        return total

    workers = min(threads, -(-trials // per))
    if workers <= 1:
        return drain()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(drain) for _ in range(workers)]
        try:
            return sum(f.result() for f in as_completed(futures))
        finally:
            stop.set()  # after a failed shard or an interrupt, no worker starts another


def _count_singular(mats: np.ndarray) -> int:
    """Number of singular matrices in a (B, n, n) batch.

    For n <= _EXPANSION_MAX_N, `det_residues` runs first, and a nonzero
    residue proves a matrix nonsingular. When `hadamard_below(n, top, 16)`
    holds for the batch's largest |entry| top, every |det| < 2**16, so a
    zero residue is a zero determinant and the zeros are the answer.
    Otherwise only the zero residues (the singular matrices and about 1 in
    2.5 * 10**4 others on uniform draws) go on. They, and every batch past
    n = 8, take `nonsingular_mod_p`, which proves all but about 1 in 2**29
    of the nonsingular ones, and the exact big-integer `_det_rows` decides
    the rest.
    """
    n = mats.shape[1]
    if n <= _EXPANSION_MAX_N:
        zero = det_residues(mats) == 0
        if hadamard_below(n, max(int(mats.max()), -int(mats.min())), 16):
            return int(np.count_nonzero(zero))
        mats = mats[zero]
    return sum(_det_rows(mat.tolist()) == 0 for mat in mats[~nonsingular_mod_p(mats)])


def _singular_count(n: int, dist: EntryDistribution, seed: Seed, shard: int, size: int) -> int:
    # one draw, stored lanes-last: entry (i, j) of trial t is draw (i * n + j) * size + t
    draw = dist.sample_array(generator(seed, shard=shard), n * n * size)
    return _count_singular(draw.reshape(n, n, size).transpose(2, 0, 1))


def mc_singularity(
    n: int,
    dist: EntryDistribution,
    trials: int,
    seed: Seed,
    threads: int = 1,
) -> EstimateReport:
    """Monte Carlo estimate of Pr[M singular] for M with i.i.d. entries.

    Every trial uses an exact singularity test. Trials are split into
    `map_shards` shards of about SHARD_ENTRIES entries, each drawn from its
    own counter offset, so the report is identical for any thread count.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if n < 1:
        raise DomainError("n must be >= 1")
    start = time.perf_counter()
    hits = map_shards(partial(_singular_count, n, dist, seed), trials, n * n, threads)
    elapsed = time.perf_counter() - start
    m = dist.m if dist.kind == "uniform_symmetric" else None
    return EstimateReport.from_counts(trials, hits, n, m, elapsed)


def _cube(start: int, stop: int, m: int, length: int) -> np.ndarray:
    """Points start..stop-1 of {-m, ..., m}**length as a (length, stop-start)
    uint64 array, one row per coordinate (negative coordinates modulo
    2**64), in row-major odometer order (last coordinate fastest)."""
    idx = np.arange(start, stop, dtype=np.uint64)
    width = np.uint64(2 * m + 1)
    digits = np.empty((length, stop - start), dtype=np.uint64)
    for e in range(length - 1, -1, -1):
        quotient = idx // width
        np.subtract(idx, quotient * width, out=digits[e])
        idx = quotient
    digits -= np.uint64(m)
    return digits


def exact_singular_fraction(n: int, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> Fraction:
    """Exact Pr[M singular] over all (2m+1)**(n*n) matrices, by span counting.

    det M = c . r for the last row r, where c holds the n signed maximal
    minors of the first n-1 rows. Only those (2m+1)**(n*(n-1)) row stacks
    are enumerated, in chunks of `_cube`'s uint64 odometer; their minors
    come from `leading_minors`. The alphabet is symmetric and r ranges over
    the whole cube, so the number of r with c . r = 0 depends only on
    sorted |c|, the key each stack is tallied by. Hadamard's bound puts
    every |minor| below B = isqrt((m*m*(n-1))**(n-1)) + 1, so a key packs
    into one uint64 as sum c_i * B**i (B**n < 2**64 in the whole admitted
    range). Each chunk is tallied by `np.unique`, and the chunk tallies fold
    into a running one with exact integer sums once their words outnumber
    both _TALLY_WORDS and the running tally's, so memory grows with the
    distinct keys, not with the stacks. Each distinct key is then counted once: with
    c_n = max |c_i| > 0, the first n-1 coordinates r' of r fix
    r_n = -s / c_n for s = c' . r', a coordinate in {-m..m} exactly when
    c_n divides s and |s| <= m * c_n, so only (2m+1)**(n-1) r' are tried.
    The key c = 0 counts every r. The budget counts all (2m+1)**(n*n)
    matrices; n = 1 and m = 0 are closed forms.

    Raises BudgetExceededError before the budget check, with `required`
    None, when the row stacks reach 2**64, the odometer's range and too many
    ever to finish, so no budget would do. For m >= 1 that admits only
    n <= 6, with m up to 2**31 - 1, 812, 19, 4 and 1 for n = 2..6. There
    Hadamard's bound on an n x n or (n-1) x (n-1) determinant of entries in
    +-m is below 2**63, so every minor read as int64 is exact, and so is s:
    |s| <= m * sum |c_i|, which is c . r for a last row r.
    """
    if n < 1 or m < 0:
        raise DomainError("need n >= 1 and m >= 0")
    width = 2 * m + 1
    length = n * (n - 1)  # entries of a row stack
    # 2m+1 > 2**m.bit_length() for m >= 1: the first test decides the large
    # cases without forming the power
    if length * m.bit_length() >= 64 or width**length >= 1 << 64:
        raise BudgetExceededError(
            f"n = {n}, m = {m} has at least 2**64 row stacks, past exact"
            f" enumeration's uint64 odometer and too many ever to finish",
            required=None,
            budget=budget,
        )
    total = width ** (n * n)
    if total > budget:
        raise BudgetExceededError(
            f"enumeration of ({width})**{n * n} = {total} matrices exceeds budget {budget};"
            f" rerun with budget >= {total}",
            required=total,
            budget=budget,
        )
    if n == 1 or m == 0:
        return Fraction(1, width) if n == 1 else Fraction(1)
    stacks = width**length
    base = isqrt((m * m * (n - 1)) ** (n - 1)) + 1  # above every |minor|
    powers = np.uint64(base) ** np.arange(n, dtype=np.uint64)
    tally, pending, size = (np.empty(0, np.uint64), np.empty(0, np.int64)), [], 0
    for start in range(0, stacks, _ENUM_CHUNK):
        a = _cube(start, min(start + _ENUM_CHUNK, stacks), m, length).reshape(n - 1, n, -1)
        c = [np.abs(x.view(np.int64)) for x in leading_minors(a, n - 1)]
        for r in range(n):  # odd-even transposition sort: c becomes sorted |c|
            for i in range(r % 2, n - 1, 2):
                c[i], c[i + 1] = np.minimum(c[i], c[i + 1]), np.maximum(c[i], c[i + 1])
        words = sum(x.view(np.uint64) * p for x, p in zip(c, powers))
        pending.append(np.unique(words, return_counts=True))
        size += pending[-1][0].size
        if size > max(_TALLY_WORDS, tally[0].size) or start + _ENUM_CHUNK >= stacks:
            words, counts = map(np.concatenate, zip(tally, *pending))
            words, inverse = np.unique(words, return_inverse=True)
            tally, pending, size = (words, np.zeros(words.size, np.int64)), [], 0
            np.add.at(tally[1], inverse, counts)  # exact integer sums of the chunk tallies
    words, reps = tally
    keys = (words[:, None] // powers % np.uint64(base)).view(np.int64)
    # c . r = 0 fixes r_n = -s / c_n for s = c' . r' when c_n = max |c_i| > 0;
    # the r' in {-m..m}**(n-1) with c_n | s and |s| <= m * c_n each admit one
    rest = _cube(0, width ** (n - 1), m, n - 1).view(np.int64)
    step = max(1, _HITS_ENTRIES // rest.shape[1])
    singular = 0
    for i in range(0, len(keys), step):
        top = keys[i : i + step, -1:]
        s = keys[i : i + step, :-1] @ rest
        hits = np.count_nonzero((s % np.maximum(top, 1) == 0) & (np.abs(s) <= m * top), axis=1)
        hits[top[:, 0] == 0] *= width  # c = 0: every last row counts
        singular += sum(map(mul, reps[i : i + step].tolist(), hits.tolist()))
    return Fraction(singular, total)


def lower_bound(n: int, m: int) -> Fraction:
    """(2m+1)**(-n): the chance that the first two rows coincide."""
    if n < 2:
        raise DomainError("the two-equal-rows event needs n >= 2")
    if m < 0:
        raise DomainError("m must be >= 0")
    return Fraction(1, (2 * m + 1) ** n)


def schwartz_zippel_bound(n: int, m: int) -> Fraction:
    """min(1, n/m): the degree-n polynomial identity-testing bound."""
    if m < 1:
        raise DomainError("m must be >= 1")
    return min(Fraction(1), Fraction(n, m))


def fit_exponent(points) -> ExponentFit:
    """Fit c in log p = -c * n * log m + b over (n, m, p) triples.

    Only points with p > 0 enter the regression; at least three are
    required, and every point must have m >= 2 (log m > 0).
    """
    pts = [(int(n), int(m), float(p)) for n, m, p in points]
    if any(m < 2 for _, m, _ in pts):
        raise FitError("all points need m >= 2")
    usable = [(n, m, p) for n, m, p in pts if p > 0]
    if len(usable) < 3:
        raise FitError(f"need >= 3 points with positive probability, got {len(usable)}")
    x = np.array([n * np.log(m) for n, m, _ in usable])
    y = np.array([np.log(p) for _, _, p in usable])
    a = np.column_stack([-x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    c_hat, intercept = float(coef[0]), float(coef[1])
    resid = y - a @ coef
    residual = float(np.sqrt(np.mean(resid**2)))
    return ExponentFit(tuple(pts), c_hat, intercept, residual)
