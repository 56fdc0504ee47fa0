"""Singularity-probability experiments: Monte Carlo, exact enumeration,
analytic bounds, and the exponent fit for the m**(-c*n) scaling law."""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul
from statistics import NormalDist

import numpy as np

from .errors import BudgetExceededError, DomainError, FitError
from .linalg import (
    _EXPANSION_MAX_N,
    batch_det_fits_int64,
    det_residues,
    leading_minors,
    nonsingular_mod_p,
    _det_rows,
    _expansion_fits,
)
# Uncalled: perfbench/tracing.py wraps intmat.singularity.det_batch, so the
# name stays until the tracer reads run statistics instead of private names.
from .linalg import det_batch  # noqa: F401
from .sampling import EntryDistribution, Seed, generator, sample_batches

SHARD_TRIALS = 1 << 15
# Most shards in one `map_shards` call, 2**31 trials: the pool creates one
# Future per shard up front, about 100 MiB for 2**16 of them.
MAX_SHARDS = 1 << 16
# Most worker threads in one `map_shards` call.
MAX_THREADS = 256
DEFAULT_ENUM_BUDGET = 10**8
_ENUM_CHUNK = 1 << 16  # row stacks per chunk of exact_singular_fraction
_HITS_ENTRIES = 1 << 20  # key-by-last-row product entries per step (one key at least)


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
    seed: Seed
    n: int
    m: int | None
    elapsed: float

    def __post_init__(self):
        if self.hits > self.trials:
            raise DomainError("hits cannot exceed trials")

    def estimate_fraction(self) -> Fraction:
        return Fraction(self.hits, self.trials)

    @classmethod
    def from_counts(cls, trials, hits, seed, n, m, elapsed) -> "EstimateReport":
        lo, hi = wilson_interval(hits, trials)
        if hits == 0:
            # rule of three: one-sided 95% upper bound when nothing was seen
            hi = min(1.0, 3.0 / trials)
        return cls(trials, hits, hits / trials, lo, hi, seed, n, m, elapsed)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log p = -c * n * log m + b."""

    points: tuple[tuple[int, int, float], ...]
    c_hat: float
    intercept: float
    residual: float


def map_shards(count_shard, trials: int, threads: int) -> int:
    """The sum of count_shard(i, size) over the shards i of `trials`, in
    shard order.

    Shards hold SHARD_TRIALS trials each (the last one the rest). With more
    than one thread they run on a pool of at most `threads` workers; the
    result does not depend on the thread count. Raises DomainError before
    any work for more than MAX_THREADS threads or MAX_SHARDS shards.
    """
    if threads < 1:
        raise DomainError("threads must be >= 1")
    if threads > MAX_THREADS:
        raise DomainError(f"threads must be <= {MAX_THREADS}")
    shards = -(-trials // SHARD_TRIALS)
    if shards > MAX_SHARDS:
        raise DomainError(f"trials must be <= {MAX_SHARDS * SHARD_TRIALS}")
    sizes = [min(SHARD_TRIALS, trials - i * SHARD_TRIALS) for i in range(shards)]
    workers = min(threads, shards)
    if workers == 1:
        return sum(map(count_shard, range(shards), sizes))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(count_shard, range(shards), sizes))


def _count_singular(mats: np.ndarray) -> int:
    """Number of singular matrices in a (B, n, n) batch.

    For n <= _EXPANSION_MAX_N, `det_residues` runs first. When
    `_expansion_fits(n, top, 15)` holds for the batch's largest |entry| top,
    every |det| < 2**15, so the residue is the determinant and its zeros are
    the answer. Otherwise a nonzero residue proves a matrix nonsingular, and
    only the zero residues (the singular matrices and about 1 in 2.5 * 10**4
    others on uniform draws) go on. They, and every batch past n = 8, take
    `nonsingular_mod_p`, which proves all but about 1 in 2**29 of the
    nonsingular ones, and the exact big-integer `_det_rows` decides the rest.
    """
    n = mats.shape[1]
    if n <= _EXPANSION_MAX_N:
        zero = det_residues(mats) == 0
        if _expansion_fits(n, max(int(mats.max()), -int(mats.min())), 15):
            return int(np.count_nonzero(zero))
        mats = mats[zero]
    return sum(_det_rows(mat.tolist()) == 0 for mat in mats[~nonsingular_mod_p(mats)])


def _singular_count(n: int, dist: EntryDistribution, seed: Seed, shard: int, count: int) -> int:
    gen = generator(seed, shard=shard)
    batches = sample_batches(dist, gen, count, n * n)
    return sum(_count_singular(flat.reshape(-1, n, n)) for flat in batches)


def mc_singularity(
    n: int,
    dist: EntryDistribution,
    trials: int,
    seed: Seed,
    threads: int = 1,
) -> EstimateReport:
    """Monte Carlo estimate of Pr[M singular] for M with i.i.d. entries.

    Every trial uses an exact singularity test. Trials are split into
    fixed-size shards with independent counter offsets and reduced in
    shard order, so the report is identical for any thread count.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if n < 1:
        raise DomainError("n must be >= 1")
    start = time.perf_counter()
    hits = map_shards(partial(_singular_count, n, dist, seed), trials, threads)
    elapsed = time.perf_counter() - start
    m = dist.m if dist.kind == "uniform_symmetric" else None
    return EstimateReport.from_counts(trials, hits, seed, n, m, elapsed)


def _cube(start: int, stop: int, m: int, length: int) -> np.ndarray:
    """Points start..stop-1 of {-m, ..., m}**length as a (stop-start, length)
    int64 array, in row-major odometer order (last coordinate fastest)."""
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((stop - start, length), dtype=np.int64)
    for e in range(length - 1, -1, -1):
        idx, digits[:, e] = np.divmod(idx, 2 * m + 1)
    return digits - m


def exact_singular_fraction(n: int, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> Fraction:
    """Exact Pr[M singular] over all (2m+1)**(n*n) matrices, by span counting.

    det M = c . r for the last row r, where c holds the n signed maximal
    minors of the first n-1 rows. Only those (2m+1)**(n*(n-1)) row stacks
    are enumerated, in chunks; their minors come from `leading_minors`.
    The alphabet is symmetric and r ranges over the whole cube, so the
    number of r with c . r = 0 depends only on sorted |c|: the stacks are
    tallied by that key, and each distinct key is multiplied against every
    last row once, in int64: `batch_det_fits_int64` bounds every minor and
    every partial sum of c . r. The budget still counts all (2m+1)**(n*n)
    matrices; n = 1 and m = 0 are closed forms. Raises BudgetExceededError
    before the budget check, with `required` None, when that int64 bound
    fails: every such n >= 2, m >= 1 has at least 2**64 row stacks, too
    many ever to finish, so no budget would do.
    """
    if n < 1 or m < 0:
        raise DomainError("need n >= 1 and m >= 0")
    if n >= 2 and m >= 1 and not batch_det_fits_int64(n, m):
        raise BudgetExceededError(
            f"exact enumeration runs in int64 only, and n = {n}, m = {m} is past"
            f" the int64 bound of the minor expansion (batch_det_fits_int64)",
            required=None,
            budget=budget,
        )
    width = 2 * m + 1
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
    stacks = width ** (n * (n - 1))
    tally: Counter[tuple] = Counter()
    for start in range(0, stacks, _ENUM_CHUNK):
        rows = _cube(start, min(start + _ENUM_CHUNK, stacks), m, n * (n - 1))
        a = np.ascontiguousarray(rows.reshape(-1, n - 1, n).transpose(1, 2, 0))
        keys = np.sort(np.abs(np.stack(leading_minors(a, n - 1), axis=1)), axis=1)
        tally.update(map(tuple, keys.tolist()))
    last = _cube(0, width**n, m, n).T
    keys = np.array(list(tally), dtype=np.int64)
    reps = list(tally.values())
    step = max(1, _HITS_ENTRIES // width**n)
    singular = 0
    for i in range(0, len(reps), step):
        hits = np.count_nonzero(keys[i : i + step] @ last == 0, axis=1)
        singular += sum(map(mul, reps[i : i + step], hits.tolist()))
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
