"""Singularity-probability experiments: Monte Carlo, exact enumeration,
analytic bounds, and the exponent fit for the m**(-c*n) scaling law."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .errors import BudgetExceededError, DomainError, FitError
from .linalg import batch_det_fits_int64, det_batch, _det_rows
from .sampling import EntryDistribution, Seed, generator, sample_batches

SHARD_TRIALS = 1 << 15
DEFAULT_ENUM_BUDGET = 10**8


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


def _shard_sizes(trials: int) -> list[int]:
    full, rem = divmod(trials, SHARD_TRIALS)
    sizes = [SHARD_TRIALS] * full
    if rem:
        sizes.append(rem)
    return sizes


def _count_singular(mats: np.ndarray, fits: bool) -> int:
    """Number of singular matrices in a (B, n, n) batch.

    int64 `det_batch` when `fits` (batch_det_fits_int64 holds for n and the
    alphabet), else one big-integer `_det_rows` per matrix.
    """
    if fits:
        return int(np.count_nonzero(det_batch(mats) == 0))
    return sum(_det_rows(mat.tolist()) == 0 for mat in mats)


def _singular_count(n: int, dist: EntryDistribution, seed: Seed, shard: int, count: int) -> int:
    gen = generator(seed, shard=shard)
    fits = batch_det_fits_int64(n, dist.max_abs_value())
    return sum(
        _count_singular(flat.reshape(-1, n, n), fits)
        for flat in sample_batches(dist, gen, count, n * n)
    )


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
    if threads < 1:
        raise DomainError("threads must be >= 1")
    start = time.perf_counter()
    sizes = _shard_sizes(trials)
    if threads == 1:
        counts = [_singular_count(n, dist, seed, i, c) for i, c in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(
                pool.map(lambda ic: _singular_count(n, dist, seed, ic[0], ic[1]), enumerate(sizes))
            )
    hits = sum(counts)
    elapsed = time.perf_counter() - start
    m = dist.m if dist.kind == "uniform_symmetric" else None
    return EstimateReport.from_counts(trials, hits, seed, n, m, elapsed)


def exact_singular_fraction(n: int, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> Fraction:
    """Exact Pr[M singular] by full enumeration of all (2m+1)**(n*n) matrices.

    Enumeration is a row-major odometer over entries of {-m, ..., m}
    (last entry varies fastest), processed in restartable chunks.
    """
    if n < 1 or m < 0:
        raise DomainError("need n >= 1 and m >= 0")
    width = 2 * m + 1
    total = width ** (n * n)
    if total > budget:
        raise BudgetExceededError(
            f"enumeration of ({width})**{n * n} = {total} matrices exceeds budget {budget};"
            f" rerun with budget >= {total}",
            required=total,
            budget=budget,
        )
    fits = batch_det_fits_int64(n, m)
    chunk = 1 << 16
    singular = 0
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = np.empty((stop - start, n * n), dtype=np.int64)
        for e in range(n * n - 1, -1, -1):
            idx, digits[:, e] = np.divmod(idx, width)
        singular += _count_singular(digits.reshape(-1, n, n) - m, fits)
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
