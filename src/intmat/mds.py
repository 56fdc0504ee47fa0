"""MDS matrices over integer alphabets: exact verification and
rejection-sampling generation, with the pigeonhole and union bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import BudgetExceededError, DimensionError, DomainError, GenerationError
from .linalg import IntMatrix, det, maximal_minors
# Uncalled: perfbench/tracing.py wraps intmat.mds.det_mod, so the name stays
# until the tracer reads run statistics instead of private names.
from .linalg import det_mod, _FILTER_PRIMES  # noqa: F401
from .sampling import EntryDistribution, Seed, generator

# Most minors `is_mds` holds at once: one level of maximal_minors, max_r
# C(n, r) minors (12,870 for 8 x 16; 10 x 30 would need C(30, 10), about
# 3 * 10**7). Its cached index plans take 16 bytes per (subset, row) pair on
# top. The widest shape within 2**16, 9 x 18 at |a| <= 2**20, takes 0.3 s and
# 36 MiB of peak RSS on a 2-vCPU Xeon; 10 x 20 (2**17.5 minors) took 137 MiB.
MINOR_BUDGET = 1 << 16


@dataclass(frozen=True)
class MdsVerdict:
    """Outcome of a full minor scan.

    witness is the lexicographically first k-column set whose minor is
    singular, present iff is_mds is False.
    """

    is_mds: bool
    witness: tuple[int, ...] | None
    minors_checked: int

    def __post_init__(self):
        if self.is_mds != (self.witness is None):
            raise DomainError("witness must be present exactly when the verdict is negative")


@dataclass(frozen=True)
class GenerationReport:
    matrix: IntMatrix
    attempts: int
    m_used: int
    seed: Seed


def is_mds(m: IntMatrix) -> MdsVerdict:
    """Check that every k x k minor of the k x n matrix is nonsingular.

    Computes all C(n, k) minors exactly (`maximal_minors`). The witness is
    the lexicographically first singular column set, and minors_checked its
    1-based position, or C(n, k) when there is none. A negative verdict is
    confirmed by the scalar Bareiss `det` of the witness columns. Raises
    BudgetExceededError before allocating when a level of the minor
    expansion would hold more than MINOR_BUDGET minors.
    """
    k, n = m.rows, m.cols
    if k > n:
        raise DimensionError(f"need k <= n, got {k}x{n}")
    widest = math.comb(n, min(k, n // 2))
    if widest > MINOR_BUDGET:
        raise BudgetExceededError(
            f"verifying a {k}x{n} matrix holds {widest} minors at once,"
            f" over the budget of {MINOR_BUDGET}",
            required=widest,
            budget=MINOR_BUDGET,
        )
    minors = maximal_minors(m)
    zeros = np.flatnonzero(minors == 0)
    if zeros.size == 0:
        return MdsVerdict(is_mds=True, witness=None, minors_checked=minors.size)
    first = int(zeros[0])
    witness = next(islice(combinations(range(n), k), first, None))
    if det(m.submatrix_columns(witness)) != 0:
        raise RuntimeError(f"minor expansion and Bareiss disagree on columns {witness}")
    return MdsVerdict(is_mds=False, witness=witness, minors_checked=first + 1)


def generate_mds(
    k: int,
    n: int,
    m: int | None = None,
    max_attempts: int = 64,
    seed: Seed = Seed(0),
) -> GenerationReport:
    """Rejection-sample uniform {-m,...,m} matrices until one is MDS.

    Attempts run sequentially off a single generator stream so the result
    is reproducible from the seed alone. Raises GenerationError (with the
    attempt count and last witness) when max_attempts is exhausted.
    """
    if k > n:
        raise DimensionError(f"need k <= n, got k={k}, n={n}")
    if max_attempts < 1:
        raise DomainError("max_attempts must be >= 1")
    auto_m = m is None
    if auto_m:
        m = default_generation_m(k, n)
    if m < 1:
        raise DomainError("m must be >= 1")
    gen = generator(seed)
    last_witness = None
    attempt = 0
    # when m was chosen automatically, double it after each exhausted round
    rounds = 8 if auto_m else 1
    for _ in range(rounds):
        dist = EntryDistribution.uniform_symmetric(m)
        for _ in range(max_attempts):
            attempt += 1
            flat = dist.sample_array(gen, k * n)
            cand = IntMatrix(k, n, tuple(int(v) for v in flat))
            verdict = is_mds(cand)
            if verdict.is_mds:
                return GenerationReport(matrix=cand, attempts=attempt, m_used=m, seed=seed)
            last_witness = verdict.witness
        if auto_m:
            m *= 2
    raise GenerationError(
        f"no MDS matrix found in {attempt} attempts (k={k}, n={n}, m={m})",
        attempts=attempt,
        last_witness=last_witness,
    )


def default_generation_m(k: int, n: int, c: float = 0.1) -> int:
    """Smallest m making the union-bound failure estimate <= 1/2.

    Uses a deliberately conservative exponent; generate_mds doubles this
    on repeated failure when m was not given explicitly.
    """
    if k > n or k < 1:
        raise DimensionError("need 1 <= k <= n")
    # union_bound_failure is non-increasing in m: double to an upper end,
    # then bisect for the first m at or below 1/2
    lo, hi = 0, 1
    while union_bound_failure(k, n, hi, c) > 0.5:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if union_bound_failure(k, n, mid, c) <= 0.5:
            hi = mid
        else:
            lo = mid
    return hi


def pigeonhole_min_alphabet(k: int, n: int) -> int:
    """ceil(sqrt(n/k)): the smallest alphabet size not excluded by the
    two-equal-column-prefixes pigeonhole argument. Needs k >= 2."""
    if k < 2:
        raise DomainError("the argument uses the first two rows, so k >= 2")
    if n < 1:
        raise DomainError("n must be >= 1")
    s = math.isqrt((n + k - 1) // k)
    while s * s * k < n:
        s += 1
    return max(s, 1)


def union_bound_failure(k: int, n: int, m: int, c: float) -> float:
    """(e*n / (k * m**c))**k, clamped to [0, 1]."""
    if not 0 < c <= 1:
        raise DomainError("c must lie in (0, 1]")
    if k < 1 or n < k or m < 1:
        raise DomainError("need 1 <= k <= n and m >= 1")
    base = math.e * n / (k * m**c)
    if base >= 1.0:
        return 1.0
    return min(1.0, base**k)
