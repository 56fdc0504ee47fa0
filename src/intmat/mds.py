"""MDS matrices over integer alphabets: exact verification and
rejection-sampling generation, with the Schwartz-Zippel bound on the
alphabet."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import BudgetExceededError, DimensionError, DomainError, GenerationError
from .linalg import IntMatrix, det, kernel_basis, maximal_minors
# Uncalled: perfbench/tracing.py wraps intmat.mds.det_mod, so the name stays
# until the tracer reads run statistics instead of private names.
from .linalg import det_mod  # noqa: F401
from .sampling import EntryDistribution, Seed, generator

# Most minors `is_mds` holds at once: the widest level of maximal_minors on
# the side it expands, k x n or the (n-k) x n dual, which is C(n, k) either
# way (12,870 for 8 x 16; 10 x 30 and 20 x 30 would need C(30, 10), about
# 3 * 10**7). Its cached index plans take 16 bytes per (subset, row) pair on
# top. The widest shape within 2**16, 9 x 18 at |a| <= 2**20, takes 0.05 s in
# a fresh interpreter (7 ms once its plans are cached) and peaks at 66 MiB of
# RSS, 33 MiB of it the import, on a 2-vCPU Xeon; 10 x 20 (2**17.5 minors)
# would take 0.2 s and 155 MiB.
MINOR_BUDGET = 1 << 16


def _minor_count(k: int, n: int) -> int:
    """C(n, k), the widest level of `maximal_minors` on either side of a
    k x n matrix; raises BudgetExceededError when it exceeds MINOR_BUDGET.

    C(n, k) >= 2**j for j = min(k, n-k), so for j > 64 it raises before
    computing C(n, k), with `required` the lower bound 2**65."""
    if min(k, n - k) > 64:
        total, shown = 1 << 65, "over 2**64"
    else:
        total = shown = math.comb(n, k)
    if total > MINOR_BUDGET:
        raise BudgetExceededError(
            f"verifying a {k}x{n} matrix holds {shown} minors at once,"
            f" over the budget of {MINOR_BUDGET}",
            required=total,
            budget=MINOR_BUDGET,
        )
    return total


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


def is_mds(m: IntMatrix) -> MdsVerdict:
    """Check that every k x k minor of the k x n matrix is nonsingular.

    Computes all C(n, k) minors modulo one prime (`maximal_minors`) on the
    smaller side. When 2k > n that is the dual: H, an (n-k) x n integer
    basis of the kernel. Each maximal minor of A is one fixed nonzero scalar
    times +-the minor of H on the complementary columns (Pluecker duality),
    and complementation reverses `combinations` order, so H's residues
    reversed line up with A's column sets. A nonzero residue proves its
    minor nonzero. Each residue-zero minor is a candidate, confirmed in
    `combinations` order by the scalar Bareiss `det` of A's columns, and the
    first confirmed zero is the witness: the lexicographically first
    singular column set, with minors_checked its 1-based position, or
    C(n, k) when there is none. A nonzero minor that the prime divides
    costs one `det` and is skipped. When k = n, or when the kernel is wider
    than n-k (rank below k: every minor is zero), every minor is a
    candidate, so the first `det` decides. Raises BudgetExceededError
    before allocating (`_minor_count`).
    """
    k, n = m.rows, m.cols
    if k > n:
        raise DimensionError(f"need k <= n, got {k}x{n}")
    total = _minor_count(k, n)
    if 2 * k <= n:
        residues = maximal_minors(m)
    elif k < n and len(kernel := kernel_basis(m)) == n - k:
        residues = maximal_minors(IntMatrix.from_rows(kernel))[::-1]
    else:  # k = n, or rank below k: `det` of the first column set decides
        residues = np.zeros(total, dtype=np.int64)
    subsets = combinations(range(n), k)
    seen = 0
    for pos in np.flatnonzero(residues == 0).tolist():
        cols = next(islice(subsets, pos - seen, None))
        seen = pos + 1
        if det(m.submatrix_columns(cols)) == 0:
            return MdsVerdict(is_mds=False, witness=cols, minors_checked=seen)
    return MdsVerdict(is_mds=True, witness=None, minors_checked=total)


def generate_mds(
    k: int,
    n: int,
    m: int | None = None,
    max_attempts: int = 64,
    seed: Seed = Seed(0),
) -> GenerationReport:
    """Rejection-sample uniform {-m,...,m} matrices until one is MDS.

    m defaults to `default_generation_m(k, n)`, where one attempt fails
    with probability below 1/2. Attempts run sequentially off a single
    generator stream so the result is reproducible from the seed alone.
    Raises GenerationError (with the attempt count and last witness) after
    max_attempts failed attempts, and BudgetExceededError before the first
    draw when `is_mds` could not verify a k x n matrix (`_minor_count`).
    """
    if k > n:
        raise DimensionError(f"need k <= n, got k={k}, n={n}")
    if max_attempts < 1:
        raise DomainError("max_attempts must be >= 1")
    _minor_count(k, n)
    if m is None:
        m = default_generation_m(k, n)
    if m < 1:
        raise DomainError("m must be >= 1")
    gen = generator(seed)
    dist = EntryDistribution.uniform_symmetric(m)
    last_witness = None
    for attempt in range(1, max_attempts + 1):
        flat = dist.sample_array(gen, k * n)
        cand = IntMatrix(k, n, tuple(int(v) for v in flat))
        verdict = is_mds(cand)
        if verdict.is_mds:
            return GenerationReport(matrix=cand, attempts=attempt, m_used=m)
        last_witness = verdict.witness
    raise GenerationError(
        f"no MDS matrix found in {max_attempts} attempts (k={k}, n={n}, m={m})",
        attempts=max_attempts,
        last_witness=last_witness,
    )


def default_generation_m(k: int, n: int) -> int:
    """k * C(n, k): the smallest m for which the union bound C(n, k) * k /
    (2m + 1) on a singular minor is below 1/2.

    Each k x k minor is a nonzero polynomial of degree k in the entries,
    so by Schwartz-Zippel (Schwartz, JACM 1980) it vanishes with
    probability at most k / (2m + 1) on uniform {-m,...,m} entries. One
    attempt of `generate_mds` then fails with probability below 1/2, and
    all 64 default attempts with probability below 2**-64.
    """
    if k > n or k < 1:
        raise DimensionError("need 1 <= k <= n")
    return k * math.comb(n, k)
