"""Seeded, reproducible sampling of integer entries, vectors and matrices.

The generator is counter-based (Philox4x64): the key carries the 64-bit
seed value and 64-bit stream index, and parallel Monte Carlo shards offset
the 256-bit counter, so every draw is determined by (seed, stream, shard)
independently of thread scheduling.

Stream version 3 (STREAM_VERSION): uniform {-m, ..., m} entries are numpy's
bounded integers (Lemire's multiply-shift rejection, exactly uniform) on
the keyed Philox stream, drawn and returned as int16 when m < _NARROW_M =
2**11 and as int64 above; custom pmfs map raw 64-bit words through an
exact cumulative table, read from a 2**16-bucket table indexed by a word's
top 16 bits and searched only in the buckets that hold a threshold.
Callers that draw many matrices or rows draw them in sub-batches of whole
items, at most _DRAW_BATCH entries each (sample_batches). numpy keeps no
spare 16-bit draws between calls, so for the int16 laws that sub-batch
schedule is part of the stream; int64 and custom-pmf draws still
concatenate across calls (Philox keeps the spare 32-bit half of a word in
its own state), and the tests check both.
tests/test_sampling.py pins the stream with golden hashes; numpy does not
promise stable Generator streams across versions (NEP 19), so a numpy
upgrade can fail that test.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .linalg import IntMatrix

STREAM_VERSION = 3
_DRAW_BATCH = 1 << 20  # entries per sub-batch; part of the stream for int16 draws
_NARROW_M = 1 << 11  # uniform laws with m below it draw int16 (part of the stream)
_U64 = 1 << 64
_INT64_LIMIT = 1 << 63
# A custom-pmf word's top 16 bits pick its bucket in the decode table: the
# fourth or the first uint16 of the word, by the machine's byte order.
_BUCKETS = 1 << 16
_TOP_HALFWORD = 3 if sys.byteorder == "little" else 0


@dataclass(frozen=True)
class Seed:
    """(value, stream) pair that fully determines every sample in a run."""

    value: int
    stream: int = 0

    def __post_init__(self):
        for name in ("value", "stream"):
            v = getattr(self, name)
            if not 0 <= v < _U64:
                raise DomainError(f"seed {name} must be an unsigned 64-bit integer")


def generator(seed: Seed, shard: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed.value, seed.stream).

    Distinct shards start 2**128 counter steps apart, so shard streams
    can never overlap.
    """
    key = np.array([seed.value, seed.stream], dtype=np.uint64)
    counter = np.array([0, 0, shard & (_U64 - 1), shard >> 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def raw_u64(gen: np.random.Generator, count: int) -> np.ndarray:
    """`count` raw 64-bit Philox words: the words gen.integers(0, 2**64,
    dtype=np.uint64) returns, without its range handling."""
    return gen.bit_generator.random_raw(count)


@dataclass(frozen=True)
class EntryDistribution:
    """A finite integer-valued probability law.

    Either uniform on {-m, ..., m} or a custom pmf given as exact
    rationals. support is strictly increasing; pmf sums to exactly 1.
    """

    kind: str
    m: int | None = None
    support: tuple[int, ...] | None = None
    pmf: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.kind == "uniform_symmetric":
            # wide draws are int64, so m itself must fit
            if self.m is None or not 0 <= self.m < _INT64_LIMIT:
                raise DomainError("uniform_symmetric needs 0 <= m < 2**63")
        elif self.kind == "custom":
            if not self.support or not self.pmf:
                raise DomainError("custom distribution needs support and pmf")
            if len(self.support) != len(self.pmf):
                raise DomainError("support and pmf length mismatch")
            if any(b <= a for a, b in zip(self.support, self.support[1:])):
                raise DomainError("support must be strictly increasing")
            if not -_INT64_LIMIT <= self.support[0] <= self.support[-1] < _INT64_LIMIT:
                raise DomainError("support values must fit in int64")
            if any(p < 0 for p in self.pmf):
                raise DomainError("pmf entries must be nonnegative")
            if sum(self.pmf, Fraction(0)) != 1:
                raise DomainError("pmf must sum to exactly 1")
        else:
            raise DomainError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def uniform_symmetric(cls, m: int) -> "EntryDistribution":
        return cls(kind="uniform_symmetric", m=int(m))

    @classmethod
    def custom(cls, support, pmf) -> "EntryDistribution":
        return cls(
            kind="custom",
            support=tuple(int(s) for s in support),
            pmf=tuple(Fraction(p) for p in pmf),
        )

    @property
    def max_probability(self) -> Fraction:
        """Largest point mass of the law (the anti-concentration proxy)."""
        if self.kind == "uniform_symmetric":
            return Fraction(1, 2 * self.m + 1)
        return max(self.pmf)

    def _thresholds(self) -> np.ndarray:
        # cumulative pmf scaled to a 2**64 grid; per-draw bias <= 2**-64.
        # Once the sum reaches 1 (zero-mass points at the end) the bound is
        # 2**64, above every word, so it is left out.
        cum = Fraction(0)
        bounds = []
        for p in self.pmf[:-1]:
            cum += p
            if cum == 1:
                break
            bounds.append((cum.numerator * _U64) // cum.denominator)
        return np.array(bounds, dtype=np.uint64)

    def sample_array(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """`count` i.i.d. draws as one array: int16 for the uniform law with
        m < _NARROW_M, int64 otherwise (wider uniform laws, custom pmfs)."""
        if self.kind == "uniform_symmetric":
            dtype = np.int16 if self.m < _NARROW_M else np.int64
            return gen.integers(-self.m, self.m, size=count, dtype=dtype, endpoint=True)
        return self._decode(raw_u64(gen, count))

    def _decode(self, words: np.ndarray) -> np.ndarray:
        """Support values of raw 64-bit words: value i for the words from
        threshold i-1 up to threshold i, as `np.searchsorted(thresholds,
        words, side="right")` picks it. A word whose bucket holds no
        threshold reads its value from the bucket table; the few others
        take the search."""
        thresholds, support, values, mixed = _decode_table(self)
        buckets = words.view(np.uint16)[_TOP_HALFWORD::4]
        out = values[buckets]
        if mixed is not None:
            odd = np.flatnonzero(mixed[buckets])
            out[odd] = support[np.searchsorted(thresholds, words[odd], side="right")]
        return out


@lru_cache(maxsize=16)
def _decode_table(dist: EntryDistribution):
    """(thresholds, support, values, mixed) for `EntryDistribution._decode`.

    Bucket b holds the words b * 2**48 .. (b+1) * 2**48 - 1; values[b] is the
    support value of its first word, and mixed[b] is True when a threshold
    lies above that word and within the bucket, so that the value changes
    inside it. mixed is None when no bucket is mixed.
    """
    thresholds = dist._thresholds()
    support = np.asarray(dist.support, dtype=np.int64)
    first = np.arange(_BUCKETS, dtype=np.uint64) << np.uint64(48)
    lo = np.searchsorted(thresholds, first, side="right")
    hi = np.searchsorted(thresholds, first | np.uint64((1 << 48) - 1), side="right")
    mixed = lo != hi
    return thresholds, support, support[lo], mixed if mixed.any() else None


def sample_batches(dist: EntryDistribution, gen: np.random.Generator, items: int, size: int):
    """Yield (take, size) draws of `items` items of `size` entries each.

    Each sub-batch holds whole items and at most _DRAW_BATCH entries (an item
    larger than that is drawn alone), consumed from gen in order.
    """
    per = max(1, _DRAW_BATCH // size)
    for start in range(0, items, per):
        take = min(per, items - start)
        yield dist.sample_array(gen, take * size).reshape(take, size)


def sample_matrix(n: int, k: int, dist: EntryDistribution, seed: Seed) -> IntMatrix:
    """n x k matrix with i.i.d. entries from dist, reproducible from seed."""
    if n < 1 or k < 1:
        raise DomainError("matrix dimensions must be >= 1")
    flat = dist.sample_array(generator(seed), n * k)
    return IntMatrix(n, k, tuple(int(v) for v in flat))


def sample_vector(n: int, dist: EntryDistribution, seed: Seed) -> IntMatrix:
    """n x 1 vector of i.i.d. entries from dist."""
    return sample_matrix(n, 1, dist, seed)


def vempala_sum_distribution(mu, m: int) -> EntryDistribution:
    """Law of the sum of m independent copies of the sparse sign law.

    The base law puts mass 1-mu on 0 and mu/2 on each of -1, +1; the sum
    is supported on {-m, ..., m} with an exact rational pmf.
    """
    mu = Fraction(mu)
    if not 0 < mu < 1:
        raise DomainError("mu must lie strictly between 0 and 1")
    if m < 1:
        raise DomainError("m must be >= 1")
    base = {-1: mu / 2, 0: 1 - mu, 1: mu / 2}
    acc = {0: Fraction(1)}
    for _ in range(m):
        nxt: dict[int, Fraction] = {}
        for v, p in acc.items():
            for dv, dp in base.items():
                nxt[v + dv] = nxt.get(v + dv, Fraction(0)) + p * dp
        acc = nxt
    support = tuple(range(-m, m + 1))
    return EntryDistribution.custom(support, tuple(acc[s] for s in support))
