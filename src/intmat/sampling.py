"""Seeded, reproducible sampling of integer entries.

The generator is counter-based (Philox4x64): the key carries the 64-bit
seed value and 64-bit stream index, and parallel Monte Carlo shards offset
the 256-bit counter, so every draw is determined by (seed, stream, shard)
independently of thread scheduling.

Stream version 4 (STREAM_VERSION): uniform {-m, ..., m} entries are numpy's
bounded integers (Lemire's multiply-shift rejection, exactly uniform) on
the keyed Philox stream, drawn and returned as int16 when m < _NARROW_M =
2**11 and as int64 above; custom pmfs map raw 64-bit words through an
exact cumulative table, read from a 2**16-bucket table indexed by a word's
top 16 bits and searched only in the buckets that hold a threshold.
A Monte Carlo shard (`singularity.map_shards`) of max(1, 2**19 // entries
per trial) trials is one `sample_array` call at its own counter offset; a
matrix shard is stored lanes-last (entry (i, j) of trial t is draw
(i * n + j) * size + t), a small-ball shard row-major. Shard sizes and
layouts are part of the stream. `cli` caps a trial at _DRAW_BATCH entries.
tests/test_sampling.py pins the stream with golden hashes; numpy does not
promise stable Generator streams across versions (NEP 19), so a numpy
upgrade can fail that test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError

STREAM_VERSION = 4
_DRAW_BATCH = 1 << 20  # most entries of one trial, so of one shard's draw
_NARROW_M = 1 << 11  # uniform laws with m below it draw int16 (part of the stream)
_U64 = 1 << 64
_INT64_LIMIT = 1 << 63
# A custom-pmf word's top 16 bits pick its bucket in the decode table.
_BUCKETS = 1 << 16


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
        # each word's top 16 bits, straight into uint16 (int64 indices are slower)
        buckets = np.empty(words.size, dtype=np.uint16)
        np.right_shift(words, np.uint64(48), out=buckets, casting="unsafe")
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
