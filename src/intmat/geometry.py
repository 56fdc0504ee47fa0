"""Real-vector diagnostics at extended precision: compressibility, the
least-common-denominator (LCD) scan, spread and spectral-norm probes.

Vectors are mpmath reals, converted from integer kernel vectors, floats or
decimal strings, and every mpmath step works at one fixed precision,
PRECISION = 128 mantissa bits. Compressibility, spread and every LCD
witness are decided on these reals. The LCD scan evaluates its whole grid
in float64 first and decides a grid point there only when the residual
clears the bound by a certified rounding margin; points inside the margin,
and the certificate, are computed in mpmath by one residual routine,
`_lcd_residual`. The spectral-norm probe, whose contract is only 1e-6
accuracy, runs in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mpf, workprec

from .errors import DimensionError, DomainError
from .linalg import IntMatrix, kernel_basis
from .sampling import Seed, generator

PRECISION = 128
_UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class RealVector:
    """Extended-precision real vector (mpmath entries at PRECISION bits)."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise DimensionError("empty vector")
        if not all(mpmath.isfinite(e) for e in self.entries):
            raise DomainError("entries must be finite")

    @classmethod
    def from_values(cls, values) -> "RealVector":
        with workprec(PRECISION):
            return cls(tuple(mpf(v) for v in values))

    def __len__(self) -> int:
        return len(self.entries)

    def norm(self):
        with workprec(PRECISION):
            return mpmath.sqrt(mpmath.fsum(e * e for e in self.entries))

    def to_floats(self) -> list[float]:
        return [float(e) for e in self.entries]


@dataclass(frozen=True)
class LcdParams:
    """(alpha, beta) pair governing compressibility and the LCD."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise DomainError("alpha must lie in (0, 1)")
        if not 0 < self.beta < 1:
            raise DomainError("beta must lie in (0, 1)")

    @classmethod
    def defaults(cls, m: int) -> "LcdParams":
        """The working constants: alpha = 1/50, beta = 1/sqrt(m)."""
        if m < 2:
            raise DomainError("default beta = 1/sqrt(m) needs m >= 2")
        return cls(alpha=1.0 / 50.0, beta=1.0 / math.sqrt(m))

    def sparsity_count(self, n: int) -> int:
        # floor(alpha*n) computed exactly on the binary value of alpha
        return math.floor(Fraction(self.alpha) * n)


@dataclass(frozen=True)
class LcdCertificate:
    """Re-verifiable witness for the first grid point passing the scan."""

    d: float
    sparse_support: tuple[int, ...]
    residual: float


@dataclass(frozen=True)
class LcdScanResult:
    """Grid-resolved LCD upper bound; math.inf means no grid point passed."""

    lcd_upper: float
    grid_step: float
    d_max: float
    certificate: LcdCertificate | None

    @property
    def found(self) -> bool:
        return math.isfinite(self.lcd_upper)


def normalize(v) -> RealVector:
    """v / ||v||_2 at PRECISION bits, for a RealVector or a sequence of
    values that mpf accepts (ints, floats, decimal strings)."""
    vec = v if isinstance(v, RealVector) else RealVector.from_values(v)
    with workprec(PRECISION):
        nrm = vec.norm()
        if nrm == 0:
            raise DomainError("cannot normalize the zero vector")
        return RealVector(tuple(e / nrm for e in vec.entries))


def normal_vector(rows: IntMatrix) -> RealVector:
    """Deterministic unit kernel vector of a stack of integer rows.

    The kernel is computed exactly on the integer matrix (scaling the rows
    leaves it unchanged). When the kernel has dimension > 1 the canonical
    basis vector with the lowest leading free-column index is chosen.
    """
    basis = kernel_basis(rows)
    if not basis:
        raise DomainError("rows have full column rank; no normal vector exists")
    return normalize(basis[0])


def _unit_check(x: RealVector):
    if abs(float(x.norm()) - 1.0) > _UNIT_NORM_TOL:
        raise DomainError("input must be a unit vector")


def sparse_residual(x: RealVector, s: int):
    """l2 norm of x with its s largest-magnitude entries removed.

    This is the minimal ||v||_2 over all decompositions x = u + v with u
    s-sparse.
    """
    n = len(x)
    if not 0 <= s <= n:
        raise DomainError(f"sparsity s must lie in [0, {n}]")
    if s == n:
        return mpf(0)
    with workprec(PRECISION):
        mags = sorted((abs(e) for e in x.entries), reverse=True)
        return mpmath.sqrt(mpmath.fsum(e * e for e in mags[s:]))


def is_compressible(x: RealVector, p: LcdParams) -> bool:
    """Whether x is within l2 distance beta of a floor(alpha*n)-sparse vector."""
    _unit_check(x)
    s = p.sparsity_count(len(x))
    with workprec(PRECISION):
        return sparse_residual(x, s) <= mpf(p.beta)


def fractional_part(y):
    """y - round(y) with round-half-up, so the result lies in [-1/2, 1/2)."""
    if isinstance(y, mpf):
        return y - mpmath.floor(y + mpf(1) / 2)
    return float(y) - math.floor(y + 0.5)


def lcd_witness(x: RealVector, d, p: LcdParams) -> bool:
    """Whether {d*x} = u + v with u floor(alpha*n)-sparse and
    ||v||_2 <= beta * min(d, sqrt(n))."""
    if not d > 0:
        raise DomainError("D must be positive")
    s = p.sparsity_count(len(x))
    with workprec(PRECISION):
        bound = mpf(p.beta) * min(mpf(d), mpmath.sqrt(len(x)))
        return _lcd_residual(x, d, s)[0] <= bound


def _lcd_residual(x: RealVector, d, s: int) -> tuple:
    """(residual, support) for {d*x}: support the indices of its s largest
    magnitudes (the lower index first among ties), in increasing order, and
    residual the l2 norm of the other entries, at PRECISION bits."""
    with workprec(PRECISION):
        dd = mpf(d)
        frac = [fractional_part(dd * e) for e in x.entries]
        order = sorted(range(len(frac)), key=lambda i: (-abs(frac[i]), i))
        residual = mpmath.sqrt(mpmath.fsum(frac[i] ** 2 for i in order[s:]))
    return residual, tuple(sorted(order[:s]))


# Grid rows evaluated per numpy block: bounds the float64 working set at
# about 2**16 entries however fine the grid, and lets an early witness stop
# the scan before the rest of the grid is evaluated.
_SCAN_BLOCK_ENTRIES = 1 << 16


def _float_margin(d: np.ndarray, n: int) -> np.ndarray:
    """Rounding margin for deciding a grid point in float64.

    Bounds |float64 residual - mpmath residual| plus the difference of the
    two bounds beta*min(D, sqrt(n)). With u = 2**-53 and each x_i rounded
    to nearest, y_i = fl(D * fl(x_i)) is within D*|x_i|*(2u + u^2) of
    D*x_i. The magnitude |{y}| = dist(y, Z) is 1-Lipschitz in y, and
    y - round(y) is exact in float64; the top-s residual is 1-Lipschitz in
    l2 in the magnitudes. With ||x||_2 <= 1 + 1e-9 (the unit check), the
    residual moves by at most D * 2**-52 * (1 + 1e-8).

    Squaring and summing n - s terms, then the square root, add a relative
    error of at most (n + 2) * u / 2 to a residual that is at most
    sqrt(n)/2: at most n**1.5 * u. The float bound is off by at most
    sqrt(n) * 2u. The mpmath side, at PRECISION = 128 bits, is off by under
    (D + sqrt(n)) * 2**-61.

    The margin is 4x the total: a term D * 2**-50 relative to D, and an
    absolute term n**1.5 * 2**-50.
    """
    return (d + n * math.sqrt(n)) * 2.0**-50


def lcd_scan(x: RealVector, p: LcdParams, d_max: float, grid_step: float) -> LcdScanResult:
    """Scan D over {step, 2*step, ..., d_max} for the first LCD witness.

    The returned lcd_upper is a grid-resolved upper bound on the true
    infimum; math.inf means the LCD exceeds d_max at this resolution.

    Grid points are evaluated in float64 a block at a time. A point is
    decided in float only when its residual clears beta*min(D, sqrt(n)) by
    _float_margin; every point inside the margin is confirmed by the
    mpmath lcd_witness, and the certificate is computed in mpmath.
    """
    if not 0 < grid_step <= d_max:
        raise DomainError("need 0 < grid_step <= d_max")
    _unit_check(x)
    steps = int(d_max / grid_step + 1e-9)
    n = len(x)
    s = p.sparsity_count(n)
    xf = np.array(x.to_floats())
    block = max(1, _SCAN_BLOCK_ENTRIES // n)
    for j0 in range(1, steps + 1, block):
        # j * grid_step in float64 is the same D as the scalar loop's
        d = np.arange(j0, min(j0 + block, steps + 1)).astype(np.float64) * grid_step
        y = d[:, None] * xf
        mags = np.abs(y - np.round(y))
        if s:
            mags = np.partition(mags, n - s - 1, axis=1)[:, : n - s]
        resid = np.sqrt(np.square(mags).sum(axis=1))
        gap = resid - p.beta * np.minimum(d, math.sqrt(n))
        margin = _float_margin(d, n)
        for i in np.flatnonzero(gap <= margin):
            dj = float(d[i])
            if gap[i] < -margin[i] or lcd_witness(x, dj, p):
                residual, support = _lcd_residual(x, dj, s)
                return LcdScanResult(
                    lcd_upper=dj,
                    grid_step=grid_step,
                    d_max=d_max,
                    certificate=LcdCertificate(dj, support, float(residual)),
                )
    return LcdScanResult(lcd_upper=math.inf, grid_step=grid_step, d_max=d_max, certificate=None)


def spread_check(x: RealVector, alpha: float, gamma: float) -> bool:
    """Test ||x|_J||_2^2 >= ||x|_J||_inf^2 + gamma^2 on the small-coordinate
    set J = {i: |x_i| <= 1/sqrt(alpha*n - 1)}.

    The magnitude |x_i| is used for membership; a one-sided comparison
    would make J, and the inequality, sign-dependent.
    """
    n = len(x)
    an = Fraction(alpha) * n
    if an <= 1:
        raise DomainError("alpha * n must exceed 1")
    with workprec(PRECISION):
        thresh = 1 / mpmath.sqrt(mpf(an.numerator) / an.denominator - 1)
        small = [e for e in x.entries if abs(e) <= thresh]
        if not small:
            return False
        total = mpmath.fsum(e * e for e in small)
        peak = max(abs(e) for e in small)
        return total >= peak * peak + mpf(gamma) ** 2


def spectral_norm(r: IntMatrix, scale_m: int) -> float:
    """Largest singular value of r/scale_m (LAPACK SVD, float64)."""
    if scale_m < 1:
        raise DomainError("scale_m must be >= 1")
    a = r.to_numpy().astype(np.float64) / scale_m
    if not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2))


def random_unit_vector(n: int, seed: Seed) -> RealVector:
    """Uniform random direction: normalized Gaussian sample."""
    if n < 1:
        raise DomainError("n must be >= 1")
    gen = generator(seed)
    while True:
        g = gen.standard_normal(n)
        if np.linalg.norm(g) > 1e-6:
            return normalize(g.tolist())
