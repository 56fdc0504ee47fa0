"""Characteristic-function machinery for projections of uniform integer
entries: the Dirichlet-kernel factor F, its Gaussian/tail envelope G, the
product formula for |phi_Y|, Esseen-style integrals, and small-ball
probability probes."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import LcdParams, RealVector
from .sampling import EntryDistribution, Seed, generator, sample_batches
from .singularity import EstimateReport, map_shards

# Near-integer arguments switch to the continuity value F = 1.
_SIN_CUTOFF = 2.0**-40

# Proof constant for the tail branch: F(y) <= C1/(m*y) on [1/m, 1/2].
C1 = 1.0 / math.pi

# Frozen derived constants; see derive_gaussian_coefficient / derive_eta.
# C2: largest c with F(y, m) <= 1 - c*(m*y)^2 on (0, min(1/m, 1/2)],
# m <= 64, floored at 3 significant digits; the scan minimum is exactly
# 4/5, attained at m = 2, y = 1/2 where F = 1/5. ETA: largest
# eta <= min(ln pi, C2) keeping F(y) <= G(m*y) on [0, 1/2] for m <= 64;
# the C2 cap binds.
C2 = 0.8
ETA = 0.8

# Rows per projection in `small_ball_probe`. On a whole 2**20-entry sub-batch
# OpenBLAS (0.3.31) runs a multithreaded dgemv whose last bits differ from
# the single-threaded one; blocks of up to 4,096 rows at n = 100 gave the
# single-threaded bits at 1 and 2 threads, and 1,024 rows stay in cache.
_PROJECT_ROWS = 1024

# Relative tolerance of the adaptive Simpson refinement in `phi_integral`,
# shared out over its panels.
_REL_TOL = 1e-6


def f_grid(y, m: int) -> np.ndarray:
    """F(y) = |sin((2m+1)*pi*y)| / ((2m+1)*|sin(pi*y)|) over an array of
    arguments, with the removable singularity at integer y filled by
    continuity (value 1)."""
    if m < 1:
        raise DomainError("m must be >= 1")
    y = np.asarray(y, dtype=np.float64)
    # periodicity + symmetry: reduce to [0, 1/2]; the reduction is exact
    u = np.abs(y - np.round(y))
    s = np.sin(np.pi * u)
    near = s < _SIN_CUTOFF
    safe = np.where(near, 1.0, s)
    val = np.abs(np.sin((2 * m + 1) * np.pi * u)) / ((2 * m + 1) * safe)
    return np.where(near, 1.0, np.minimum(val, 1.0))


def G_eval(y: float, eta: float = ETA) -> float:
    """Envelope exp(-eta*y^2) on [0, 1], exp(-eta)/y beyond; continuous
    at 1 and non-increasing."""
    if y < 0:
        raise DomainError("G is defined for y >= 0")
    if eta <= 0:
        raise DomainError("eta must be positive")
    if y <= 1.0:
        return math.exp(-eta * y * y)
    return math.exp(-eta) / y


def _direction_floats(x) -> np.ndarray:
    return np.asarray(x.to_floats() if isinstance(x, RealVector) else x, dtype=np.float64)


def charfn_modulus(x, t: float, m: int) -> float:
    """|phi_Y(t)| for Y = <X/m, x>: the product of per-coordinate F factors."""
    xs = _direction_floats(x)
    return float(np.prod(f_grid(xs * float(t) / (2.0 * math.pi * m), m)))


def _modulus_on_grid(ts: np.ndarray, xs: np.ndarray, m: int) -> np.ndarray:
    ys = np.outer(ts, xs) / (2.0 * math.pi * m)
    return np.prod(f_grid(ys, m), axis=1)


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = f(lm)
    frm = f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return _adaptive_simpson(f, a, mid, fa, flm, fm, left, half, depth - 1) + _adaptive_simpson(
        f, mid, b, fm, frm, fb, right, half, depth - 1
    )


def phi_integral(x, m: int, t_max: float) -> float:
    """integral over [0, t_max] of prod_k F(x_k*t/(2*pi*m)).

    Initial panels are sized to the oscillation scale of the fastest
    coordinate (the integrand wiggles at frequency ~(2m+1) in each y_k),
    then each panel is refined by adaptive Simpson.
    """
    if t_max <= 0:
        raise DomainError("t_max must be positive")
    xs = _direction_floats(x)
    nz = np.abs(xs[xs != 0])
    if nz.size == 0:
        return t_max  # integrand identically 1
    scale = 2.0 * math.pi * m / ((2 * m + 1) * float(nz.max()))
    panels = int(np.clip(math.ceil(4.0 * t_max / scale), 8, 4096))
    edges = np.linspace(0.0, t_max, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    f_edges = _modulus_on_grid(edges, xs, m)
    f_mids = _modulus_on_grid(mids, xs, m)
    widths = np.diff(edges)
    coarse = widths / 6.0 * (f_edges[:-1] + 4.0 * f_mids + f_edges[1:])
    total_coarse = max(float(coarse.sum()), 1e-300)
    out = 0.0
    for i in range(panels):
        tol = _REL_TOL * total_coarse * max(float(coarse[i]) / total_coarse, 1.0 / panels)
        out += _adaptive_simpson(
            lambda t: charfn_modulus(xs, t, m),
            float(edges[i]),
            float(edges[i + 1]),
            float(f_edges[i]),
            float(f_mids[i]),
            float(f_edges[i + 1]),
            float(coarse[i]),
            tol,
            24,
        )
    return out


def esseen_integral(x, m: int, epsilon: float) -> float:
    """epsilon * integral_{-1/eps}^{1/eps} |phi_Y(t)| dt, numerically.

    The unspecified universal prefactor of the small-ball inequality is
    not applied; the raw value is reported.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if m < 1:
        raise DomainError("m must be >= 1")
    # |phi| is even, so integrate one side and double
    return epsilon * 2.0 * phi_integral(x, m, 1.0 / epsilon)


@dataclass(frozen=True)
class SmallBallReport:
    """Monte Carlo small-ball estimate with its analytic companions."""

    epsilon: float
    mc_probability: EstimateReport
    esseen_integral: float
    lcd_bound: float | None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")


def lcd_regime_bound(epsilon: float, m: int, n: int, p: LcdParams) -> float:
    """eps/gamma + 1/(alpha*beta*m)^(alpha*n) with gamma = sqrt(beta)."""
    gamma = math.sqrt(p.beta)
    return epsilon / gamma + (p.alpha * p.beta * m) ** (-p.alpha * n)


def small_ball_probe(
    x,
    m: int,
    epsilon: float,
    trials: int,
    seed: Seed,
    lcd_params: LcdParams | None = None,
    threads: int = 1,
) -> SmallBallReport:
    """Monte Carlo estimate of Pr[|<X/m, x>| <= eps] for integer X.

    The trials run in the Monte Carlo shards of `map_shards`, each drawing
    its rows from its own counter offset, so the estimate is identical for
    any thread count. Attaches the matching Esseen integral, and the
    LCD-regime analytic bound when (alpha, beta) parameters are supplied.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if m < 1:
        raise DomainError("m must be >= 1")
    if not 0 < epsilon < math.inf:  # also rejects nan, before any draw
        raise DomainError("epsilon must be positive and finite")
    xs = _direction_floats(x)
    n = xs.size
    dist = EntryDistribution.uniform_symmetric(m)

    def count_shard(shard: int, size: int) -> int:
        hits = 0
        for sample in sample_batches(dist, generator(seed, shard=shard), size, n):
            for start in range(0, len(sample), _PROJECT_ROWS):
                y = (sample[start : start + _PROJECT_ROWS] @ xs) / m
                hits += int(np.count_nonzero(np.abs(y) <= epsilon))
        return hits

    start = time.perf_counter()
    hits = map_shards(count_shard, trials, threads)
    elapsed = time.perf_counter() - start
    mc = EstimateReport.from_counts(trials, hits, seed, n, m, elapsed)
    bound = lcd_regime_bound(epsilon, m, n, lcd_params) if lcd_params is not None else None
    return SmallBallReport(
        epsilon=epsilon,
        mc_probability=mc,
        esseen_integral=esseen_integral(x, m, epsilon),
        lcd_bound=bound,
    )


def _floor_sig(v: float, digits: int = 3) -> float:
    if v <= 0 or not math.isfinite(v):
        raise DomainError("expected a positive finite value")
    shift = digits - 1 - math.floor(math.log10(v))
    return math.floor(v * 10**shift) / 10**shift


def derive_gaussian_coefficient(m_max: int = 64, samples: int = 4000) -> float:
    """Scan for the quadratic-decay constant of F near the origin.

    Minimizes (1 - F(y, m)) / (m*y)^2 over y in (0, min(1/m, 1/2)] for
    every m <= m_max and floors the minimum at 3 significant digits, so
    the frozen value satisfies F <= 1 - c*(m*y)^2 <= exp(-c*(m*y)^2) on
    the whole scanned range. The cap at 1/2 matters only for m = 1,
    where y = 1 is an integer point with F = 1 by periodicity and the
    envelope is only ever applied below 1/2.
    """
    best = math.inf
    for m in range(1, m_max + 1):
        hi = min(1.0 / m, 0.5)
        y = np.linspace(1e-6 / m, hi, samples)
        ratio = (1.0 - f_grid(y, m)) / (m * y) ** 2
        best = min(best, float(ratio.min()))
    return _floor_sig(best)


def derive_eta(m_max: int = 64, samples: int = 4000, c2: float | None = None) -> float:
    """Largest eta <= min(ln pi, c2) with F(y) <= G(m*y) on [0, 1/2].

    On m*y <= 1 the constraint is eta <= -ln F / (m*y)^2; on m*y >= 1 it
    is eta <= -ln(F*m*y). The scan minimum is floored at 3 significant
    digits.
    """
    if c2 is None:
        c2 = derive_gaussian_coefficient(m_max, samples)
    eta = min(math.log(math.pi), c2)
    for m in range(1, m_max + 1):
        y = np.linspace(1e-6, 0.5, samples)
        f = f_grid(y, m)
        my = m * y
        with np.errstate(divide="ignore"):
            gauss = np.where((my <= 1.0) & (f > 0), -np.log(f) / my**2, np.inf)
            tail = np.where((my >= 1.0) & (f > 0), -np.log(f * my), np.inf)
        eta = min(eta, float(gauss.min()), float(tail.min()))
    return _floor_sig(eta)
