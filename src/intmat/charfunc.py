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
from .sampling import EntryDistribution, Seed, generator
from .singularity import EstimateReport, map_shards

# Near-integer arguments switch to the continuity value F = 1.
_SIN_CUTOFF = 2.0**-40

# G's decay rate, frozen: the largest eta <= min(ln pi, c2) keeping
# F(y) <= G(m*y) on [0, 1/2] for m <= 64, floored at 3 significant digits,
# where c2 = 4/5 is the quadratic-decay constant of F near the origin; the
# c2 cap binds. tests/test_charfunc.py::test_frozen_constants_match_derivation
# re-derives it.
ETA = 0.8

# Rows per projection in `small_ball_probe`. On a whole 2**19-entry shard
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


def G_eval(y: float) -> float:
    """Envelope exp(-ETA*y^2) on [0, 1], exp(-ETA)/y beyond; continuous
    at 1 and non-increasing."""
    if y < 0:
        raise DomainError("G is defined for y >= 0")
    if y <= 1.0:
        return math.exp(-ETA * y * y)
    return math.exp(-ETA) / y


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
    if not 0 < epsilon < math.inf:  # also rejects nan
        raise DomainError("epsilon must be positive and finite")
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
        if not 0 < self.epsilon < math.inf:  # also rejects nan
            raise DomainError("epsilon must be positive and finite")


def lcd_regime_bound(epsilon: float, m: int, n: int, p: LcdParams) -> float:
    """eps/gamma + 1/(alpha*beta*m)^(alpha*n) with gamma = sqrt(beta)."""
    gamma = math.sqrt(p.beta)
    return epsilon / gamma + (p.alpha * p.beta * m) ** (-p.alpha * n)


def check_probe(trials: int, m: int, epsilon: float) -> None:
    """Refuse a small-ball probe's trials, m or epsilon, in that order."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if m < 1:
        raise DomainError("m must be >= 1")
    if not 0 < epsilon < math.inf:  # also rejects nan
        raise DomainError("epsilon must be positive and finite")


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
    its rows, row-major, in one call from its own counter offset, so the
    estimate is identical for any thread count. Attaches the matching
    Esseen integral, and the LCD-regime analytic bound when (alpha, beta)
    parameters are supplied.
    """
    check_probe(trials, m, epsilon)
    xs = _direction_floats(x)
    n = xs.size
    dist = EntryDistribution.uniform_symmetric(m)

    def count_shard(shard: int, size: int) -> int:
        rows = dist.sample_array(generator(seed, shard=shard), size * n).reshape(size, n)
        ys = ((rows[i : i + _PROJECT_ROWS] @ xs) / m for i in range(0, size, _PROJECT_ROWS))
        return sum(int(np.count_nonzero(np.abs(y) <= epsilon)) for y in ys)

    start = time.perf_counter()
    hits = map_shards(count_shard, trials, n, threads)
    elapsed = time.perf_counter() - start
    mc = EstimateReport.from_counts(trials, hits, n, m, elapsed)
    bound = lcd_regime_bound(epsilon, m, n, lcd_params) if lcd_params is not None else None
    return SmallBallReport(
        epsilon=epsilon,
        mc_probability=mc,
        esseen_integral=esseen_integral(x, m, epsilon),
        lcd_bound=bound,
    )
