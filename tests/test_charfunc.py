import cmath
import math
from itertools import product

import numpy as np
import pytest

from intmat import charfunc
from intmat.charfunc import (
    ETA,
    G_eval,
    SmallBallReport,
    charfn_modulus,
    esseen_integral,
    f_grid,
    lcd_regime_bound,
    phi_integral,
    small_ball_probe,
)
from intmat.errors import DomainError
from intmat.geometry import LcdParams, RealVector, normalize, random_unit_vector
from intmat.sampling import Seed
from intmat.singularity import EstimateReport, wilson_interval

# pilot over the small-ball fixtures: max observed mc/esseen ratio 0.49
ESSEEN_K = 1.0


def exact_modulus(xs, t, m):
    """|E exp(itY)| by exact summation over the (2m+1)^n support of X/m."""
    total = 0j
    vals = range(-m, m + 1)
    for xi in product(vals, repeat=len(xs)):
        y = sum(x * v for x, v in zip(xs, xi)) / m
        total += cmath.exp(1j * t * y)
    return abs(total) / (2 * m + 1) ** len(xs)


def test_F_continuity_at_integers():
    for m in (1, 2, 5, 64):
        assert f_grid([0.0, 1.0, -3.0], m).tolist() == [1.0, 1.0, 1.0]


def test_F_half_point():
    assert float(f_grid(0.5, 1)) == pytest.approx(1 / 3, rel=1e-14)


def test_F_periodicity_grid():
    ys = np.linspace(-2.0, 2.0, 1001)
    for m in (1, 3, 8):
        a = f_grid(ys, m)
        b = f_grid(ys + 1.0, m)
        assert np.max(np.abs(a - b)) < 1e-12


def test_F_symmetry_grid():
    ys = np.linspace(-3.0, 3.0, 10_001)
    for m in (1, 2, 16):
        assert np.array_equal(f_grid(ys, m), f_grid(-ys, m))


def test_F_range_grid():
    ys = np.linspace(-5.0, 5.0, 10_001)
    for m in range(1, 65):
        vals = f_grid(ys, m)
        assert float(vals.min()) >= 0.0
        assert float(vals.max()) <= 1.0


def test_F_tail_bound_1_over_pi_m_y():
    # F(y) <= 1/(pi*m*y) on [1/m, 1/2]
    for m in range(1, 65):
        if 1.0 / m > 0.5:
            continue
        ys = np.linspace(1.0 / m, 0.5, 10_000)
        assert np.all(f_grid(ys, m) <= 1.0 / (math.pi * m * ys) + 1e-15)


def test_F_gaussian_bound_with_frozen_c2():
    # F(y) <= exp(-C2*(m*y)^2) on (0, min(1/m, 1/2)]
    for m in range(1, 65):
        hi = min(1.0 / m, 0.5)
        ys = np.linspace(1e-9, hi, 10_000)
        assert np.all(f_grid(ys, m) <= np.exp(-C2 * (m * ys) ** 2) + 1e-15)


def test_F_below_G_envelope():
    for m in range(1, 65):
        ys = np.linspace(0.0, 0.5, 5_000)
        f = f_grid(ys, m)
        g = np.array([G_eval(m * float(y)) for y in ys])
        assert np.all(f <= g + 1e-15)


# C2: largest c with F(y, m) <= 1 - c*(m*y)^2 on (0, min(1/m, 1/2)],
# m <= 64, floored at 3 significant digits; the scan minimum is exactly
# 4/5, attained at m = 2, y = 1/2 where F = 1/5.
C2 = 0.8


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


def derive_eta(m_max: int = 64, samples: int = 4000) -> float:
    """Largest eta <= min(ln pi, c2) with F(y) <= G(m*y) on [0, 1/2], G's
    envelope taken at eta and c2 from `derive_gaussian_coefficient` over
    the same scan.

    On m*y <= 1 the constraint is eta <= -ln F / (m*y)^2; on m*y >= 1 it
    is eta <= -ln(F*m*y). The scan minimum is floored at 3 significant
    digits.
    """
    eta = min(math.log(math.pi), derive_gaussian_coefficient(m_max, samples))
    for m in range(1, m_max + 1):
        y = np.linspace(1e-6, 0.5, samples)
        f = f_grid(y, m)
        my = m * y
        with np.errstate(divide="ignore"):
            gauss = np.where((my <= 1.0) & (f > 0), -np.log(f) / my**2, np.inf)
            tail = np.where((my >= 1.0) & (f > 0), -np.log(f * my), np.inf)
        eta = min(eta, float(gauss.min()), float(tail.min()))
    return _floor_sig(eta)


def test_frozen_constants_match_derivation():
    assert derive_gaussian_coefficient(m_max=16, samples=2000) == pytest.approx(C2)
    assert derive_eta(m_max=16, samples=2000) == pytest.approx(ETA)


def test_G_values_and_continuity():
    assert G_eval(0.0) == 1.0
    assert G_eval(1.0) == pytest.approx(math.exp(-ETA), rel=1e-15)
    just_above = math.exp(-ETA) / (1 + 1e-12)
    assert G_eval(1.0 + 1e-12) == pytest.approx(just_above, rel=1e-12)
    with pytest.raises(DomainError):
        G_eval(-0.1)


def test_G_non_increasing():
    ys = np.linspace(0.0, 5.0, 20_000)
    vals = np.array([G_eval(float(y)) for y in ys])
    assert np.all(np.diff(vals) <= 1e-15)


def test_charfn_at_zero_is_one():
    x = normalize(RealVector.from_values([1.0, 2.0, 2.0]))
    assert charfn_modulus(x, 0.0, 4) == pytest.approx(1.0, abs=1e-15)


def test_charfn_n1_closed_form():
    for t in np.linspace(0.1, 6.0, 60):
        want = abs((1 + 2 * math.cos(t)) / 3)
        assert charfn_modulus([1.0], float(t), 1) == pytest.approx(want, abs=1e-12)


def test_charfn_n2_m2_rational_direction():
    xs = [3 / 5, 4 / 5]
    for t in np.linspace(0.0, 8.0, 50):
        want = exact_modulus(xs, float(t), 2)
        assert charfn_modulus(xs, float(t), 2) == pytest.approx(want, abs=1e-12)


def test_charfn_exact_summation_suite():
    # all n <= 3, m <= 3 rational unit directions from small Pythagorean data
    fixtures = {
        1: [[1.0]],
        2: [[3 / 5, 4 / 5], [5 / 13, -12 / 13]],
        3: [[1 / 3, 2 / 3, 2 / 3], [2 / 7, 3 / 7, -6 / 7]],
    }
    for n, dirs in fixtures.items():
        for xs in dirs:
            for m in (1, 2, 3):
                for t in (0.3, 1.7, 5.2, 11.0):
                    want = exact_modulus(xs, t, m)
                    assert charfn_modulus(xs, t, m) == pytest.approx(want, abs=1e-12)


def test_esseen_trivial_upper_bound():
    x = random_unit_vector(12, Seed(61))
    for eps in (0.05, 0.2, 1.0):
        assert esseen_integral(x, 4, eps) <= 2.0 + 1e-9


def test_esseen_n1_fine_grid_oracle():
    # 10x-resolution fixed-grid quadrature of |(1+2cos t)/3| on [0, 10]
    ts = np.linspace(0.0, 10.0, 1_000_001)
    oracle = float(np.trapezoid(np.abs((1 + 2 * np.cos(ts)) / 3), ts))
    got = esseen_integral([1.0], 1, 0.1)
    assert got == pytest.approx(0.1 * 2 * oracle, rel=1e-5)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
def test_epsilon_must_be_positive_and_finite(eps):
    with pytest.raises(DomainError, match="finite"):
        esseen_integral([0.6, 0.8], 2, eps)
    mc = EstimateReport.from_counts(10, 1, 2, 2, 0.0)
    with pytest.raises(DomainError, match="finite"):
        SmallBallReport(eps, mc, 0.5, None)


def test_phi_integral_monotone_in_cutoff():
    x = random_unit_vector(8, Seed(62))
    values = [phi_integral(x, 4, t) for t in (2.0, 4.0, 8.0, 16.0)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_small_ball_probability_one_for_large_eps():
    n = 6
    x = random_unit_vector(n, Seed(63))
    rep = small_ball_probe(x, 3, math.sqrt(n), 2_000, Seed(64))
    assert rep.mc_probability.estimate == 1.0


def test_small_ball_single_coordinate_mass():
    x = RealVector.from_values([1.0, 0.0])
    rep = small_ball_probe(x, 1, 0.5, 100_000, Seed(65))
    lo, hi = wilson_interval(rep.mc_probability.hits, rep.mc_probability.trials, 0.999)
    assert lo <= 1 / 3 <= hi


def test_small_ball_esseen_consistency():
    # frozen-K regression: the MC mass never exceeds K * esseen_integral
    for i, eps in enumerate((0.1, 0.25, 0.5)):
        x = random_unit_vector(20, Seed(900 + i))
        rep = small_ball_probe(x, 8, eps, 20_000, Seed(910 + i))
        assert rep.mc_probability.estimate <= ESSEEN_K * rep.esseen_integral


def test_small_ball_lcd_bound_attached():
    x = random_unit_vector(30, Seed(66))
    params = LcdParams(alpha=0.1, beta=0.25)
    rep = small_ball_probe(x, 16, 0.05, 5_000, Seed(67), lcd_params=params)
    want = 0.05 / math.sqrt(0.25) + (0.1 * 0.25 * 16) ** (-0.1 * 30)
    assert rep.lcd_bound == pytest.approx(want, rel=1e-12)
    assert lcd_regime_bound(0.05, 16, 30, params) == rep.lcd_bound


@pytest.mark.parametrize("eps", [0.125, 0.5, 2.0])
def test_small_ball_hits_do_not_depend_on_the_projection_block(eps, monkeypatch):
    # the block size picks the BLAS kernel of `sample @ x`; the hits must
    # not depend on it, down to one row per projection
    x = random_unit_vector(100, Seed(68))
    hits = []
    for rows in (1, 7, charfunc._PROJECT_ROWS):
        monkeypatch.setattr(charfunc, "_PROJECT_ROWS", rows)
        hits.append(small_ball_probe(x, 16, eps, 12_000, Seed(69)).mc_probability.hits)
    assert hits[0] == hits[1] == hits[2] > 0
