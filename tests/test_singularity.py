from fractions import Fraction
from itertools import product

import pytest

import intmat.singularity
from intmat.errors import BudgetExceededError, DomainError, FitError
from intmat.sampling import EntryDistribution, Seed
from intmat.singularity import (
    EstimateReport,
    exact_singular_fraction,
    fit_exponent,
    lower_bound,
    mc_singularity,
    schwartz_zippel_bound,
    wilson_interval,
)

from oracles import cofactor_det, enumerate_singular_fraction


def test_exact_fraction_n1():
    assert exact_singular_fraction(1, 1) == Fraction(1, 3)
    assert exact_singular_fraction(1, 5) == Fraction(1, 11)


def test_exact_fraction_n2_m1_oracle():
    vals = (-1, 0, 1)
    singular = sum(
        1
        for a, b, c, d in product(vals, repeat=4)
        if cofactor_det([[a, b], [c, d]]) == 0
    )
    frac = exact_singular_fraction(2, 1)
    assert frac == Fraction(singular, 81)
    # equal-rows injection: at least 3^(4-2) singular matrices
    assert singular >= 9


# Every (n, m) whose full enumeration is at most 2 * 10**6 matrices, for
# n <= 8: n = 1 up to m = 18 and at m = 999,999, n = 2 up to m = 18, n = 3
# up to m = 2, and m = 0 beyond.
ORACLE_GRID = [(1, 999_999)] + [
    (n, m) for n in range(1, 9) for m in range(19) if (2 * m + 1) ** (n * n) <= 2 * 10**6
]


@pytest.mark.parametrize("n, m", ORACLE_GRID)
def test_exact_fraction_matches_full_enumeration(n, m):
    assert exact_singular_fraction(n, m) == enumerate_singular_fraction(n, m)


def test_exact_fraction_pinned_values():
    # both checked once against enumerate_singular_fraction (43 M and 40 M
    # matrices), which is too slow to run here
    assert exact_singular_fraction(4, 1) == Fraction(1677689, 4782969)
    assert exact_singular_fraction(3, 3) == Fraction(2840071, 40353607)


@pytest.mark.parametrize("n, m, frac", [
    (2, 2, Fraction(129, 625)), (3, 1, Fraction(875, 2187)), (3, 2, Fraction(305381, 1953125)),
])
def test_exact_fraction_python_int_fallback(monkeypatch, n, m, frac):
    monkeypatch.setattr(intmat.singularity, "batch_det_fits_int64", lambda n, m: False)
    assert exact_singular_fraction(n, m) == frac


def test_exact_fraction_budget():
    with pytest.raises(BudgetExceededError) as err:
        exact_singular_fraction(4, 4)
    assert err.value.required == 9**16


def test_lower_bound_values():
    assert lower_bound(2, 1) == Fraction(1, 9)
    assert lower_bound(3, 2) == Fraction(1, 125)
    with pytest.raises(DomainError):
        lower_bound(1, 1)


def test_lower_bound_below_exact():
    assert exact_singular_fraction(2, 1) >= lower_bound(2, 1)
    assert exact_singular_fraction(2, 2) >= lower_bound(2, 2)


def test_schwartz_zippel_values():
    assert schwartz_zippel_bound(2, 8) == Fraction(1, 4)
    assert schwartz_zippel_bound(3, 2) == Fraction(1)
    assert exact_singular_fraction(2, 2) <= schwartz_zippel_bound(2, 2)


def test_bounds_sandwich_exact_fraction():
    for n, m in [(2, 1), (2, 2), (2, 3), (3, 1)]:
        frac = exact_singular_fraction(n, m)
        assert lower_bound(n, m) <= frac <= schwartz_zippel_bound(n, m)


def test_mc_scalar_case():
    # a 1x1 matrix is singular iff its entry is 0, mass 1/3
    r = mc_singularity(1, EntryDistribution.uniform_symmetric(1), 100_000, Seed(8))
    assert r.ci_low <= 1 / 3 <= r.ci_high


def test_mc_matches_exact_within_999_ci():
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        exact = float(exact_singular_fraction(n, m))
        r = mc_singularity(n, EntryDistribution.uniform_symmetric(m), 100_000, Seed(99))
        lo, hi = wilson_interval(r.hits, r.trials, confidence=0.999)
        assert lo <= exact <= hi


def test_mc_above_lower_bound_minus_noise():
    r = mc_singularity(2, EntryDistribution.uniform_symmetric(1), 100_000, Seed(5))
    p = float(lower_bound(2, 1))
    sigma = (p * (1 - p) / r.trials) ** 0.5
    assert r.estimate >= p - 3 * sigma


def test_mc_deterministic_across_threads():
    dist = EntryDistribution.uniform_symmetric(2)
    r1 = mc_singularity(3, dist, 70_000, Seed(21), threads=1)
    r8 = mc_singularity(3, dist, 70_000, Seed(21), threads=8)
    assert (r1.trials, r1.hits, r1.estimate, r1.ci_low, r1.ci_high) == (
        r8.trials,
        r8.hits,
        r8.estimate,
        r8.ci_low,
        r8.ci_high,
    )


def test_mc_custom_distribution():
    # Pr[singular 1x1] = Pr[sum = 0]
    from intmat.sampling import vempala_sum_distribution

    dist = vempala_sum_distribution(Fraction(1, 2), 2)
    p0 = float(dist.pmf[2])
    r = mc_singularity(1, dist, 50_000, Seed(3))
    assert r.m is None
    lo, hi = wilson_interval(r.hits, r.trials, confidence=0.999)
    assert lo <= p0 <= hi


def test_monotone_in_n_and_m_beyond_ci_overlap():
    reports = {}
    for n in (2, 3, 4, 5, 6):
        reports[n] = mc_singularity(n, EntryDistribution.uniform_symmetric(2), 20_000, Seed(6))
    for n in (2, 3, 4, 5):
        assert not (reports[n + 1].ci_low > reports[n].ci_high)
    by_m = {}
    for m in (1, 2, 4, 8):
        by_m[m] = mc_singularity(3, EntryDistribution.uniform_symmetric(m), 20_000, Seed(7))
    for a, b in [(1, 2), (2, 4), (4, 8)]:
        assert not (by_m[b].ci_low > by_m[a].ci_high)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.01
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0 and lo > 0.99
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi


def test_zero_hit_rule_of_three():
    r = EstimateReport.from_counts(1000, 0, Seed(1), 2, 1, 0.0)
    assert r.estimate == 0.0
    assert r.ci_high == pytest.approx(3 / 1000)
    assert r.ci_low == 0.0


def test_report_invariants():
    r = EstimateReport.from_counts(5000, 17, Seed(1), 3, 2, 0.1)
    assert r.ci_low <= r.estimate <= r.ci_high
    assert r.estimate_fraction() == Fraction(17, 5000)
    with pytest.raises(DomainError):
        EstimateReport.from_counts(10, 11, Seed(1), 2, 1, 0.0)


def test_fit_exact_model_recovery():
    pts = [(n, m, m ** (-0.5 * n)) for n in (2, 3, 4) for m in (2, 4, 8)]
    fit = fit_exponent(pts)
    assert abs(fit.c_hat - 0.5) < 1e-9
    assert fit.residual < 1e-12


def test_fit_noisy_model_recovery():
    import numpy as np

    rng = np.random.default_rng(4)
    pts = [
        (n, m, m ** (-0.5 * n) * (1 + 0.1 * rng.uniform(-1, 1)))
        for n in (2, 3, 4)
        for m in (2, 4, 8)
    ]
    fit = fit_exponent(pts)
    assert 0.4 <= fit.c_hat <= 0.6


def test_fit_from_pilot_estimates_positive():
    pts = []
    for n in (2, 3):
        for m in (2, 4, 8):
            r = mc_singularity(n, EntryDistribution.uniform_symmetric(m), 20_000, Seed(44))
            pts.append((n, m, r.estimate))
    assert fit_exponent(pts).c_hat > 0


def test_fit_preconditions():
    with pytest.raises(FitError):
        fit_exponent([(2, 2, 0.1), (3, 2, 0.0), (4, 2, 0.0)])
    with pytest.raises(FitError):
        fit_exponent([(2, 1, 0.1), (3, 2, 0.05), (4, 2, 0.01)])
