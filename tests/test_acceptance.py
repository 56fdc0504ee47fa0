"""Acceptance suite: one test per criterion, every tolerance pinned.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion as it completes.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from intmat.charfunc import charfn_modulus, f_grid, small_ball_probe
from intmat.errors import GenerationError
from intmat.geometry import (
    LcdParams,
    is_compressible,
    lcd_scan,
    normal_vector,
    random_unit_vector,
)
from intmat.linalg import IntMatrix, det, kernel_basis
from intmat.mds import generate_mds, is_mds
from intmat.sampling import EntryDistribution, Seed, generator
from intmat.singularity import (
    exact_singular_fraction,
    fit_exponent,
    lower_bound,
    mc_singularity,
    wilson_interval,
)

from oracles import cofactor_det, column, matvec, rref_kernel, rref_rank
from test_charfunc import exact_modulus

# pilot-frozen constant for criterion 9 (max estimate/eps over the grid)
SMALLBALL_PILOT_RATIO = 1.335


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def test_c01_exact_enumeration():
    t0 = time.perf_counter()
    frac21 = exact_singular_fraction(2, 1)
    t21 = time.perf_counter() - t0
    vals = (-1, 0, 1)
    oracle_hits = sum(
        1 for a, b, c, d in product(vals, repeat=4) if cofactor_det([[a, b], [c, d]]) == 0
    )
    ok = frac21 == Fraction(oracle_hits, 81) and t21 < 1.0

    t0 = time.perf_counter()
    frac31 = exact_singular_fraction(3, 1)
    t31 = time.perf_counter() - t0
    ok = ok and t31 < 10.0 and frac31 >= lower_bound(3, 1) == Fraction(1, 27)
    _report(
        "C1 exact-enumeration",
        ok,
        f"p(2,1)={frac21} in {t21:.3f}s, p(3,1)={frac31} in {t31:.3f}s",
    )


def test_c02_mc_oracle_agreement():
    exact = float(exact_singular_fraction(2, 1))
    dist = EntryDistribution.uniform_symmetric(1)
    r1 = mc_singularity(2, dist, 100_000, Seed(20260810), threads=1)
    r8 = mc_singularity(2, dist, 100_000, Seed(20260810), threads=8)
    lo, hi = wilson_interval(r1.hits, r1.trials, confidence=0.999)
    same = (r1.trials, r1.hits, r1.estimate, r1.ci_low, r1.ci_high) == (
        r8.trials, r8.hits, r8.estimate, r8.ci_low, r8.ci_high,
    )
    ok = lo <= exact <= hi and same
    _report(
        "C2 mc-oracle-agreement",
        ok,
        f"exact={exact:.5f} in 99.9% CI [{lo:.5f},{hi:.5f}], thread-invariant={same}",
    )


def test_c03_scaling_exponent():
    t0 = time.perf_counter()
    reports = {}
    points = []
    for n in (2, 3, 4):
        for m in (2, 4, 8):
            r = mc_singularity(
                n, EntryDistribution.uniform_symmetric(m), 1_000_000, Seed(31337), threads=4
            )
            reports[(n, m)] = r
            points.append((n, m, r.estimate))
    elapsed = time.perf_counter() - t0
    fit = fit_exponent(points)
    ok = elapsed < 600.0 and fit.c_hat > 0.0
    # non-increasing beyond CI overlap: no significant increase allowed
    for n in (2, 3, 4):
        for m1, m2 in ((2, 4), (4, 8)):
            ok = ok and not (reports[(n, m2)].ci_low > reports[(n, m1)].ci_high)
    for m in (2, 4, 8):
        for n1, n2 in ((2, 3), (3, 4)):
            ok = ok and not (reports[(n2, m)].ci_low > reports[(n1, m)].ci_high)
    _report("C3 scaling", ok, f"c_hat={fit.c_hat:.4f} in {elapsed:.1f}s")


def test_c04_mds_generation():
    t0 = time.perf_counter()
    rep = generate_mds(4, 8, m=16, max_attempts=64, seed=Seed(2026))
    elapsed = time.perf_counter() - t0
    rows = rep.matrix.to_lists()
    scanned = 0
    all_nonsingular = True
    for cols in combinations(range(8), 4):
        scanned += 1
        sub = [[row[c] for c in cols] for row in rows]
        all_nonsingular = all_nonsingular and cofactor_det(sub) != 0
    ok = rep.attempts <= 64 and scanned == 70 and all_nonsingular and elapsed < 5.0
    _report(
        "C4 mds-generation",
        ok,
        f"attempts={rep.attempts}, 70-minor scan clean, {elapsed:.2f}s",
    )


def test_c05_pigeonhole_forbids_generation():
    # alphabet {-1,0,1} has size 3 < sqrt(20/2); every attempt must fail
    try:
        generate_mds(2, 20, m=1, max_attempts=100, seed=Seed(555))
        all_failed = False
        witnessed = False
    except GenerationError as err:
        all_failed = err.attempts == 100
        witnessed = err.last_witness is not None
    # replay the same attempt stream and inspect every witness
    gen = generator(Seed(555))
    dist = EntryDistribution.uniform_symmetric(1)
    witness_ok = True
    duplicate_ok = True
    for _ in range(100):
        flat = dist.sample_array(gen, 40)
        matrix = IntMatrix(2, 20, tuple(int(v) for v in flat))
        verdict = is_mds(matrix)
        if verdict.is_mds or verdict.witness is None:
            witness_ok = False
            continue
        i, j = verdict.witness
        ci, cj = column(matrix, i), column(matrix, j)
        # the witnessed 2-column prefixes are scalar-dependent (the k=2
        # prefix is the whole column), i.e. the minor is exactly singular
        witness_ok = witness_ok and ci[0] * cj[1] - ci[1] * cj[0] == 0
        # and the pigeonhole mechanism is visible: some literal duplicate pair
        duplicate_ok = duplicate_ok and any(
            column(matrix, a) == column(matrix, b) for a, b in combinations(range(20), 2)
        )
    ok = all_failed and witnessed and witness_ok and duplicate_ok
    _report("C5 pigeonhole", ok, "100/100 attempts failed with singular-pair witnesses")


def test_c06_compressibility_probe():
    n, m = 40, 16
    params = LcdParams(alpha=0.1, beta=1 / math.sqrt(m))
    dist = EntryDistribution.uniform_symmetric(m)
    gen = generator(Seed(606))
    compressible = 0
    for _ in range(500):
        flat = dist.sample_array(gen, (n - 1) * n)
        rows = IntMatrix(n - 1, n, tuple(int(v) for v in flat))
        if is_compressible(normal_vector(rows), params):
            compressible += 1
    freq = compressible / 500
    ok = freq <= 0.05
    _report("C6 compressibility", ok, f"frequency={freq:.4f} over 500 normal vectors")


def test_c07_lcd_floor():
    n, alpha, beta = 50, 0.1, 0.25
    incompressibility = LcdParams(alpha=5 * alpha, beta=beta)
    scan_params = LcdParams(alpha=alpha, beta=beta)
    d_max = math.sqrt(alpha * n)
    verified = 0
    infinite = 0
    attempt = 0
    while verified < 200 and attempt < 2000:
        attempt += 1
        x = random_unit_vector(n, Seed(4000 + attempt))
        if is_compressible(x, incompressibility):
            continue
        verified += 1
        result = lcd_scan(x, scan_params, d_max=d_max, grid_step=1e-2)
        if not result.found:
            infinite += 1
    ok = verified == 200 and infinite == 200
    _report("C7 lcd-floor", ok, f"{infinite}/{verified} scans returned the infinity marker")


def test_c08_characteristic_function():
    fixtures = {
        1: [[1.0]],
        2: [[3 / 5, 4 / 5], [5 / 13, -12 / 13]],
        3: [[1 / 3, 2 / 3, 2 / 3], [2 / 7, 3 / 7, -6 / 7]],
    }
    worst = 0.0
    for n, dirs in fixtures.items():
        for xs in dirs:
            for m in (1, 2, 3):
                for t in (0.3, 1.7, 5.2, 11.0):
                    err = abs(charfn_modulus(xs, t, m) - exact_modulus(xs, t, m))
                    worst = max(worst, err)
    oracle_ok = worst <= 1e-12

    violations = 0
    ys = np.linspace(-5.0, 5.0, 10_000)
    half = np.linspace(0.0, 0.5, 10_000)
    for m in range(1, 65):
        vals = f_grid(ys, m)
        violations += int(np.count_nonzero(np.abs(vals - f_grid(-ys, m)) > 1e-12))
        violations += int(np.count_nonzero(np.abs(vals - f_grid(ys + 1.0, m)) > 1e-12))
        violations += int(np.count_nonzero((vals < 0) | (vals > 1)))
        tail = half[half >= 1.0 / m]
        if tail.size:
            violations += int(
                np.count_nonzero(f_grid(tail, m) > 1.0 / (math.pi * m * tail) + 1e-15)
            )
    ok = oracle_ok and violations == 0
    _report(
        "C8 characteristic-function",
        ok,
        f"oracle max err={worst:.2e}, grid violations={violations}",
    )


def test_c09_small_ball_linearity():
    n, m = 100, 16
    eps0 = math.sqrt(math.log2(m)) / m
    ratios = []
    for d in range(10):
        x = random_unit_vector(n, Seed(1000 + d))
        for j in range(4):
            eps = eps0 * (2**j)
            rep = small_ball_probe(x, m, eps, 100_000, Seed(500 + 7 * d + j))
            ratios.append(rep.mc_probability.estimate / eps)
    peak = max(ratios)
    ok = SMALLBALL_PILOT_RATIO / 2 <= peak <= SMALLBALL_PILOT_RATIO * 2
    _report(
        "C9 small-ball-linearity",
        ok,
        f"max estimate/eps={peak:.4f} vs frozen {SMALLBALL_PILOT_RATIO}",
    )


def test_c10_exact_linear_algebra_suite():
    rng = np.random.default_rng(1010)
    checks = 0
    kernel_exact = True
    for _ in range(4000):
        nn = int(rng.integers(1, 6))
        rows = rng.integers(-4, 5, size=(nn, nn)).tolist()
        assert det(IntMatrix.from_rows(rows)) == cofactor_det(rows)
        checks += 1
    for _ in range(3000):
        r = int(rng.integers(1, 6))
        c = int(rng.integers(1, 6))
        rows = rng.integers(-3, 4, size=(r, c)).tolist()
        # the library's rank is the codimension of its kernel
        assert c - len(kernel_basis(IntMatrix.from_rows(rows))) == rref_rank(rows)
        checks += 1
    for _ in range(3000):
        r = int(rng.integers(1, 6))
        c = int(rng.integers(1, 6))
        rows = rng.integers(-3, 4, size=(r, c)).tolist()
        m = IntMatrix.from_rows(rows)
        basis = kernel_basis(m)
        assert len(basis) == len(rref_kernel(rows))
        assert len(basis) + rref_rank(rows) == c
        for v in basis:
            residual = matvec(m, v)
            kernel_exact = kernel_exact and all(e == 0 for e in residual)
        checks += 1
    ok = checks == 10_000 and kernel_exact
    _report("C10 exact-linalg-suite", ok, f"{checks} oracle-equivalence checks")
