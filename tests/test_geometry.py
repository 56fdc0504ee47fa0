import math
from fractions import Fraction

import numpy as np
import pytest

import intmat.geometry as geometry
from intmat.errors import DimensionError, DomainError
from intmat.geometry import (
    LcdParams,
    RealVector,
    is_compressible,
    lcd_scan,
    lcd_witness,
    normal_vector,
    normalize,
    random_unit_vector,
    sparse_residual,
)
from intmat.linalg import IntMatrix, kernel_basis
from intmat.sampling import Seed

from oracles import (
    brute_sparse_residual,
    exact_entries,
    fractional_part,
    lcd_scan_oracle,
    mp_entries,
    mp_fraction,
    mp_normalize,
    mp_sparse_residual,
)


def unit(values):
    return normalize(RealVector.from_values(values))


def test_normalize_3_4_5():
    v = normalize([3, 4])
    a, b = exact_entries(v)
    assert abs(a - Fraction(3, 5)) <= Fraction(1, 10**30)
    assert abs(b - Fraction(4, 5)) <= Fraction(1, 10**30)


def test_normalize_idempotent():
    v = unit([1.0, 2.0, 3.0])
    w = normalize(v)
    assert all(abs(a - b) < 1e-35 for a, b in zip(exact_entries(v), exact_entries(w)))
    assert abs(sum(e * e for e in exact_entries(w)) - 1) < 2.0**-63


def test_normalize_sums_squares_as_the_oracle_does():
    # 1 lies more than 256 bits below the other squares, so the oracle's sum
    # drops it; kept, it would break the rounding tie of 3 * 1.79e308**2
    values = [1.0] + [1.7976931348623155e308] * 3
    assert exact_entries(normalize(values)) == [mp_fraction(e) for e in mp_normalize(values)]


def test_normalize_zero_rejected():
    with pytest.raises(DomainError):
        normalize(RealVector.from_values([0.0, 0.0]))


def test_normalized_kernel_residual():
    rng = np.random.default_rng(30)
    found = 0
    while found < 30:
        rows = rng.integers(-5, 6, size=(4, 5)).tolist()
        m = IntMatrix.from_rows(rows)
        basis = kernel_basis(m)
        if len(basis) != 1:
            continue
        found += 1
        x = exact_entries(normalize(basis[0]))
        for i in range(4):
            dot = sum(int(rows[i][j]) * x[j] for j in range(5))
            assert abs(dot) <= Fraction(1, 2**64)


def test_normal_vector_coordinate_kernel():
    rows = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    v = normal_vector(rows)
    assert v.to_floats() == [0.0, 0.0, 1.0]


def test_normal_vector_orthogonal_to_rows():
    rng = np.random.default_rng(31)
    for _ in range(20):
        rows = rng.integers(-8, 9, size=(5, 6)).tolist()
        m = IntMatrix.from_rows(rows)
        x = exact_entries(normal_vector(m))
        for row in rows:
            dot = sum(int(a) * e for a, e in zip(row, x))
            assert abs(dot) <= Fraction(1, 2**64)


def test_normal_vector_degenerate_is_deterministic():
    # duplicated row: rank n-2, kernel dimension 2
    rows = IntMatrix.from_rows([[1, 2, 3, 4], [1, 2, 3, 4], [0, 1, 0, 2]])
    a = normal_vector(rows)
    b = normal_vector(rows)
    assert a == b
    # lowest leading free-column choice matches the first kernel basis vector
    assert a == normalize(kernel_basis(rows)[0])


def test_sparse_residual_basis_vector():
    e1 = RealVector.from_values([1.0, 0.0, 0.0])
    assert float(sparse_residual(e1, 1)) == 0.0


def test_sparse_residual_uniform_closed_form():
    x = unit([1.0] * 100)
    assert float(sparse_residual(x, 10)) == pytest.approx(math.sqrt(90 / 100), rel=1e-25)


def test_sparse_residual_matches_exhaustive_oracle():
    rng = np.random.default_rng(32)
    for n in (5, 8, 12):
        vals = rng.normal(size=n).tolist()
        x = RealVector.from_values(vals)
        for s in range(0, n + 1):
            got = float(sparse_residual(x, s))
            want = brute_sparse_residual(vals, s)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_sparse_residual_monotone_and_exhausted():
    x = unit(np.random.default_rng(33).normal(size=20).tolist())
    prev = float("inf")
    for s in range(21):
        cur = float(sparse_residual(x, s))
        assert cur <= prev + 1e-30
        prev = cur
    assert float(sparse_residual(x, 20)) == 0.0


def test_is_compressible_cases():
    p = LcdParams(alpha=0.1, beta=0.5)
    e1 = RealVector.from_values([1.0] + [0.0] * 19)
    assert is_compressible(e1, p)
    x = unit([1.0] * 100)
    assert not is_compressible(x, p)  # residual 0.9487 > 0.5


def test_is_compressible_boundary_is_inclusive():
    # residual equals beta exactly: removing the top entry of
    # (sqrt(3)/2, 1/2) leaves exactly 1/2, a dyadic value
    x = RealVector.from_values([math.sqrt(3) / 2, 0.5])
    params = LcdParams(alpha=0.5, beta=0.5)
    assert params.sparsity_count(2) == 1
    assert float(sparse_residual(x, 1)) == 0.5
    assert is_compressible(x, params)


def test_is_compressible_requires_unit_norm():
    with pytest.raises(DomainError):
        is_compressible(RealVector.from_values([2.0, 0.0]), LcdParams(0.5, 0.5))


def test_compressibility_invariant_under_permutation_and_sign():
    rng = np.random.default_rng(34)
    p = LcdParams(alpha=0.2, beta=0.3)
    for _ in range(50):
        vals = rng.normal(size=15)
        x = unit(vals.tolist())
        perm = rng.permutation(15)
        signs = rng.choice([-1.0, 1.0], size=15)
        y = unit((vals[perm] * signs).tolist())
        assert is_compressible(x, p) == is_compressible(y, p)


def test_fractional_part_conventions():
    assert fractional_part(1.6) == pytest.approx(-0.4)
    assert fractional_part(-0.5) == -0.5
    assert fractional_part(0.5) == -0.5
    assert fractional_part(3.0) == 0.0
    assert fractional_part(2.25) == 0.25
    for y in np.random.default_rng(35).normal(scale=10, size=200):
        f = fractional_part(float(y))
        assert -0.5 <= f < 0.5


def test_lcd_witness_trivial_cases():
    p = LcdParams(alpha=0.2, beta=0.1)
    e1 = RealVector.from_values([1.0] + [0.0] * 9)
    assert lcd_witness(e1, 1.0, p)
    n = 16
    x = unit([1.0] * n)
    assert lcd_witness(x, math.sqrt(n), p)


def test_lcd_witness_small_d_matches_compressibility():
    # for D below every entry scale, {Dx} = Dx and the witness reduces to
    # beta-compressibility of x itself
    rng = np.random.default_rng(36)
    p = LcdParams(alpha=0.2, beta=0.25)
    for _ in range(25):
        x = random_unit_vector(10, Seed(int(rng.integers(1 << 30))))
        assert lcd_witness(x, 1e-3, p) == is_compressible(x, p)


def test_lcd_witness_matches_definition_oracle():
    rng = np.random.default_rng(37)
    p = LcdParams(alpha=0.3, beta=0.4)
    for _ in range(20):
        x = random_unit_vector(9, Seed(int(rng.integers(1 << 30))))
        d = float(rng.uniform(0.1, 4.0))
        s = p.sparsity_count(9)
        frac = [fractional_part(d * e) for e in x.to_floats()]
        want = brute_sparse_residual(frac, s) <= p.beta * min(d, 3.0) + 1e-12
        assert lcd_witness(x, d, p) == want


def test_lcd_integer_vector_exact_multiple():
    # x = z/||z|| for integer z: D = ||z|| makes D*x integral
    z = [2, 3, 6]  # norm 7
    x = normalize(z)
    p = LcdParams(alpha=0.2, beta=0.05)
    assert lcd_witness(x, 7.0, p)


def test_lcd_scan_uniform_vector():
    n = 16
    x = unit([1.0] * n)
    p = LcdParams(alpha=0.2, beta=0.1)
    res = lcd_scan(x, p, d_max=2 * math.sqrt(n), grid_step=math.sqrt(n) / 8)
    assert res.found and res.lcd_upper <= math.sqrt(n) + 1e-9


def test_lcd_scan_e1():
    e1 = RealVector.from_values([1.0] + [0.0] * 7)
    res = lcd_scan(e1, LcdParams(0.2, 0.1), d_max=2.0, grid_step=0.25)
    assert res.found and res.lcd_upper <= 1.0


def test_lcd_scan_certificate_reverifies():
    n = 16
    x = unit([1.0] * n)
    p = LcdParams(alpha=0.2, beta=0.1)
    res = lcd_scan(x, p, d_max=8.0, grid_step=0.5)
    cert = res.certificate
    assert cert is not None and cert.d == res.lcd_upper
    assert lcd_witness(x, cert.d, p)
    assert cert.residual <= p.beta * min(cert.d, math.sqrt(n)) + 1e-15
    assert len(cert.sparse_support) == p.sparsity_count(n)


def test_lcd_floor_for_incompressible_vectors():
    # smoke version of the LCD floor property (full run in acceptance)
    n, alpha, beta = 30, 0.1, 0.25
    check = LcdParams(alpha=5 * alpha, beta=beta)
    scan = LcdParams(alpha=alpha, beta=beta)
    dmax = math.sqrt(alpha * n)
    done = 0
    i = 0
    while done < 25:
        i += 1
        x = random_unit_vector(n, Seed(9000 + i))
        if is_compressible(x, check):
            continue
        done += 1
        res = lcd_scan(x, scan, d_max=dmax, grid_step=1e-2)
        assert not res.found


def _lcd_equivalence_cases():
    """(vector, params, d_max, step): ties on the bound first, then random."""
    root3 = math.sqrt(3) / 2
    cases = [
        # residual exactly on the bound at the first grid point: D/2 = beta*D
        (RealVector.from_values([root3, 0.5]), LcdParams(0.5, 0.5), 1.0, 0.125),
        # {4x} = (1/2, ..., 1/2) leaves residual 1/2 = beta after 3 removals
        (unit([1.0] * 4), LcdParams(0.8, 0.5), 2.0, 0.5),
        # e1 with s = 0: |{0.8}| = 0.2 = beta * 0.8 up to the rounding of 0.8
        (RealVector.from_values([1.0] + [0.0] * 9), LcdParams(0.05, 0.25), 2.0, 0.2),
        (RealVector.from_values([1.0] + [0.0] * 7), LcdParams(0.2, 0.1), 2.0, 0.25),
        # all-ones at D = sqrt(n): D*x is integral
        (unit([1.0] * 16), LcdParams(0.2, 0.1), 8.0, 0.5),
        (unit([1.0] * 7), LcdParams(0.05, 0.05), 2 * math.sqrt(7), math.sqrt(7) / 4),
        (normalize([2, 3, 6]), LcdParams(0.2, 0.05), 7.0, 0.5),
    ]
    rng = np.random.default_rng(39)
    for i in range(120):
        n = int(rng.integers(2, 21))
        kind = i % 4
        if kind == 0:
            x = random_unit_vector(n, Seed(int(rng.integers(1 << 30))))
        elif kind == 1:
            z = [int(v) for v in rng.integers(-2, 3, n)]
            z[0] = z[0] or 1
            x = normalize(z)
        elif kind == 2:
            v = 1e-3 * rng.standard_normal(n)
            v[: max(1, n // 5)] += 1.0
            x = unit(v.tolist())
        else:
            x = unit([1.0] * n)
        p = LcdParams(float(rng.choice([0.05, 0.2, 0.3, 0.5])), float(rng.choice([0.05, 0.1, 0.25, 0.5])))
        step = float(rng.choice([0.01, 0.05, 0.25, 1 / 3]))
        d_max = max(step, float(rng.choice([1.0, 2.5, math.sqrt(n), 7.0])))
        cases.append((x, p, d_max, step))
    return cases


def test_lcd_scan_matches_mpmath_oracle(monkeypatch):
    # the float-first scan must reproduce the per-point mpmath scan exactly,
    # certificate included, and send the ties to mpmath for confirmation
    confirmations = 0
    witness = geometry.lcd_witness

    def counted(*args):
        nonlocal confirmations
        confirmations += 1
        return witness(*args)

    cases = _lcd_equivalence_cases()
    found = 0
    for x, p, d_max, step in cases:
        monkeypatch.setattr(geometry, "lcd_witness", counted)
        got = lcd_scan(x, p, d_max=d_max, grid_step=step)
        monkeypatch.setattr(geometry, "lcd_witness", witness)
        want = lcd_scan_oracle(x, p, d_max=d_max, grid_step=step)
        assert got == want, (x.to_floats(), p, d_max, step)
        found += got.found
    assert len(cases) >= 100
    assert 0 < found < len(cases)
    assert confirmations >= 3


def _near_tie():
    # the tail (1/2, 2**-200) has squared norm 1/4 + 2**-400 > beta**2 = 1/4,
    # and that sum rounds to 1/4 at 128 bits
    return RealVector.from_values([math.sqrt(3) / 2, 0.5, 2.0**-200]), LcdParams(0.34, 0.5)


def test_compressibility_is_exact_at_a_near_tie():
    x, p = _near_tie()
    assert p.sparsity_count(3) == 1
    tail = sorted(e * e for e in exact_entries(x))[:2]
    assert sum(tail) > Fraction(p.beta) ** 2
    # the 128-bit residual sits on the bound, and is still the one printed
    assert mp_sparse_residual(mp_entries(x), 1) == p.beta
    assert sparse_residual(x, 1) == p.beta
    assert not is_compressible(x, p)


def test_lcd_witness_is_exact_at_a_near_tie():
    # every |x_i / 4| < 1/2, so {x/4} = x/4: the same near-tie, scaled
    x, p = _near_tie()
    tail = sorted((e / 4) ** 2 for e in exact_entries(x))[:2]
    assert sum(tail) > (Fraction(p.beta) / 4) ** 2
    assert mp_sparse_residual([e / 4 for e in mp_entries(x)], 1) == p.beta / 4
    assert not lcd_witness(x, 0.25, p)
    # the float pass cannot tell, so the scan confirms and finds nothing
    assert not lcd_scan(x, p, d_max=0.25, grid_step=0.25).found


def test_lcd_scan_confirms_and_certifies_a_point_once(monkeypatch):
    # at D = 1/8 the residual equals the bound: the float pass leaves it to
    # lcd_witness, which decides it exactly, and the certificate is formed
    # once, for that point alone
    calls = []
    for name in ("lcd_witness", "_lcd_residual_sq", "_lcd_certificate"):
        def counted(*args, _f=getattr(geometry, name), _name=name):
            calls.append((_name, args[1]))
            return _f(*args)
        monkeypatch.setattr(geometry, name, counted)
    x = RealVector.from_values([math.sqrt(3) / 2, 0.5])
    res = lcd_scan(x, LcdParams(0.5, 0.5), d_max=1.0, grid_step=0.125)
    assert res.found and res.lcd_upper == 0.125
    assert calls == [("lcd_witness", 0.125), ("_lcd_residual_sq", 0.125),
                     ("_lcd_certificate", 0.125)]


def test_lcd_scan_validation():
    x = unit([1.0] * 4)
    with pytest.raises(DomainError):
        lcd_scan(x, LcdParams(0.3, 0.1), d_max=1.0, grid_step=2.0)


def test_real_vector_validation():
    with pytest.raises(DomainError):
        RealVector.from_values([1.0, math.inf])
    with pytest.raises(DimensionError):
        RealVector((), 0)
    with pytest.raises(DomainError):
        LcdParams(alpha=0.0, beta=0.5)

