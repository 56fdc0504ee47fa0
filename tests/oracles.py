"""Independent reference implementations used only by the tests.

These deliberately avoid the library's algorithms: determinants expand by
cofactors, rank/kernel go through a plain Fraction RREF, MDS checks loop
over every minor, and the sparse residual minimizes over every support.
Former library code paths replaced by faster ones stay here as references.
"""

from fractions import Fraction
from itertools import combinations
import math


def cofactor_det(rows):
    """Exact determinant by first-row cofactor expansion."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j] != 0:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += sign * rows[0][j] * cofactor_det(minor)
        sign = -sign
    return total


def rref(rows):
    """Reduced row echelon form over Fractions; returns (rref, pivot_cols)."""
    a = [[Fraction(v) for v in r] for r in rows]
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        f = a[r][c]
        a[r] = [v / f for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rref_rank(rows):
    return len(rref(rows)[1])


def rref_kernel(rows):
    """Kernel basis from the RREF parameterization, one vector per free column."""
    a, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(v)
    return basis


def kernel_basis_oracle(m):
    """kernel_basis from `rref_kernel`: each vector cleared to integers,
    reduced by its content and given a positive leading coordinate, as a
    tuple of ints."""
    basis = []
    for x in rref_kernel(m.to_lists()):
        denom = math.lcm(*(v.denominator for v in x))
        ints = [int(v * denom) for v in x]
        content = math.gcd(*ints)
        if next(v for v in ints if v) < 0:
            content = -content
        basis.append(tuple(v // content for v in ints))
    return basis


def enumerate_singular_fraction(n, m):
    """The library's former exact_singular_fraction: every one of the
    (2m+1)**(n*n) matrices in row-major odometer order, in chunks of 2**16,
    each decided by the Monte Carlo kernel: for n <= 8 the determinants
    modulo 2**16, exact when every |det| < 2**15, then the mod-p filter and
    big-integer Bareiss on every matrix neither can prove nonsingular."""
    import numpy as np

    from intmat.singularity import _count_singular

    width = 2 * m + 1
    total = width ** (n * n)
    chunk = 1 << 16
    singular = 0
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = np.empty((stop - start, n * n), dtype=np.int64)
        for e in range(n * n - 1, -1, -1):
            idx, digits[:, e] = np.divmod(idx, width)
        singular += _count_singular(digits.reshape(-1, n, n) - m)
    return Fraction(singular, total)


def matvec(m, v):
    """Exact product of an IntMatrix and an integer vector, as a tuple."""
    assert m.cols == len(v)
    return tuple(sum(m.at(i, j) * e for j, e in enumerate(v)) for i in range(m.rows))


def sylvester_hadamard(n):
    """The n x n Sylvester-Hadamard matrix (n a power of two) as int64: the
    largest |det| of all +-1 matrices, n**(n/2)."""
    import numpy as np

    h = np.ones((1, 1), dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def brute_is_mds(rows):
    """Check every k-column minor with the cofactor determinant."""
    k, n = len(rows), len(rows[0])
    for cols in combinations(range(n), k):
        sub = [[r[c] for c in cols] for r in rows]
        if cofactor_det(sub) == 0:
            return False, cols
    return True, None


def brute_sparse_residual(values, s):
    """Minimum l2 norm of x restricted off any s-element support."""
    n = len(values)
    if s >= n:
        return 0.0
    best = math.inf
    for support in combinations(range(n), s):
        rest = [values[i] for i in range(n) if i not in support]
        best = min(best, math.sqrt(sum(v * v for v in rest)))
    return best


def top_singular_value_2x2(rows, scale):
    """Closed-form largest singular value of a scaled 2x2 matrix."""
    a, b = rows[0][0] / scale, rows[0][1] / scale
    c, d = rows[1][0] / scale, rows[1][1] / scale
    # eigenvalues of R^T R via the quadratic formula
    tr = a * a + b * b + c * c + d * d
    det = (a * d - b * c) ** 2
    disc = math.sqrt(max(tr * tr - 4 * det, 0.0))
    return math.sqrt((tr + disc) / 2)


def fractional_part(y):
    """{y} = y - round(y) with round-half-up, so the result lies in
    [-1/2, 1/2): the convention of lcd_witness, in float64."""
    return float(y) - math.floor(y + 0.5)


def exact_entries(x):
    """The entries of a RealVector as exact Fractions."""
    return [Fraction(m) * Fraction(2) ** x.exponent for m in x.mantissas]


def round_fraction(q, bits):
    """q rounded to `bits` significant bits, half to even."""
    if q == 0:
        return q
    sign, q = (-1 if q < 0 else 1), abs(q)
    e = q.numerator.bit_length() - q.denominator.bit_length()  # 2**(e-1) < q < 2**(e+1)
    scaled = q * Fraction(2) ** (bits - e)
    if scaled >= 2**bits:
        e, scaled = e + 1, scaled / 2
    return sign * round(scaled) * Fraction(2) ** (e - bits)


# The library's former geometry arithmetic: mpmath at 128 bits. The integer
# replay in intmat.geometry must give the same values and print the same
# bytes.
MP_PRECISION = 128


def mp_entries(x):
    """A RealVector's entries as mpmath reals (exact: each has at most 128
    significant bits)."""
    import mpmath

    with mpmath.workprec(MP_PRECISION):
        return [mpmath.mpf((m, x.exponent)) for m in x.mantissas]


def mp_fraction(e):
    """An mpf as an exact Fraction."""
    man, exp = e.man_exp  # the magnitude's
    return (-1 if e < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def mp_parse(token):
    """mpmath's reading of a decimal token at 128 bits. Up to a decimal
    exponent of 400 in magnitude (after the point is moved to the end of the
    digits) this is the exact value rounded once, half to even; past it
    mpmath rounds the digits and the power of ten separately, then again."""
    import mpmath

    with mpmath.workprec(MP_PRECISION):
        return mpmath.mpf(token)


def mp_normalize(values):
    """v / ||v||_2 with mpf entries: the former `normalize`."""
    import mpmath

    with mpmath.workprec(MP_PRECISION):
        entries = [mpmath.mpf(v) for v in values]
        norm = mpmath.sqrt(mpmath.fsum(e * e for e in entries))
        return [e / norm for e in entries]


def mp_format(entries, digits):
    """The former `format_vector` on mpf entries."""
    import mpmath

    with mpmath.workprec(MP_PRECISION):
        return "".join([f"{len(entries)}\n"] + [mpmath.nstr(e, digits) + "\n" for e in entries])


def mp_sparse_residual(entries, s):
    """The former `sparse_residual`, as a float."""
    import mpmath

    with mpmath.workprec(MP_PRECISION):
        mags = sorted((abs(e) for e in entries), reverse=True)
        return float(mpmath.sqrt(mpmath.fsum(e * e for e in mags[s:])))


def lcd_scan_oracle(x, p, d_max, grid_step):
    """The LCD scan one grid point at a time, each point decided by the
    library's exact lcd_witness.

    This is the library's former lcd_scan; the float-first scan must agree
    with it on lcd_upper and on every certificate field. The certificate is
    computed here, in mpmath: {d*x} at 128 bits, its s largest magnitudes
    (the lower index first among ties) as the support, the l2 norm of the
    rest as the residual.
    """
    import mpmath

    from intmat.geometry import LcdCertificate, LcdScanResult, lcd_witness

    s = p.sparsity_count(len(x))
    steps = int(d_max / grid_step + 1e-9)
    entries = mp_entries(x)
    for j in range(1, steps + 1):
        d = j * grid_step
        if lcd_witness(x, d, p):
            with mpmath.workprec(MP_PRECISION):
                ys = [mpmath.mpf(d) * e for e in entries]
                frac = [y - mpmath.floor(y + mpmath.mpf(1) / 2) for y in ys]
                order = sorted(range(len(frac)), key=lambda i: (-abs(frac[i]), i))
                rest = mpmath.sqrt(mpmath.fsum(frac[i] * frac[i] for i in order[s:]))
            return LcdScanResult(
                lcd_upper=d,
                grid_step=grid_step,
                d_max=d_max,
                certificate=LcdCertificate(d, tuple(sorted(order[:s])), float(rest)),
            )
    return LcdScanResult(lcd_upper=math.inf, grid_step=grid_step, d_max=d_max, certificate=None)


def uniform_ints(gen, width, count):
    """`count` uniform draws from {0, ..., width-1}: the stream-v1 sampler.

    Rejection from the smallest enclosing power-of-two range of raw 64-bit
    Philox words, so no modulo bias; width = 1 gives all zeros. The library
    now uses numpy's bounded integers instead.
    """
    import numpy as np

    from intmat.sampling import raw_u64

    assert width >= 1
    if width == 1:
        return np.zeros(count, dtype=np.int64)
    mask = (1 << (width - 1).bit_length()) - 1
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        need = count - filled
        # oversample by the expected rejection rate plus slack
        batch = need * (mask + 1) // width + 16
        draw = raw_u64(gen, batch) & mask
        draw = draw[draw < width]
        take = min(draw.size, need)
        out[filled : filled + take] = draw[:take].astype(np.int64)
        filled += take
    return out
