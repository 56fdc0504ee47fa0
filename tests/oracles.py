"""Independent reference implementations used only by the tests.

These deliberately avoid the library's algorithms: determinants expand by
cofactors, rank/kernel go through a plain Fraction RREF, MDS checks loop
over every minor, and the sparse residual minimizes over every support.
Former library code paths replaced by faster ones stay here as references.
"""

from collections import Counter
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


def span_count_singular_fraction(n, m):
    """The library's former exact_singular_fraction for n >= 2 and m >= 1,
    unreduced: the row stacks (the first n-1 rows) tallied in a Counter by
    sorted |c|, c their signed maximal minors, and each distinct key
    multiplied against every one of the (2m+1)**n last rows in uint64."""
    import numpy as np

    from intmat.linalg import leading_minors
    from intmat.singularity import _cube

    width, length = 2 * m + 1, n * (n - 1)
    stacks = width**length
    tally = Counter()
    for start in range(0, stacks, 1 << 16):
        a = _cube(start, min(start + (1 << 16), stacks), m, length).reshape(n - 1, n, -1)
        minors = np.stack(leading_minors(a, n - 1), axis=1).view(np.int64)
        tally.update(map(tuple, np.sort(np.abs(minors), axis=1).tolist()))
    last = _cube(0, width**n, m, n)
    keys = np.array(list(tally), dtype=np.uint64)
    hits = np.count_nonzero(keys @ last == 0, axis=1)
    singular = sum(reps * int(h) for reps, h in zip(tally.values(), hits))
    return Fraction(singular, width ** (n * n))


def totient_singular_fraction(m):
    """Pr[M singular] for 2 x 2 matrices over {-m..m}. ad = bc exactly when
    (a, c, d, b) = (xu, xv, yu, yv) with gcd(u, v) = 1, so the singular
    count is (4m+1)**2 + 8 * sum_{k=1..m} (2 phi(k) - [k = 1]) * (m // k)**2,
    with Euler's phi from a sieve."""
    phi = list(range(m + 1))
    for p in range(2, m + 1):
        if phi[p] == p:  # p is prime
            for k in range(p, m + 1, p):
                phi[k] -= phi[k] // p
    terms = sum((2 * phi[k] - (k == 1)) * (m // k) ** 2 for k in range(1, m + 1))
    return Fraction((4 * m + 1) ** 2 + 8 * terms, (2 * m + 1) ** 4)


def divisor_singular_fraction(m):
    """Pr[M singular] for 2 x 2 matrices over {-m..m} from N(v), the number
    of (a, d) in [1, m]**2 with ad = v: either ad = bc = 0, in (4m+1)**2
    ways, or ad = bc = +-v for some v >= 1, in 8 * N(v)**2 ways (the sign of
    the product, and of a and of b within it)."""
    import numpy as np

    a = np.arange(1, m + 1, dtype=np.int64)
    counts = np.bincount(np.outer(a, a).ravel())
    return Fraction((4 * m + 1) ** 2 + 8 * int(counts @ counts), (2 * m + 1) ** 4)


def matvec(m, v):
    """Exact product of an IntMatrix and an integer vector, as a tuple."""
    assert m.cols == len(v)
    return tuple(sum(m.at(i, j) * e for j, e in enumerate(v)) for i in range(m.rows))


def identity(n):
    """The n x n identity IntMatrix."""
    from intmat.linalg import IntMatrix

    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def column(m, j):
    """Column j of an IntMatrix, as a tuple."""
    return m.entries[j :: m.cols][: m.rows]


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
                certificate=LcdCertificate(d, tuple(sorted(order[:s])), float(rest)),
            )
    return LcdScanResult(lcd_upper=math.inf, certificate=None)


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


def philox_bits(key, shard=0):
    """numpy's Philox bit generator keyed `key` = (seed value, stream) at
    shard `shard`'s counter offset, shard * 2**128."""
    import numpy as np

    return np.random.Philox(key=np.array(key, dtype=np.uint64),
                            counter=np.array([0, 0, shard, 0], dtype=np.uint64))


def v5_lanes(bits, count, accept):
    """`count` 16-bit lanes below `accept` in random stream v5's order, and
    the number of rounds of words read.

    Word w holds the lanes w mod 2**16, (w >> 16) mod 2**16, ... in that
    order. A round reads ceil(r / 4) words for the r positions still open,
    fills them in order and drops the lanes left over; a lane >= accept
    leaves its position open for the next round.
    """
    import numpy as np

    out = np.zeros(count, dtype=np.int64)
    todo = np.arange(count)
    rounds = 0
    while todo.size:
        rounds += 1
        words = bits.random_raw(-(-todo.size // 4))
        lanes = np.stack([(words >> np.uint64(16 * i)) & np.uint64(0xFFFF) for i in range(4)],
                         axis=1).reshape(-1)[: todo.size].astype(np.int64)
        out[todo] = lanes
        todo = todo[lanes >= accept]
    return out, rounds


def v5_uniform(bits, m, count):
    """`count` uniform {-m, ..., m} draws of random stream v5 (m < 2**11),
    and the rounds of lanes read: k = 2 digits per lane when (2m+1)**2 <=
    2**12, else 1; lanes at or above the largest multiple of (2m+1)**k up to
    2**16 are redrawn; a lane's base-(2m+1) digits, least significant
    first, minus m."""
    import numpy as np

    b = 2 * m + 1
    k = 2 if b * b <= 1 << 12 else 1
    lanes, rounds = v5_lanes(bits, -(-count // k), (1 << 16) // b**k * b**k)
    digits = np.stack([lanes // b**i % b for i in range(k)], axis=1).reshape(-1)
    return digits[:count] - m, rounds


def v5_custom(support, pmf, bits, count):
    """`count` draws of a custom pmf in random stream v5, and the number of
    extra words read: the grid value's top 16 bits are one lane; when a
    cumulative threshold floor(F_i * 2**64) lies inside that lane's bucket,
    the low 48 bits of the grid value are the low 48 bits of the next extra
    word, read after every lane. The value is support[#{thresholds <= word}].
    """
    import bisect

    bounds, cum = [], Fraction(0)
    for p in pmf[:-1]:
        cum += p
        bounds.append(cum.numerator * 2**64 // cum.denominator)

    def value(word):
        return support[bisect.bisect_right(bounds, word)]

    low48 = (1 << 48) - 1
    buckets = [b << 48 for b in v5_lanes(bits, count, 1 << 16)[0].tolist()]
    mixed = [value(w) != value(w | low48) for w in buckets]
    extra = iter(bits.random_raw(sum(mixed)).tolist())
    draws = [value(w | (next(extra) & low48)) if mix else value(w)
             for w, mix in zip(buckets, mixed)]
    return draws, sum(mixed)


def philox_zero_count(key, m, trials, shard_trials):
    """Zeros among `trials` uniform {-m, ..., m} draws of random stream v5
    (`v5_uniform`) on numpy's Philox keyed `key`: shard s holds the next
    `shard_trials` of them (the last one the rest) and starts at counter
    s * 2**128. For n = 1 these are the singular matrices of Monte Carlo.
    """
    zeros = 0
    for s, start in enumerate(range(0, trials, shard_trials)):
        draws, _ = v5_uniform(philox_bits(key, s), m, min(shard_trials, trials - start))
        zeros += int((draws == 0).sum())
    return zeros
