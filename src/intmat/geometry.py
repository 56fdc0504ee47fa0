"""Real-vector diagnostics in exact binary arithmetic: normal vectors,
compressibility and the least-common-denominator (LCD) scan.

A RealVector holds integer mantissas at one shared binary exponent, and
each entry has at most PRECISION = 128 significant bits: an integer or a
decimal is rounded to that once, half to even, and a float is exact.
Compressibility, the unit-norm check and every LCD witness compare
squares of these values exactly, in integers. The LCD scan evaluates its
whole grid in float64 first and decides a grid point there only when the
residual clears the bound by a certified rounding margin; every point
inside the margin is confirmed exactly by lcd_witness.

The values that reach a report (normalize's entries, the compress and LCD
certificate residuals, and the float64 directions of to_floats) come from
one fixed sequence of PRECISION-bit steps: each product rounded, half to
even; sums taken exactly and rounded once; correctly rounded square roots
and quotients; a float64 rounded from the 128-bit value. The test suite's
oracle runs the same steps in an arbitrary-precision float library at 128
bits, and the bytes must match.

Decimal text is read by rounding the exact value of a literal once
(RealVector.from_decimals) and written by truncating an entry's decimal
expansion at a working precision, then rounding at the last digit printed
(RealVector.decimals).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import IntMatrix, kernel_basis
from .sampling import Seed, generator

PRECISION = 128


def _round(man: int, exp: int, bits: int = PRECISION) -> tuple[int, int]:
    """man * 2**exp rounded to `bits` significant bits, half to even."""
    n = abs(man).bit_length() - bits
    if n <= 0:
        return man, exp
    a = abs(man)
    q, r, half = a >> n, a & ((1 << n) - 1), 1 << (n - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return (q if man > 0 else -q), exp + n


def _quotient(num: int, den: int, exp: int = 0) -> tuple[int, int]:
    """num / den * 2**exp (den > 0) rounded to PRECISION bits: the integer
    quotient carries at least PRECISION + 1 bits and a sticky bit for a
    nonzero remainder, so one rounding of it is correct."""
    shift = PRECISION + 1 - abs(num).bit_length() + den.bit_length()
    if shift >= 0:
        q, r = divmod(abs(num) << shift, den)
    else:
        q, r = divmod(abs(num), den << -shift)
    q = (q << 1) | (r != 0)
    return _round(q if num >= 0 else -q, exp - shift - 1)


def _sqrt(man: int, exp: int) -> tuple[int, int]:
    """sqrt(man * 2**exp) (man >= 0) rounded to PRECISION bits, with a
    sticky bit as in _quotient."""
    if not man:
        return 0, 0
    shift = max(0, 2 * PRECISION + 2 - man.bit_length())
    shift += (exp - shift) & 1
    big = man << shift
    root = math.isqrt(big)
    root = (root << 1) | (root * root != big)
    return _round(root, (exp - shift) // 2 - 1)


def _fsum(pairs) -> tuple[int, int]:
    """The sum of (mantissa, exponent) terms, in order, rounded once.

    The terms are added exactly, except that a term lying wholly more than
    2 * PRECISION bits below the running sum's lowest bit is dropped, and
    so is a running sum lying that far below a new term's lowest bit (each
    term taken with its trailing zero bits stripped). This is the summation
    whose printed values the module keeps; a dropped term can change the
    rounding only by breaking a tie, so a sum of two terms is correctly
    rounded.
    """
    limit = 2 * PRECISION
    man = exp = 0
    for m, e in pairs:
        if not m:
            continue
        zeros = (m & -m).bit_length() - 1
        m, e = m >> zeros, e + zeros
        if e >= exp:
            if e - exp > limit and (not man or e - exp - abs(man).bit_length() > limit):
                man, exp = m, e
            else:
                man += m << (e - exp)
        elif exp - e - abs(m).bit_length() > limit:
            if not man:
                man, exp = m, e
        else:
            man, exp = (man << (exp - e)) + m, e
    return _round(man, exp)


def _norm(mantissas, exp: int) -> tuple[int, int]:
    """The l2 norm of mantissas * 2**exp: each square rounded, their _fsum
    in the given order, then a rounded square root."""
    return _sqrt(*_fsum(_round(m * m, 2 * exp) for m in mantissas))


def _to_float(man: int, exp: int) -> float:
    """man * 2**exp rounded to 53 bits, half to even, then to a float64 (a
    subnormal rounds again; past the float range, an infinity)."""
    m, e = _round(man, exp, 53)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _exact(man: int, exp: int) -> Fraction:
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _binary(v) -> tuple[int, int]:
    """A float exactly, or an integer rounded to PRECISION bits, as
    (mantissa, exponent)."""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise DomainError("entries must be finite")
        num, den = v.as_integer_ratio()
        return num, 1 - den.bit_length()
    return _round(operator.index(v), 0)


def _tail(mantissas, s: int) -> list[int]:
    """The magnitudes left when the s largest are removed, largest first."""
    return sorted(map(abs, mantissas), reverse=True)[s:]


@dataclass(frozen=True)
class RealVector:
    """Real vector: entry i is exactly mantissas[i] * 2**exponent."""

    mantissas: tuple[int, ...]
    exponent: int

    def __post_init__(self):
        if not self.mantissas:
            raise DimensionError("empty vector")

    @classmethod
    def from_pairs(cls, pairs) -> "RealVector":
        """Entries given as (mantissa, exponent). The shared exponent is that
        of the lowest set bit of any entry, so equal values compare equal."""
        pairs = list(pairs)
        low = min((e + (m & -m).bit_length() - 1 for m, e in pairs if m), default=0)
        return cls(tuple(m << (e - low) if e >= low else m >> (low - e) for m, e in pairs), low)

    @classmethod
    def from_values(cls, values) -> "RealVector":
        """Floats exactly and integers rounded to PRECISION bits."""
        return cls.from_pairs(_binary(v) for v in values)

    @classmethod
    def from_decimals(cls, tokens) -> "RealVector":
        """Decimal literals in Python's float syntax, each rounded once to
        PRECISION bits (_parse_decimal)."""
        return cls.from_pairs(_parse_decimal(t) for t in tokens)

    def __len__(self) -> int:
        return len(self.mantissas)

    def to_floats(self) -> list[float]:
        return [_to_float(m, self.exponent) for m in self.mantissas]

    def decimals(self, digits: int) -> list[str]:
        """Each entry with `digits` significant digits (_format_decimal)."""
        return [_format_decimal(m, self.exponent, digits) for m in self.mantissas]


# A nonzero decimal entry's leading digit must lie within 10**+-_DECIMAL_RANGE
# (about 2**+-13300, far past the float64 range), and it may carry at most
# _DECIMAL_DIGITS significant digits (int()'s default limit on a digit
# string). Together they bound every power of ten a parse forms, and the
# spread of binary exponents that a vector's shared exponent must span.
_DECIMAL_RANGE = 4000
_DECIMAL_DIGITS = 4300


def _parse_decimal(token: str) -> tuple[int, int]:
    """A decimal literal as (mantissa, exponent): its exact value rounded
    once to PRECISION bits, half to even."""
    float(token)  # Python's float literal syntax, else ValueError
    text = token.replace("_", "").lower()
    if "n" in text:  # inf, infinity, nan
        raise DomainError("entries must be finite")
    mantissa, _, exp10 = text.partition("e")
    whole, _, frac = mantissa.lstrip("+-").partition(".")
    digits = (whole + frac).lstrip("0")
    significand = digits.rstrip("0")
    if not significand:
        return 0, 0
    scale = exp10.lstrip("+-").lstrip("0") or "0"
    if len(scale) > _DECIMAL_DIGITS:
        lead = math.inf
    else:
        lead = int(scale) * (-1 if exp10.startswith("-") else 1) - len(frac) + len(digits) - 1
    if not -_DECIMAL_RANGE <= lead <= _DECIMAL_RANGE:
        raise DomainError(f"nonzero entries must lie between 1e-{_DECIMAL_RANGE} and "
                          f"1e+{_DECIMAL_RANGE + 1} in magnitude")
    if len(significand) > _DECIMAL_DIGITS:
        raise DomainError(f"entries may carry at most {_DECIMAL_DIGITS} significant digits")
    man = -int(significand) if mantissa.startswith("-") else int(significand)
    exp = lead - len(significand) + 1
    return _quotient(man * 10 ** max(exp, 0), 10 ** max(-exp, 0))


_LOG2_10 = math.log(10, 2)


def _numeral(n: int) -> str:
    """str(n) for n >= 0, converted in pieces of at most about 2400 digits,
    below int-to-str's digit limit."""
    if n.bit_length() <= 8000:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half its decimal digits
    high, low = divmod(n, 10**half)
    return _numeral(high) + _numeral(low).zfill(half)


def _format_decimal(man: int, exp: int, digits: int) -> str:
    """man * 2**exp with `digits` significant digits.

    The decimal digits of the value are truncated at a working precision
    of int((digits + 3) * log2(10)) + 10 bits, then rounded at digit
    `digits` on the next digit alone, half up. The number is printed in
    fixed point when the position of its leading digit lies strictly
    between min(-(digits // 3), -5) and `digits`, else with an exponent;
    trailing zeros are stripped.
    """
    if not man:
        return "0.0"
    sign = "-" if man < 0 else ""
    man = abs(man)
    fixprec = max(int((digits + 3) * _LOG2_10) + 10 - exp - man.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    text = _numeral(fixed * 10**fixdps >> fixprec)
    exponent = len(text) - fixdps - 1
    head = text[:digits]
    if len(text) > digits and text[digits] in "56789":
        kept = head.rstrip("9")
        carried = kept[:-1] + str(int(kept[-1]) + 1) if kept else "1"
        head = carried + "0" * (digits - len(kept))
        if len(head) > digits:
            head, exponent = head[:digits], exponent + 1
    split = 1
    if min(-(digits // 3), -5) < exponent < digits:
        if exponent < 0:
            head = "0" * -exponent + head
        else:
            split = exponent + 1
        exponent = 0
    body = (head[:split] + "." + head[split:]).rstrip("0")
    if body.endswith("."):
        body += "0"
    return sign + body + (f"e{exponent:+d}" if exponent else "")


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
    certificate: LcdCertificate | None

    @property
    def found(self) -> bool:
        return math.isfinite(self.lcd_upper)


def normalize(v) -> RealVector:
    """v / ||v||_2, for a RealVector or a sequence of floats and integers:
    the rounded norm (_norm), then one rounded quotient per entry."""
    x = v if isinstance(v, RealVector) else RealVector.from_values(v)
    norm, norm_exp = _norm(x.mantissas, x.exponent)
    if not norm:
        raise DomainError("cannot normalize the zero vector")
    return RealVector.from_pairs(_quotient(m, norm, x.exponent - norm_exp) for m in x.mantissas)


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


# ||x||_2**2 must lie in [(1 - 1e-9)**2, (1 + 1e-9)**2]
_UNIT_BOUNDS = ((1 - Fraction(1e-9)) ** 2, (1 + Fraction(1e-9)) ** 2)


def _unit_check(x: RealVector):
    """||x||_2 within 1e-9 of 1, compared exactly on the squares."""
    low, high = _UNIT_BOUNDS
    if not low <= _exact(sum(m * m for m in x.mantissas), 2 * x.exponent) <= high:
        raise DomainError("input must be a unit vector")


def sparse_residual(x: RealVector, s: int) -> float:
    """l2 norm of x with its s largest-magnitude entries removed, rounded as
    _norm does, as a float.

    This is the minimal ||v||_2 over all decompositions x = u + v with u
    s-sparse.
    """
    n = len(x)
    if not 0 <= s <= n:
        raise DomainError(f"sparsity s must lie in [0, {n}]")
    return _to_float(*_norm(_tail(x.mantissas, s), x.exponent))


def is_compressible(x: RealVector, p: LcdParams) -> bool:
    """Whether x is within l2 distance beta of a floor(alpha*n)-sparse
    vector, decided exactly: the squared residual against beta**2."""
    _unit_check(x)
    tail = _tail(x.mantissas, p.sparsity_count(len(x)))
    return _exact(sum(m * m for m in tail), 2 * x.exponent) <= Fraction(p.beta) ** 2


def lcd_witness(x: RealVector, d, p: LcdParams) -> bool:
    """Whether {d*x} = u + v with u floor(alpha*n)-sparse and
    ||v||_2 <= beta * min(d, sqrt(n)), decided exactly on the squares."""
    if not d > 0:
        raise DomainError("D must be positive")
    n = len(x)
    bound = Fraction(p.beta) ** 2 * min(Fraction(d) ** 2, n)
    return _lcd_residual_sq(x, d, p.sparsity_count(n)) <= bound


def _products(x: RealVector, d) -> tuple[list[int], int]:
    """d*x exactly, as integer products at one shared exponent."""
    dm, de = _binary(d)
    return [dm * m for m in x.mantissas], x.exponent + de


def _lcd_residual_sq(x: RealVector, d, s: int) -> Fraction:
    """The exact squared l2 norm of the n - s smallest magnitudes of {d*x},
    with {y} = y - floor(y + 1/2) taken on the exact products in integers."""
    products, exp = _products(x, d)
    if exp >= 0:
        return Fraction(0)
    half, mask = 1 << (-exp - 1), (1 << -exp) - 1
    frac = [((y + half) & mask) - half for y in products]
    return _exact(sum(t * t for t in _tail(frac, s)), 2 * exp)


def _lcd_certificate(x: RealVector, d, s: int) -> LcdCertificate:
    """The certificate of grid point d, from the rounded sequence: y = d*x_i
    rounded, f = y - floor(y + 1/2) with the sum and the difference rounded;
    the support is the indices of the s largest |f| (the lower index first
    among ties), in increasing order, and the residual the _norm of the
    other f, as a float."""
    products, exp = _products(x, d)
    rounded = []
    for y in products:
        ym, ye = _round(y, exp)
        tm, te = _fsum(((ym, ye), (1, -1)))
        floor = tm << te if te >= 0 else tm >> -te
        rounded.append(_fsum(((ym, ye), (-floor, 0))))
    f = RealVector.from_pairs(rounded)
    order = sorted(range(len(products)), key=lambda i: (-abs(f.mantissas[i]), i))
    residual = _to_float(*_norm([f.mantissas[i] for i in order[s:]], f.exponent))
    return LcdCertificate(d, tuple(sorted(order[:s])), residual)


# Grid rows evaluated per numpy block: bounds the float64 working set at
# about 2**16 entries however fine the grid, and lets an early witness stop
# the scan before the rest of the grid is evaluated.
_SCAN_BLOCK_ENTRIES = 1 << 16


def _float_margin(d: np.ndarray, n: int) -> np.ndarray:
    """Rounding margin for deciding a grid point in float64.

    Bounds |float64 residual - exact residual| plus the difference of the
    two bounds beta*min(D, sqrt(n)). With u = 2**-53 and each x_i rounded
    to nearest, y_i = fl(D * fl(x_i)) is within D*|x_i|*(2u + u^2) of
    D*x_i. The magnitude |{y}| = dist(y, Z) is 1-Lipschitz in y, and
    y - round(y) is exact in float64; the top-s residual is 1-Lipschitz in
    l2 in the magnitudes. With ||x||_2 <= 1 + 1e-9 (the unit check), the
    residual moves by at most D * 2**-52 * (1 + 1e-8).

    Squaring and summing n - s terms, then the square root, add a relative
    error of at most (n + 2) * u / 2 to a residual that is at most
    sqrt(n)/2: at most n**1.5 * u. The float bound is off by at most
    sqrt(n) * 2u. The exact side adds nothing.

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
    _float_margin; every point inside the margin is confirmed exactly by
    lcd_witness. The certificate of the first passing point is formed once
    (_lcd_certificate).
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
                return LcdScanResult(lcd_upper=dj, certificate=_lcd_certificate(x, dj, s))
    return LcdScanResult(lcd_upper=math.inf, certificate=None)


def random_unit_vector(n: int, seed: Seed) -> RealVector:
    """Uniform random direction: normalized Gaussian sample."""
    if n < 1:
        raise DomainError("n must be >= 1")
    gen = generator(seed)
    while True:
        g = gen.standard_normal(n)
        if np.linalg.norm(g) > 1e-6:
            return normalize(g.tolist())
