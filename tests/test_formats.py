import os
import resource
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intmat.errors import DimensionError, DomainError
from intmat.formats import (
    format_matrix,
    format_vector,
    parse_matrix,
    parse_vector,
    read_matrix,
    read_vector,
    write_matrix,
)
from intmat.geometry import RealVector, normalize, sparse_residual
from intmat.linalg import IntMatrix

from oracles import (
    exact_entries,
    mp_format,
    mp_fraction,
    mp_normalize,
    mp_parse,
    mp_sparse_residual,
    round_fraction,
)


def test_matrix_round_trip(tmp_path):
    m = IntMatrix.from_rows([[1, -2, 3], [40, 5, -6]])
    path = tmp_path / "m.txt"
    write_matrix(m, path)
    assert read_matrix(path) == m


def test_failed_matrix_write_keeps_the_old_bytes(tmp_path):
    # past the file-size limit a write fails with EFBIG (Python ignores
    # SIGXFSZ); the path keeps its old bytes and no temporary file is left
    path = tmp_path / "m.txt"
    path.write_bytes(b"old bytes\n")
    m = IntMatrix(9, 18, tuple(range(10**6, 10**6 + 162)))  # 1,301 bytes of text
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1024, hard))
    try:
        with pytest.raises(OSError):
            write_matrix(m, path)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["m.txt"]
    write_matrix(m, path)
    assert read_matrix(path) == m and os.listdir(tmp_path) == ["m.txt"]


def test_matrix_write_through_a_symlink_keeps_the_link(tmp_path):
    (tmp_path / "target.txt").write_text("old\n")
    (tmp_path / "link.txt").symlink_to("target.txt")
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    write_matrix(m, tmp_path / "link.txt")
    assert (tmp_path / "link.txt").is_symlink()
    assert read_matrix(tmp_path / "target.txt") == m


def test_matrix_format_shape():
    text = format_matrix(IntMatrix.from_rows([[1, 2], [3, 4]]))
    assert text == "2 2\n1 2\n3 4\n"


def test_matrix_parse_errors():
    with pytest.raises(DimensionError):
        parse_matrix("2 2\n1 2 3\n")
    with pytest.raises(DimensionError):
        parse_matrix("x y\n")


def test_vector_round_trip(tmp_path):
    v = parse_vector("3\n0.125\n-3.5\n2\n")
    path = tmp_path / "v.txt"
    path.write_text(format_vector(v), encoding="ascii")
    back = read_vector(path)
    assert back == v and back.to_floats() == [0.125, -3.5, 2.0]


def test_vector_parse_errors():
    with pytest.raises(DimensionError):
        parse_vector("3\n1.0 2.0\n")
    with pytest.raises(DimensionError):
        parse_vector("")
    for token in ("abc", "1.5L", "1/3", "0x10"):
        with pytest.raises(ValueError):
            parse_vector(f"1\n{token}\n")
    for token in ("inf", "-Infinity", "nan"):
        with pytest.raises(DomainError):
            parse_vector(f"1\n{token}\n")


@st.composite
def _decimal_token(draw, exponents):
    """A decimal literal of 1-40 digits, the radix point anywhere in them,
    that mpmath reads as an integer times 10**e with e drawn from
    `exponents` (mpmath drops the fraction's trailing zeros first). (mpmath
    refuses ".0" and "-.00e5", so a zero gets a leading "0".)"""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.integers(0, len(digits)))
    sign = draw(st.sampled_from(["", "-", "+"]))
    e = draw(exponents) + len(digits[point:].rstrip("0"))
    whole = digits[:point] or ("" if digits.strip("0") else "0")
    return f"{sign}{whole}.{digits[point:]}e{e}"


_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    _decimal_token(st.integers(-400, 400)),
)


@settings(max_examples=150, deadline=None)
@given(tokens=st.lists(_TOKENS, min_size=1, max_size=8), data=st.data())
def test_integer_geometry_matches_the_mpmath_oracle(tokens, data):
    mp = [mp_parse(t) for t in tokens]
    v = parse_vector(f"{len(tokens)}\n" + "\n".join(tokens) + "\n")
    assert exact_entries(v) == [mp_fraction(e) for e in mp]
    assert v.to_floats() == [float(e) for e in mp]
    s = data.draw(st.integers(0, len(tokens)))
    assert sparse_residual(v, s) == mp_sparse_residual(mp, s)
    if not any(mp):
        return
    unit = normalize(v)
    mp_unit = mp_normalize(mp)
    assert exact_entries(unit) == [mp_fraction(e) for e in mp_unit]
    assert unit.to_floats() == [float(e) for e in mp_unit]
    for digits in range(1, 41):
        assert format_vector(v, digits) == mp_format(mp, digits)
        assert format_vector(unit, digits) == mp_format(mp_unit, digits)


@settings(max_examples=100, deadline=None)
@given(token=_decimal_token(st.integers(-1200, 1200)))
def test_parse_rounds_once_at_any_exponent(token):
    # past a decimal exponent of 400 mpmath rounds twice; the parse keeps
    # rounding the exact value once, half to even
    (value,) = exact_entries(parse_vector(f"1\n{token}\n"))
    assert value == round_fraction(Fraction(token), 128)


def test_vector_parse_bounds_the_exponent_and_the_digits():
    # each refusal comes before any power of ten is formed
    for token in ("1e-999999999", "1e999999999", "-2.5e-4001", "1e4001",
                  "1e" + "9" * 5000, "1." + "1" * 4300):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            parse_vector(f"1\n{token}\n")
        assert time.perf_counter() - start < 1.0
    # zeros at either end of the digits count for nothing, as in mpmath
    for token in ("1e4000", "-9.5e-4000", "0." + "1" * 4299 + "0" * 5000, "0" * 5000 + "2.5",
                  "0e-999999999"):
        (value,) = exact_entries(parse_vector(f"1\n{token}\n"))
        assert value == round_fraction(Fraction(Decimal(token)), 128)


def test_vector_header_is_length():
    assert format_vector(RealVector.from_values([1.0, 2.0])).splitlines()[0] == "2"
