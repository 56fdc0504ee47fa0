"""Text file formats for matrices and vectors.

Matrix files: first line "rows cols", then one line per row of
space-separated decimal integers, newline-terminated.

Vector files: first line "n", then n decimal reals (whitespace
separated; written one per line). A real is read in Python's float literal
syntax and rounded once, from its exact decimal value, to PRECISION bits,
half to even (RealVector.from_decimals); it is written with a fixed number
of significant digits (RealVector.decimals).
"""

from __future__ import annotations

import os
import stat

from .errors import DimensionError
from .geometry import RealVector
from .linalg import IntMatrix


def parse_matrix(text: str) -> IntMatrix:
    tokens = text.split()
    if len(tokens) < 2:
        raise DimensionError("matrix file must start with 'rows cols'")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        values = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise DimensionError(f"malformed matrix file: {exc}") from exc
    if len(values) != rows * cols:
        raise DimensionError(
            f"matrix file declares {rows}x{cols} but carries {len(values)} entries"
        )
    return IntMatrix(rows, cols, tuple(values))


def format_matrix(m: IntMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(" ".join(str(v) for v in m.row(i)) for i in range(m.rows))
    return "\n".join(lines) + "\n"


def read_matrix(path: str | os.PathLike) -> IntMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())


def write_matrix(m: IntMatrix, path: str | os.PathLike) -> None:
    """Write m to path. A new path or a regular file ends up holding the
    whole matrix or its old bytes: the text goes to a temporary file beside
    it, which then replaces it (rename(2) is atomic), and on any error the
    temporary file is removed. Any other path (a symlink such as
    /dev/stdout, a device, a pipe) is written in place."""
    text = format_matrix(m)
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="ascii")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def parse_vector(text: str) -> RealVector:
    tokens = text.split()
    if not tokens:
        raise DimensionError("vector file must start with its length")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise DimensionError(f"malformed vector length: {exc}") from exc
    values = tokens[1:]
    if len(values) != n:
        raise DimensionError(f"vector file declares {n} entries but carries {len(values)}")
    return RealVector.from_decimals(values)


def format_vector(v: RealVector, digits: int = 36) -> str:
    lines = [str(len(v))]
    lines.extend(v.decimals(digits))
    return "\n".join(lines) + "\n"


def read_vector(path: str | os.PathLike) -> RealVector:
    with open(path, "r", encoding="ascii") as fh:
        return parse_vector(fh.read())
