"""Output checks for every job kind, independent of intmat's random stream.

Exact fractions, MDS verdicts and witnesses are compared exactly. Seeded
estimates are compared statistically, against exact enumeration where it is
cheap and against references.json elsewhere. Generated MDS matrices, LCD
scans, compressibility verdicts and normal vectors are re-derived with the
oracles in oracles.py. Each check returns None when the output is right and
a one-line reason when it is not.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import oracles

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text())
Z = 5.0  # tolerance in standard errors for seeded estimates
# Gaussian small-ball approximation error allowed on top of sampling noise;
# the lattice and fourth-cumulant corrections are below 0.005 at n = 100
SMALLBALL_MODEL_SLACK = 0.01
ESSEEN_REL_TOL = 0.03

exact_fraction = functools.cache(oracles.exact_singular_fraction)


def check(job: dict, rc: int, stdout: str, root: Path) -> str | None:
    """None if `rc` and `stdout` are right for `job`, else the reason."""
    if job["kind"] == "pigeonhole":
        if rc != 2 or stdout:
            return f"expected exit 2 and no output, got exit {rc}"
        return None
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _CHECKS[job["kind"]](job, stdout, root)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _expect(cond: bool, what: str) -> str | None:
    return None if cond else what


def _first(*problems) -> str | None:
    return next((p for p in problems if p), None)


def _counts(payload: dict, trials: int) -> str | None:
    hits = payload["hits"]
    est = payload["estimate"]
    return _first(
        _expect(payload["trials"] == trials, "trials differ from the request"),
        _expect(isinstance(hits, int) and 0 <= hits <= trials, "hits out of range"),
        _expect(payload["estimate_exact"] == _frac_str(Fraction(hits, trials)), "estimate_exact"),
        _expect(est == hits / trials, "estimate is not hits/trials"),
        _expect(payload["ci_low"] <= est <= payload["ci_high"], "interval misses estimate"),
    )


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _within(hits: int, trials: int, p: float, se_ref: float, slack: float = 0.0) -> bool:
    sd = math.sqrt(p * (1 - p) / trials + se_ref * se_ref)
    return abs(hits / trials - p) <= Z * sd + slack + 1.0 / trials


def _estimate(job, stdout, root):
    payload = json.loads(stdout)
    ref = job["ref"]
    if "exact" in ref:
        p, se = float(exact_fraction(*ref["exact"])), 0.0
    else:
        rec = REFERENCES[ref["recorded"]]
        p, se = rec["p"], rec["se"]
    return _first(
        _expect(payload["n"] == job["n"] and payload["m"] == job["m"], "n or m echoed wrong"),
        _counts(payload, job["trials"]),
        _expect(_within(payload["hits"], job["trials"], p, se), f"estimate far from {p:.6g}"),
    )


def _smallball(job, stdout, root):
    payload = json.loads(stdout)
    m, eps = job["m"], job["eps"]
    # <X/m, x> for a unit x is close to normal with variance Var(X)/m^2
    sigma = math.sqrt((m + 1) / (3 * m))
    p = 2 * NormalDist().cdf(eps / sigma) - 1
    esseen = eps * math.sqrt(2 * math.pi) / sigma * (2 * NormalDist().cdf(sigma / eps) - 1)
    got = payload["esseen_integral"]
    return _first(
        _expect(
            (payload["n"], payload["m"], payload["epsilon"]) == (job["n"], m, eps),
            "n, m or epsilon echoed wrong",
        ),
        _counts(payload, job["trials"]),
        _expect(
            _within(payload["hits"], job["trials"], p, 0.0, SMALLBALL_MODEL_SLACK),
            f"small-ball estimate far from {p:.6g}",
        ),
        _expect(0 < got <= 2 and abs(got - esseen) <= ESSEEN_REL_TOL * esseen, "esseen_integral"),
        _expect(payload["lcd_bound"] is None, "lcd_bound without alpha/beta"),
    )


def _exact(job, stdout, root):
    payload = json.loads(stdout)
    n, m = job["n"], job["m"]
    return _first(
        _expect(payload["fraction_exact"] == _frac_str(exact_fraction(n, m)), "wrong fraction"),
        _expect(
            payload["schwartz_zippel_bound_exact"] == _frac_str(min(Fraction(1), Fraction(n, m))),
            "wrong Schwartz-Zippel bound",
        ),
        _expect(
            payload["lower_bound_exact"] == _frac_str(Fraction(1, (2 * m + 1) ** n)),
            "wrong lower bound",
        ),
    )


def _read_matrix(path: Path) -> list[list[int]]:
    return _parse_matrix(path.read_text(encoding="ascii"))


def _parse_matrix(text: str) -> list[list[int]]:
    tokens = text.split()
    rows, cols = int(tokens[0]), int(tokens[1])
    values = [int(t) for t in tokens[2:]]
    if len(values) != rows * cols:
        raise ValueError("matrix file size mismatch")
    return [values[i * cols : (i + 1) * cols] for i in range(rows)]


@functools.cache
def _mds_verdict(rows: tuple[tuple[int, ...], ...]):
    return oracles.mds_verdict([list(r) for r in rows])


def _mds_verify(job, stdout, root):
    payload = json.loads(stdout)
    rows = _read_matrix(root / job["input"])
    is_mds, witness, checked = _mds_verdict(tuple(map(tuple, rows)))
    return _first(
        _expect((payload["k"], payload["n"]) == (len(rows), len(rows[0])), "shape echoed wrong"),
        _expect(payload["is_mds"] == is_mds, "wrong MDS verdict"),
        _expect(payload["witness"] == (list(witness) if witness else None), "wrong witness"),
        _expect(payload["minors_checked"] == checked, "wrong minors_checked"),
    )


def _mds_generate(job, stdout, root):
    payload = json.loads(stdout)
    if job["output"]:
        if payload["matrix"] != job["output"]:
            return "matrix field does not name the output file"
        rows = _read_matrix(root / job["output"])
    else:
        rows = payload["matrix"]
    m_used = payload["m_used"]
    k, n = job["k"], job["n"]
    shape_ok = len(rows) == k and all(len(r) == n for r in rows)
    return _first(
        _expect(job["m"] is None or m_used == job["m"], "m_used differs from --m"),
        _expect(isinstance(payload["attempts"], int) and payload["attempts"] >= 1, "attempts"),
        _expect(shape_ok, "generated matrix has the wrong shape"),
        _expect(shape_ok and all(abs(v) <= m_used for r in rows for v in r), "entry beyond m"),
        _expect(shape_ok and _mds_verdict(tuple(map(tuple, rows)))[0], "generated matrix is not MDS"),
    )


def _parse_vector(text: str) -> list[Fraction]:
    tokens = text.split()
    values = [Fraction(t) for t in tokens[1:]]
    if len(values) != int(tokens[0]):
        raise ValueError("vector file size mismatch")
    return values


def _compress(job, stdout, root):
    payload = json.loads(stdout)
    x = _parse_vector((root / job["input"]).read_text(encoding="ascii"))
    s = math.floor(Fraction(job["alpha"]) * len(x))
    resid2 = oracles.sparse_residual_sq(x, s)
    return _first(
        _expect((payload["n"], payload["sparsity"]) == (len(x), s), "n or sparsity"),
        _expect(math.isclose(payload["residual"], math.sqrt(resid2), rel_tol=1e-12), "residual"),
        _expect(payload["compressible"] == (resid2 <= Fraction(job["beta"]) ** 2), "verdict"),
    )


@functools.cache
def _lcd_expected(text: str, alpha: float, beta: float, d_max: float, step: float):
    x = _parse_vector(text)
    j = oracles.lcd_first_witness(x, alpha, beta, d_max, step)
    if j is None:
        return None
    d = j * step
    support, resid = oracles.lcd_support(x, Fraction(d), math.floor(Fraction(alpha) * len(x)))
    return d, list(support), resid


def _lcd(job, stdout, root):
    payload = json.loads(stdout)
    text = (root / job["input"]).read_text(encoding="ascii")
    expected = _lcd_expected(text, job["alpha"], job["beta"], job["d_max"], job["step"])
    cert = payload["certificate"]
    if expected is None:
        return _expect(
            payload["found"] is False and payload["lcd_upper"] == "inf" and cert is None,
            "scan reports a witness where none exists",
        )
    d, support, resid = expected
    return _first(
        _expect(payload["found"] is True and payload["lcd_upper"] == d, f"expected LCD <= {d}"),
        _expect(cert is not None and cert["d"] == d, "certificate at the wrong D"),
        _expect(cert is not None and cert["sparse_support"] == support, "certificate support"),
        _expect(cert is not None and abs(cert["residual"] - resid) <= 1e-9, "certificate residual"),
    )


def _normal_vector(job, stdout, root):
    return _normal_vector_problem((root / job["input"]).read_text(encoding="ascii"), stdout)


@functools.cache
def _normal_vector_problem(matrix_text: str, stdout: str) -> str | None:
    rows = _parse_matrix(matrix_text)
    out = stdout.split()
    v = [Fraction(t) for t in out[1:]]
    if int(out[0]) != len(v) or len(v) != len(rows[0]):
        return "vector length differs from the column count"
    # the kernel is one-dimensional (checked when the input was made), so a
    # unit vector it contains with a positive leading coordinate is unique
    tol = Fraction(1, 10**30)
    lead = next((c for c in v if c != 0), Fraction(0))
    residual = max(abs(sum(a * c for a, c in zip(r, v))) for r in rows)
    return _first(
        _expect(abs(sum(c * c for c in v) - 1) <= tol, "not a unit vector"),
        _expect(residual <= tol, "not in the kernel"),
        _expect(lead > 0, "leading coordinate not positive"),
    )


_CHECKS = {
    "estimate": _estimate,
    "smallball": _smallball,
    "exact": _exact,
    "mds_verify": _mds_verify,
    "mds_generate": _mds_generate,
    "compress": _compress,
    "lcd": _lcd,
    "normal_vector": _normal_vector,
}
