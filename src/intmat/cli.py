"""Command-line front end: every experiment and utility behind one binary.

Exit codes: 0 success (including negative verdicts), 1 domain/validation
errors and bad usage, 2 budget or generation failures.

Machine-readable outputs (json/csv) are byte-identical for identical
argv + seed regardless of thread count, so they carry neither wall times
nor the thread setting; probabilities appear both as decimals and, when
exact, as reduced "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .charfunc import ETA, G_eval, f_grid, small_ball_probe
from .errors import (
    BudgetExceededError,
    DimensionError,
    DomainError,
    FitError,
    GenerationError,
)
from .formats import format_vector, read_matrix, read_vector, write_matrix
from .geometry import (
    LcdParams,
    is_compressible,
    lcd_scan,
    normal_vector,
    random_unit_vector,
    sparse_residual,
)
from .mds import generate_mds, is_mds
from .sampling import _DRAW_BATCH, EntryDistribution, Seed
from .singularity import (
    DEFAULT_ENUM_BUDGET,
    exact_singular_fraction,
    fit_exponent,
    lower_bound,
    mc_singularity,
    schwartz_zippel_bound,
)

import numpy as np

# Largest `charfunc --grid`: grid+1 points are tabulated and written out.
MAX_GRID = 1 << 20


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation parameters echoed into every report."""

    command: str
    seed: Seed | None
    output_format: str
    output_path: str | None

    def echo(self) -> dict:
        out = {"command": self.command, "output_format": self.output_format}
        if self.seed is not None:
            out["seed"] = {"value": self.seed.value, "stream": self.seed.stream}
        if self.output_path is not None:
            out["output_path"] = self.output_path
        return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _probability_fields(name: str, value: Fraction | float) -> dict:
    if isinstance(value, Fraction):
        return {name: float(value), f"{name}_exact": _fraction_str(value)}
    return {name: float(value)}


def _emit(payload: dict, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(payload, stream, sort_keys=True)
        stream.write("\n")
    else:
        for key in payload:
            stream.write(f"{key}: {_human(payload[key])}\n")


def _human(v) -> str:
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}={_human(x)}" for k, x in v.items()) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(_human(x) for x in v) + "]"
    return str(v)


def _resolve_threads(args) -> int:
    threads = getattr(args, "threads", None)
    if threads is None:
        threads = int(os.environ.get("INTMAT_THREADS", "1"))
    if threads < 1:
        raise DomainError("threads must be >= 1")
    return threads


def _seed_from(args) -> Seed:
    return Seed(args.seed, getattr(args, "stream", 0) or 0)


def _dist_from(args) -> EntryDistribution:
    spec = getattr(args, "dist", None)
    if spec:
        if not spec.startswith("custom:"):
            raise DomainError("--dist expects custom:<json-file>")
        with open(spec.removeprefix("custom:"), "r", encoding="ascii") as fh:
            data = json.load(fh)
        return EntryDistribution.custom(
            data["support"], [Fraction(p) for p in data["pmf"]]
        )
    if getattr(args, "m", None) is None:
        raise DomainError("either --m or --dist is required")
    return EntryDistribution.uniform_symmetric(args.m)


def _cmd_estimate(args, out) -> int:
    seed = _seed_from(args)
    dist = _dist_from(args)
    threads = _resolve_threads(args)
    report = mc_singularity(args.n, dist, args.trials, seed, threads=threads)
    fmt = args.format
    config = RunConfig("estimate", seed, fmt, None)
    if fmt == "csv":
        out.write("n,m,trials,hits,estimate,ci_low,ci_high,seed\n")
        m_field = "" if report.m is None else str(report.m)
        out.write(
            f"{report.n},{m_field},{report.trials},{report.hits},"
            f"{report.estimate!r},{report.ci_low!r},{report.ci_high!r},"
            f"{seed.value}:{seed.stream}\n"
        )
        return 0
    payload = {
        "version": __version__,
        "config": config.echo(),
        "n": report.n,
        "m": report.m,
        "trials": report.trials,
        "hits": report.hits,
        **_probability_fields("estimate", report.estimate_fraction()),
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
    }
    if fmt == "human":
        payload["elapsed_s"] = round(report.elapsed, 3)
        payload["threads"] = threads
    _emit(payload, fmt, out)
    return 0


def _cmd_exact(args, out) -> int:
    frac = exact_singular_fraction(args.n, args.m, budget=args.budget)
    if args.format == "human":
        out.write(f"{_fraction_str(frac)} = {float(frac)!r}\n")
        return 0
    payload = {
        "version": __version__,
        "config": {"command": "exact", "n": args.n, "m": args.m},
    }
    payload.update(_probability_fields("fraction", frac))
    if args.m >= 1:
        payload.update(
            _probability_fields("schwartz_zippel_bound", schwartz_zippel_bound(args.n, args.m))
        )
    if args.n >= 2:
        payload.update(_probability_fields("lower_bound", lower_bound(args.n, args.m)))
    _emit(payload, args.format, out)
    return 0


def _cmd_fit(args, out) -> int:
    points = []
    with open(args.input, "r", encoding="ascii") as fh:
        import csv as _csv

        for row in _csv.DictReader(fh):
            points.append((int(row["n"]), int(row["m"]), float(row["estimate"])))
    fit = fit_exponent(points)
    payload = {
        "version": __version__,
        "config": {"command": "fit", "input": args.input},
        "points": len(fit.points),
        "c_hat": fit.c_hat,
        "intercept": fit.intercept,
        "residual": fit.residual,
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_mds_verify(args, out) -> int:
    matrix = read_matrix(args.input)
    verdict = is_mds(matrix)
    payload = {
        "version": __version__,
        "config": {"command": "mds-verify", "input": args.input},
        "k": matrix.rows,
        "n": matrix.cols,
        "is_mds": verdict.is_mds,
        "witness": list(verdict.witness) if verdict.witness else None,
        "minors_checked": verdict.minors_checked,
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_mds_generate(args, out) -> int:
    seed = _seed_from(args)
    report = generate_mds(args.k, args.n, m=args.m, max_attempts=args.max_attempts, seed=seed)
    if args.output:
        write_matrix(report.matrix, args.output)
    payload = {
        "version": __version__,
        "config": RunConfig("mds-generate", seed, args.format, args.output).echo(),
        "k": args.k,
        "n": args.n,
        "m_used": report.m_used,
        "attempts": report.attempts,
        "matrix": report.matrix.to_lists() if not args.output else args.output,
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_lcd(args, out) -> int:
    vec = read_vector(args.input)
    params = LcdParams(alpha=args.alpha, beta=args.beta)
    result = lcd_scan(vec, params, d_max=args.dmax, grid_step=args.step)
    payload = {
        "version": __version__,
        "config": {
            "command": "lcd",
            "input": args.input,
            "alpha": args.alpha,
            "beta": args.beta,
            "d_max": args.dmax,
            "grid_step": args.step,
        },
        "lcd_upper": result.lcd_upper if result.found else "inf",
        "found": result.found,
        "certificate": None
        if result.certificate is None
        else {
            "d": result.certificate.d,
            "sparse_support": list(result.certificate.sparse_support),
            "residual": result.certificate.residual,
        },
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_compress(args, out) -> int:
    vec = read_vector(args.input)
    params = LcdParams(alpha=args.alpha, beta=args.beta)
    s = params.sparsity_count(len(vec))
    payload = {
        "version": __version__,
        "config": {
            "command": "compress",
            "input": args.input,
            "alpha": args.alpha,
            "beta": args.beta,
        },
        "n": len(vec),
        "sparsity": s,
        "residual": float(sparse_residual(vec, s)),
        "compressible": is_compressible(vec, params),
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_charfunc(args, out) -> int:
    if args.m < 1:
        raise DomainError("m must be >= 1")
    grid = args.grid
    if grid < 0:
        raise DomainError("grid must be >= 0")
    if grid > MAX_GRID:
        raise DomainError(f"grid must be <= {MAX_GRID}")
    ys = np.linspace(0.0, 0.5, grid + 1)
    fvals = f_grid(ys, args.m)
    if args.format == "csv":
        out.write("y,F,G_bound\n")
        for y, f in zip(ys, fvals):
            out.write(f"{float(y)!r},{float(f)!r},{G_eval(args.m * float(y), ETA)!r}\n")
        return 0
    payload = {
        "version": __version__,
        "config": {"command": "charfunc", "m": args.m, "grid": grid},
        "rows": [
            [float(y), float(f), G_eval(args.m * float(y), ETA)] for y, f in zip(ys, fvals)
        ],
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_smallball(args, out) -> int:
    if args.m < 1:
        raise DomainError("m must be >= 1")
    if not 1 <= args.n <= _DRAW_BATCH:
        # one row is drawn whole, so a longer one would pass the draw cap
        raise DomainError(f"n must lie in [1, {_DRAW_BATCH}]")
    seed = _seed_from(args)
    # direction comes from a dedicated stream so it is independent of trials
    direction = random_unit_vector(args.n, Seed(seed.value, (seed.stream + 1) % (1 << 64)))
    params = None
    if args.alpha is not None and args.beta is not None:
        params = LcdParams(alpha=args.alpha, beta=args.beta)
    report = small_ball_probe(direction, args.m, args.eps, args.trials, seed, lcd_params=params)
    mc = report.mc_probability
    payload = {
        "version": __version__,
        "config": RunConfig("smallball", seed, args.format, None).echo(),
        "n": args.n,
        "m": args.m,
        "epsilon": report.epsilon,
        "trials": mc.trials,
        "hits": mc.hits,
        **_probability_fields("estimate", mc.estimate_fraction()),
        "ci_low": mc.ci_low,
        "ci_high": mc.ci_high,
        "esseen_integral": report.esseen_integral,
        "lcd_bound": report.lcd_bound,
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_normal_vector(args, out) -> int:
    matrix = read_matrix(args.input)
    vec = normal_vector(matrix, dist_m=args.m)
    out.write(format_vector(vec, digits=args.digits))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="intmat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"intmat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_format(p, default="human", csv_ok=True):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--json", dest="format", action="store_const", const="json", default=default
        )
        if csv_ok:
            group.add_argument("--csv", dest="format", action="store_const", const="csv")

    p = sub.add_parser("estimate", help="Monte Carlo singularity probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--dist", help="custom:<json-file> with support + pmf arrays")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("exact", help="exact singular fraction by enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    add_format(p, csv_ok=False)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("fit", help="fit the scaling exponent from a results CSV")
    p.add_argument("--input", required=True)
    add_format(p, csv_ok=False)
    p.set_defaults(func=_cmd_fit)

    mds = sub.add_parser("mds", help="MDS verification and generation")
    mds_sub = mds.add_subparsers(dest="mds_command", required=True, parser_class=_Parser)

    p = mds_sub.add_parser("verify")
    p.add_argument("--input", required=True)
    add_format(p, csv_ok=False)
    p.set_defaults(func=_cmd_mds_verify)

    p = mds_sub.add_parser("generate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--max-attempts", type=int, default=64)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--output", default=None)
    add_format(p, csv_ok=False)
    p.set_defaults(func=_cmd_mds_generate)

    p = sub.add_parser("lcd", help="grid scan for the least common denominator")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--dmax", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    add_format(p, csv_ok=False)
    p.set_defaults(func=_cmd_lcd)

    p = sub.add_parser("compress", help="compressibility check for a unit vector")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    add_format(p, csv_ok=False)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("charfunc", help="tabulate F and its G envelope")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", type=int, default=1000)
    add_format(p)
    p.set_defaults(func=_cmd_charfunc)

    p = sub.add_parser("smallball", help="small-ball probability probe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    add_format(p, csv_ok=False)
    p.set_defaults(func=_cmd_smallball)

    p = sub.add_parser("normal-vector", help="unit kernel vector of stacked rows")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--digits", type=int, default=36)
    p.set_defaults(func=_cmd_normal_vector)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, sys.stdout)
    except (BudgetExceededError, GenerationError) as exc:
        sys.stderr.write(f"intmat: {exc}\n")
        return 2
    except (DomainError, DimensionError, FitError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"intmat: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
