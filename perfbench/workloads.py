"""Workload job lists and their input files, all derived from the workload seed.

Inputs come from numpy's default_rng, never from intmat's sampler, so the
files a workload feeds the program do not change when intmat's random stream
does. Each job's --seed is drawn from the same generator.

Job lists are sized for a 2-core machine and at most 2 threads:

- sampled: Monte Carlo estimates over n in {2,3,4} x m in {2,4,8}, n=6 m=4
  and one custom-pmf cell (the searchsorted branch), all with --threads 2,
  plus eight small-ball probes. Sampling dominates; this runs the int64
  det_batch path and the shard pool.
- exact: enumeration, the big-integer Monte Carlo loop (n=8 m=16, n=6 m=64
  fail batch_det_fits_int64) on one thread, MDS verification (positive and
  negative verdicts), generation with and without --m, and the pigeonhole
  case that must exit 2. Sampling is a small share. `mds generate --k 2
  --n 200` without --m is left out: it does not return, so it has no time.
- geometry: compress + lcd in the C7 configuration on random unit vectors,
  near-sparse vectors whose scan stops early with a certificate, and
  normal-vector on stacked rows. No sampling and no det_batch: the bypass
  workload for sampler and determinant changes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from oracles import rank_mod_p, vempala_pmf

WORKLOADS = ("sampled", "exact", "geometry")

LCD_ALPHA, LCD_BETA, LCD_STEP = 0.1, 0.25, 0.01
COMPRESS_ALPHA = 0.5  # the C7 incompressibility check: 5 * alpha
VECTOR_N = 50
STACKED_ROWS = (39, 40)


def build(workload: str, seed: int, work: Path, root: Path) -> list[dict]:
    """Write the workload's input files under root/work and return its jobs.

    `work` is relative to `root`, the directory the program runs in, so job
    argv and the program's echoed paths stay relative.
    """
    (root / work).mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"sampled": _sampled, "exact": _exact, "geometry": _geometry}[workload](
        rng, work, root
    )


def _job_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


def _write_matrix(path: Path, rows) -> None:
    rows = [[int(v) for v in r] for r in rows]
    text = f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
    path.write_text(text, encoding="ascii")


def _write_vector(path: Path, values: np.ndarray) -> None:
    path.write_text(
        f"{values.size}\n" + "".join(f"{float(v)!r}\n" for v in values), encoding="ascii"
    )


def _estimate(n, m, trials, threads, seed, ref, dist=None):
    argv = ["estimate", "--n", str(n)]
    argv += ["--dist", f"custom:{dist}"] if dist else ["--m", str(m)]
    argv += ["--trials", str(trials), "--seed", str(seed), "--threads", str(threads), "--json"]
    return {"kind": "estimate", "argv": argv, "n": n, "m": m, "trials": trials, "ref": ref}


def _sampled(rng, work, root):
    # small-ball probes first: their single-threaded peak RSS is then the
    # same on every pass, and only the threaded shards add to it
    jobs = []
    for j in range(8):
        eps = 0.125 * 2**j
        seed = _job_seed(rng)
        jobs.append(
            {
                "kind": "smallball",
                "argv": ["smallball", "--n", "100", "--m", "16", "--eps", repr(eps),
                         "--trials", "100000", "--seed", str(seed), "--json"],
                "n": 100, "m": 16, "eps": eps, "trials": 100_000,
            }
        )
    trials = 500_000
    for n in (2, 3, 4):
        for m in (2, 4, 8):
            exact = n == 2 or (n, m) == (3, 2)
            ref = {"exact": [n, m]} if exact else {"recorded": f"n{n}_m{m}"}
            jobs.append(_estimate(n, m, trials, 2, _job_seed(rng), ref))
    jobs.append(_estimate(6, 4, trials, 2, _job_seed(rng), {"recorded": "n6_m4"}))
    pmf = vempala_pmf(Fraction(1, 2), 4)
    dist = work / "vempala_half_4.json"
    (root / dist).write_text(
        json.dumps({"support": list(pmf), "pmf": [str(p) for p in pmf.values()]}),
        encoding="ascii",
    )
    jobs.append(
        _estimate(4, None, trials, 2, _job_seed(rng), {"recorded": "n4_vempala_half_4"}, dist)
    )
    return jobs


def _exact(rng, work, root):
    jobs = [
        {"kind": "exact", "argv": ["exact", "--n", "3", "--m", "2", "--json"], "n": 3, "m": 2},
        {"kind": "exact", "argv": ["exact", "--n", "2", "--m", "16", "--json"], "n": 2, "m": 16},
        _estimate(8, 16, 25_000, 1, _job_seed(rng), {"recorded": "n8_m16"}),
        _estimate(6, 64, 15_000, 1, _job_seed(rng), {"recorded": "n6_m64"}),
    ]
    wide = rng.integers(-(2**20), 2**20 + 1, size=(8, 16))
    mid = rng.integers(-64, 65, size=(6, 12))
    # a negative verdict: the last column is the sum of two earlier ones
    neg = rng.integers(-3, 4, size=(5, 10))
    neg[:, 9] = neg[:, 7] + neg[:, 8]
    for name, rows in (("verify_8x16.txt", wide), ("verify_6x12.txt", mid), ("verify_5x10.txt", neg)):
        _write_matrix(root / work / name, rows)
        jobs.append(
            {
                "kind": "mds_verify",
                "argv": ["mds", "verify", "--input", str(work / name), "--json"],
                "input": str(work / name),
            }
        )
    for i in range(4):
        out = work / f"generated_6x12_{i}.txt"
        jobs.append(
            {
                "kind": "mds_generate",
                "argv": ["mds", "generate", "--k", "6", "--n", "12", "--m", "64",
                         "--seed", str(_job_seed(rng)), "--output", str(out), "--json"],
                "k": 6, "n": 12, "m": 64, "output": str(out),
            }
        )
    for _ in range(4):
        jobs.append(
            {
                "kind": "mds_generate",
                "argv": ["mds", "generate", "--k", "4", "--n", "8",
                         "--seed", str(_job_seed(rng)), "--json"],
                "k": 4, "n": 8, "m": None, "output": None,
            }
        )
    jobs.append(
        {
            "kind": "pigeonhole",
            "argv": ["mds", "generate", "--k", "2", "--n", "20", "--m", "1",
                     "--seed", str(_job_seed(rng)), "--json"],
        }
    )
    return jobs


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _near_sparse(rng, late: bool) -> np.ndarray:
    """A compressible vector whose LCD scan stops early.

    Five large coordinates and a tail of norm 0.2. With `late`, a sixth
    coordinate of 0.5 keeps the scan going until D ~ 1/(0.5 + 0.15) ~ 1.54;
    without it the first grid point D = 0.01 is already a witness.
    """
    x = np.zeros(VECTOR_N)
    tail = 0.2 * _unit(rng.standard_normal(VECTOR_N - 6))
    x[6:] = tail
    if late:
        x[5] = 0.5
    big = math.sqrt(1.0 - x[5] ** 2 - 0.04)
    x[:5] = big * _unit(1.0 + 0.05 * rng.standard_normal(5)) * rng.choice([-1.0, 1.0], 5)
    return _unit(x[rng.permutation(VECTOR_N)])


def _geometry(rng, work, root):
    jobs = []
    vectors = [_unit(rng.standard_normal(VECTOR_N)) for _ in range(30)]
    vectors += [_near_sparse(rng, late) for late in (False, True, False, True)]
    d_max = math.sqrt(LCD_ALPHA * VECTOR_N)
    for i, v in enumerate(vectors):
        path = work / f"vector_{i:02d}.txt"
        _write_vector(root / path, v)
        jobs.append(
            {
                "kind": "compress",
                "argv": ["compress", "--input", str(path), "--alpha", repr(COMPRESS_ALPHA),
                         "--beta", repr(LCD_BETA), "--json"],
                "input": str(path), "alpha": COMPRESS_ALPHA, "beta": LCD_BETA,
            }
        )
        jobs.append(
            {
                "kind": "lcd",
                "argv": ["lcd", "--input", str(path), "--alpha", repr(LCD_ALPHA),
                         "--beta", repr(LCD_BETA), "--dmax", repr(d_max),
                         "--step", repr(LCD_STEP), "--json"],
                "input": str(path), "alpha": LCD_ALPHA, "beta": LCD_BETA,
                "d_max": d_max, "step": LCD_STEP,
            }
        )
    for i in range(40):
        # full row rank mod p proves a one-dimensional kernel over Q
        while True:
            rows = rng.integers(-16, 17, size=STACKED_ROWS)
            if rank_mod_p(rows) == rows.shape[0]:
                break
        path = work / f"rows_{i:02d}.txt"
        _write_matrix(root / path, rows)
        jobs.append(
            {
                "kind": "normal_vector",
                "argv": ["normal-vector", "--input", str(path), "--m", "16"],
                "input": str(path),
            }
        )
    return jobs
