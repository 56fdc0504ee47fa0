"""Regenerate references.json: singular probabilities the checker compares
seeded `estimate` outputs against where exact enumeration is too costly.

Independent of intmat: entries come from numpy's default_rng and
determinants from oracles.singular_mask. Run from the repository root:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from oracles import singular_mask, vempala_pmf

HERE = Path(__file__).resolve().parent
BATCH = 1 << 17

# (key, n, m or None for the custom law, trials)
CASES = [
    ("n3_m4", 3, 4, 20_000_000),
    ("n3_m8", 3, 8, 20_000_000),
    ("n4_m2", 4, 2, 20_000_000),
    ("n4_m4", 4, 4, 20_000_000),
    ("n4_m8", 4, 8, 20_000_000),
    ("n6_m4", 6, 4, 10_000_000),
    ("n4_vempala_half_4", 4, None, 20_000_000),
    ("n8_m16", 8, 16, 2_000_000),
    ("n6_m64", 6, 64, 2_000_000),
]
VEMPALA = vempala_pmf(Fraction(1, 2), 4)


def estimate(n: int, m: int | None, trials: int, rng: np.random.Generator) -> dict:
    hits = 0
    done = 0
    while done < trials:
        take = min(BATCH, trials - done)
        if m is None:
            support = np.array(list(VEMPALA), dtype=np.int64)
            probs = np.array([float(p) for p in VEMPALA.values()])
            flat = rng.choice(support, size=take * n * n, p=probs)
            max_abs = int(np.abs(support).max())
        else:
            flat = rng.integers(-m, m + 1, size=take * n * n)
            max_abs = m
        hits += int(np.count_nonzero(singular_mask(flat.reshape(take, n, n), max_abs)))
        done += take
    p = hits / trials
    # zero hits: use the rule-of-three bound as the reference's spread
    se = math.sqrt(p * (1 - p) / trials) if hits else 3.0 / trials
    return {"n": n, "m": m, "trials": trials, "hits": hits, "p": p, "se": se}


def main() -> None:
    rng = np.random.default_rng(20101208)
    out = {key: estimate(n, m, trials, rng) for key, n, m, trials in CASES}
    out["n4_vempala_half_4"]["pmf"] = {str(v): str(p) for v, p in VEMPALA.items()}
    (HERE / "references.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
