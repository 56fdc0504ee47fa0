"""Self-test of the benchmark's checker and trace arithmetic.

    python3 -m pytest -q perfbench/test_check.py

Needs numpy only; intmat is not imported.
"""

import json
import math
from pathlib import Path

import numpy as np

import check
import workloads
from tracing import PER_LAYER, self_times

ROOT = Path(__file__).resolve().parent.parent


def _exact_payload(fraction: str) -> str:
    return json.dumps(
        {"fraction_exact": fraction, "schwartz_zippel_bound_exact": "1/1", "lower_bound_exact": "1/9"}
    )


def test_wrong_exact_fraction_fails():
    job = {"kind": "exact", "n": 2, "m": 1}
    assert check.check(job, 0, _exact_payload("11/27"), ROOT) is None
    assert check.check(job, 0, _exact_payload("10/27"), ROOT) == "wrong fraction"


def test_non_mds_generated_matrix_fails():
    job = {"kind": "mds_generate", "k": 2, "n": 3, "m": 1, "output": None}

    def payload(rows):
        return json.dumps({"m_used": 1, "attempts": 1, "matrix": rows})

    assert check.check(job, 0, payload([[1, 0, 1], [0, 1, 1]]), ROOT) is None
    assert check.check(job, 0, payload([[1, 1, 0], [1, 1, 1]]), ROOT) == (
        "generated matrix is not MDS"
    )


def _lcd_job(tmp_path, vector):
    path = tmp_path / "v.txt"
    workloads._write_vector(path, vector)
    d_max = math.sqrt(workloads.LCD_ALPHA * workloads.VECTOR_N)
    return {
        "kind": "lcd", "input": str(path), "alpha": workloads.LCD_ALPHA,
        "beta": workloads.LCD_BETA, "d_max": d_max, "step": workloads.LCD_STEP,
    }


def test_flipped_lcd_verdict_fails(tmp_path):
    rng = np.random.default_rng(7)
    job = _lcd_job(tmp_path, workloads._near_sparse(rng, late=False))
    d, support, resid = check._lcd_expected(
        Path(job["input"]).read_text(), job["alpha"], job["beta"], job["d_max"], job["step"]
    )
    assert d == 0.01
    found = {"found": True, "lcd_upper": d,
             "certificate": {"d": d, "sparse_support": support, "residual": resid}}
    missed = {"found": False, "lcd_upper": "inf", "certificate": None}
    assert check.check(job, 0, json.dumps(found), tmp_path) is None
    assert check.check(job, 0, json.dumps(missed), tmp_path) == "expected LCD <= 0.01"

    job = _lcd_job(tmp_path, workloads._unit(rng.standard_normal(workloads.VECTOR_N)))
    assert check.check(job, 0, json.dumps(missed), tmp_path) is None
    assert check.check(job, 0, json.dumps(found), tmp_path) == (
        "scan reports a witness where none exists"
    )


def test_late_near_sparse_vector_stops_near_1_54(tmp_path):
    job = _lcd_job(tmp_path, workloads._near_sparse(np.random.default_rng(3), late=True))
    d, _, _ = check._lcd_expected(
        Path(job["input"]).read_text(), job["alpha"], job["beta"], job["d_max"], job["step"]
    )
    assert 1.4 <= d <= 1.7


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.build("exact", 5, Path("a"), tmp_path)
    b = workloads.build("exact", 5, Path("b"), tmp_path)
    c = workloads.build("exact", 6, Path("c"), tmp_path)

    def seeds(jobs):
        return [j["argv"][j["argv"].index("--seed") + 1] for j in jobs if "--seed" in j["argv"]]

    assert seeds(a) == seeds(b) != seeds(c)
    assert (tmp_path / "a/verify_8x16.txt").read_text() == (tmp_path / "b/verify_8x16.txt").read_text()
    assert (tmp_path / "a/verify_8x16.txt").read_text() != (tmp_path / "c/verify_8x16.txt").read_text()


def test_overlapping_worker_spans_share_time():
    # job 1 [0, 10] > mc 2 [1, 9] > two workers [2, 6] and [4, 8]
    spans = [(3, 2, "w", 2.0, 6.0), (4, 2, "w", 4.0, 8.0), (2, 1, "mc", 1.0, 9.0),
             (1, None, "job", 0.0, 10.0)]
    selfs = self_times(spans)
    assert selfs == {3: 3.0, 4: 3.0, 2: 2.0, 1: 2.0}
    assert sum(selfs.values()) == 10.0


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    assert names[: len(PER_LAYER)] == [row[0] for row in PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
