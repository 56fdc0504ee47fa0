import json
import math
import os
import subprocess
import sys
from pathlib import Path

import intmat
from intmat import cli
from intmat.cli import main
from intmat.formats import read_matrix, write_matrix
from intmat.linalg import IntMatrix
from intmat.mds import is_mds


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_human(capsys):
    code, out, _ = run(capsys, ["exact", "--n", "1", "--m", "1"])
    assert code == 0
    assert out.startswith("1/3")


def test_exact_json_carries_bounds(capsys):
    code, out, _ = run(capsys, ["exact", "--n", "2", "--m", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fraction_exact"] == "11/27"
    assert payload["lower_bound_exact"] == "1/9"
    assert payload["version"]


def test_exact_budget_exceeded_exit_2(capsys):
    code, _, err = run(capsys, ["exact", "--n", "4", "--m", "4"])
    assert code == 2
    assert "budget" in err


def test_unknown_flag_usage_exit_1(capsys):
    code, _, err = run(capsys, ["exact", "--n", "1", "--m", "1", "--bogus"])
    assert code == 1
    assert "usage" in err


def test_unknown_command_exit_1(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1
    assert "usage" in err


def test_estimate_json_round_trip_and_thread_invariance(capsys):
    argv = ["estimate", "--n", "2", "--m", "1", "--trials", "30000", "--seed", "5", "--json"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out8, _ = run(capsys, argv + ["--threads", "8"])
    assert code == 0
    assert out1 == out8  # byte-identical regardless of threads
    payload = json.loads(out1)
    assert json.loads(json.dumps(payload)) == payload
    num, den = payload["estimate_exact"].split("/")
    assert payload["hits"] * int(den) == int(num) * payload["trials"]


def test_estimate_csv_schema(capsys):
    argv = ["estimate", "--n", "2", "--m", "2", "--trials", "5000", "--seed", "9", "--csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n,m,trials,hits,estimate,ci_low,ci_high,seed"
    fields = row.split(",")
    assert fields[0] == "2" and fields[1] == "2" and fields[7] == "9:0"


def test_estimate_requires_distribution(capsys):
    code, _, err = run(capsys, ["estimate", "--n", "2", "--trials", "10", "--seed", "1"])
    assert code == 1


def test_estimate_largest_int64_alphabet(capsys):
    argv = ["estimate", "--n", "2", "--m", str(2**62), "--trials", "10", "--seed", "1", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["m"] == 2**62


def test_estimate_alphabet_beyond_int64_exit_1(capsys):
    argv = ["estimate", "--n", "2", "--m", str(2**63), "--trials", "10", "--seed", "1", "--json"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("intmat:") and "Traceback" not in err


def test_estimate_custom_distribution(tmp_path, capsys):
    spec = tmp_path / "dist.json"
    spec.write_text(json.dumps({"support": [-1, 0, 1], "pmf": ["1/4", "1/2", "1/4"]}))
    argv = [
        "estimate",
        "--n", "1",
        "--dist", f"custom:{spec}",
        "--trials", "20000",
        "--seed", "3",
        "--json",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] is None
    assert abs(payload["estimate"] - 0.5) < 0.02  # Pr[entry = 0] = 1/2


def test_fit_pipeline(tmp_path, capsys):
    rows = ["n,m,trials,hits,estimate,ci_low,ci_high,seed"]
    for n in (2, 3, 4):
        for m in (2, 4, 8):
            p = m ** (-0.5 * n)
            rows.append(f"{n},{m},1000,0,{p!r},0,0,1:0")
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, ["fit", "--input", str(csv_path), "--json"])
    assert code == 0
    assert abs(json.loads(out)["c_hat"] - 0.5) < 1e-9


def test_mds_verify_negative_verdict_exit_0(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    write_matrix(IntMatrix.from_rows([[1, 1, 2], [3, 3, 4]]), path)
    code, out, _ = run(capsys, ["mds", "verify", "--input", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["is_mds"] is False
    assert payload["witness"] == [0, 1]


def test_mds_verify_over_minor_budget_exit_2(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    write_matrix(IntMatrix(10, 30, (1,) * 300), path)
    code, out, err = run(capsys, ["mds", "verify", "--input", str(path), "--json"])
    assert code == 2 and out == ""
    assert err.startswith("intmat: ") and str(math.comb(30, 10)) in err


def test_mds_generate_writes_verified_matrix(tmp_path, capsys):
    out_path = tmp_path / "mds.txt"
    argv = [
        "mds", "generate",
        "--k", "3", "--n", "6", "--m", "8",
        "--seed", "11",
        "--output", str(out_path),
        "--json",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    matrix = read_matrix(out_path)
    assert matrix.rows == 3 and matrix.cols == 6
    assert is_mds(matrix).is_mds
    assert payload["attempts"] >= 1


def test_mds_generate_failure_exit_2(capsys):
    argv = ["mds", "generate", "--k", "2", "--n", "20", "--m", "1",
            "--max-attempts", "5", "--seed", "1"]
    code, _, err = run(capsys, argv)
    assert code == 2


def test_mds_generate_default_m_beyond_int64_exit_1():
    # the derived default m is about 7e25; a subprocess with a timeout turns
    # a hang in deriving it into a failure instead of a stalled suite
    env = dict(os.environ, PYTHONPATH=str(Path(intmat.__file__).parents[1]))
    argv = ["mds", "generate", "--k", "2", "--n", "200", "--seed", "1", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "intmat.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("intmat:") and "Traceback" not in proc.stderr


def _cli_subprocess(argv):
    # a subprocess, so warnings reach stderr as a user would see them
    env = dict(os.environ, PYTHONPATH=str(Path(intmat.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "intmat.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_smallball_m_zero_fails_before_sampling():
    proc = _cli_subprocess(["smallball", "--n", "5", "--m", "0", "--eps", "0.1",
                            "--trials", "1000", "--seed", "1"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "intmat: m must be >= 1\n"
    assert "RuntimeWarning" not in proc.stderr and "invalid value" not in proc.stderr


def test_charfunc_negative_grid_exit_1():
    proc = _cli_subprocess(["charfunc", "--m", "2", "--grid", "-2"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "intmat: grid must be >= 0\n"
    assert "Number of samples" not in proc.stderr


def _refuse(*args, **kwargs):
    raise AssertionError("validation must run before this")


def test_charfunc_grid_over_the_cap_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli.np, "linspace", _refuse)
    for grid in (cli.MAX_GRID + 1, 10**15):
        code, out, err = run(capsys, ["charfunc", "--m", "2", "--grid", str(grid)])
        assert code == 1 and out == ""
        assert err == f"intmat: grid must be <= {cli.MAX_GRID}\n"


def test_smallball_n_over_the_draw_cap_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "random_unit_vector", _refuse)
    for n in (0, cli._DRAW_BATCH + 1):
        code, out, err = run(capsys, ["smallball", "--n", str(n), "--m", "2", "--eps", "0.1",
                                      "--trials", "10", "--seed", "1"])
        assert code == 1 and out == ""
        assert err == f"intmat: n must lie in [1, {cli._DRAW_BATCH}]\n"


def test_lcd_and_compress_commands(tmp_path, capsys):
    n = 16
    vec = tmp_path / "v.txt"
    vec.write_text(f"{n}\n" + "\n".join([repr(1 / math.sqrt(n))] * n) + "\n")
    argv = ["lcd", "--input", str(vec), "--alpha", "0.2", "--beta", "0.1",
            "--dmax", "8", "--step", "0.5", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True and payload["lcd_upper"] == 4.0
    assert payload["certificate"]["d"] == 4.0

    code, out, _ = run(capsys, ["compress", "--input", str(vec),
                                "--alpha", "0.2", "--beta", "0.5", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["compressible"] is False


def test_charfunc_csv(capsys):
    code, out, _ = run(capsys, ["charfunc", "--m", "2", "--grid", "8", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y,F,G_bound"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_smallball_json(capsys):
    argv = ["smallball", "--n", "10", "--m", "4", "--eps", "0.25",
            "--trials", "20000", "--seed", "8", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["estimate"] <= 1.0
    assert payload["esseen_integral"] > 0
    assert payload["lcd_bound"] is None


def test_normal_vector_command(tmp_path, capsys):
    path = tmp_path / "rows.txt"
    write_matrix(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), path)
    code, out, _ = run(capsys, ["normal-vector", "--input", str(path)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3"
    assert [float(v) for v in lines[1:]] == [0.0, 0.0, 1.0]


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, ["mds", "verify", "--input", "/nonexistent/x.txt"])
    assert code == 1


def test_threads_env_fallback(capsys, monkeypatch):
    argv = ["estimate", "--n", "2", "--m", "1", "--trials", "20000", "--seed", "5", "--json"]
    code, base, _ = run(capsys, argv)
    assert code == 0
    monkeypatch.setenv("INTMAT_THREADS", "6")
    code, with_env, _ = run(capsys, argv)
    assert code == 0
    assert base == with_env
    monkeypatch.setenv("INTMAT_THREADS", "0")
    code, _, err = run(capsys, argv)
    assert code == 1
