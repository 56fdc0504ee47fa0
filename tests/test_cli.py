import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import intmat
from intmat import charfunc, cli, singularity
from intmat.cli import main
from intmat.errors import DomainError
from intmat.formats import read_matrix, write_matrix
from intmat.geometry import normal_vector
from intmat.linalg import IntMatrix
from intmat.mds import is_mds

from oracles import brute_is_mds, identity, mp_entries, mp_format


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


@pytest.mark.parametrize("n", ["9", "100000"])
def test_exact_past_the_int64_bound_asks_for_no_budget(capsys, n):
    # the row stacks are counted first: no budget would let (9, 1) run, and
    # (100000, 1) once computed 3**(10**10) for its budget check
    code, out, err = run(capsys, ["exact", "--n", n, "--m", "1"])
    assert code == 2 and out == ""
    assert "2**64 row stacks" in err and "rerun with budget" not in err
    assert err.count("\n") == 1


def test_exact_zero_alphabet_closed_form(capsys):
    code, out, _ = run(capsys, ["exact", "--n", "20", "--m", "0", "--json"])
    assert code == 0
    assert json.loads(out)["fraction_exact"] == "1/1"


def test_unknown_flag_usage_exit_1(capsys):
    # a usage error is one line; -h prints the usage
    code, _, err = run(capsys, ["exact", "--n", "1", "--m", "1", "--bogus"])
    assert code == 1
    assert err == "intmat: error: unrecognized arguments: --bogus\n"
    code, _, err = run(capsys, ["exact", "--n", "x", "--m", "1"])
    assert code == 1
    assert err == "intmat exact: error: argument --n: invalid int value: 'x'\n"
    code, out, _ = run(capsys, ["exact", "-h"])
    assert code == 0 and out.startswith("usage: intmat exact")


def test_unknown_command_exit_1(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1
    assert err.startswith("intmat: error: argument command: invalid choice")
    assert err.count("\n") == 1


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


def test_estimate_takes_exactly_one_of_m_and_dist(capsys, tmp_path):
    law = tmp_path / "law.json"
    law.write_text('{"support": [-1, 0, 1], "pmf": ["1/4", "1/2", "1/4"]}')
    base = ["estimate", "--n", "3", "--trials", "10", "--seed", "1"]
    assert run(capsys, [*base, "--dist", f"custom:{law}"])[0] == 0
    for flags in (["--m", "7", "--dist", f"custom:{law}"], []):
        code, out, _ = run(capsys, [*base, *flags])
        assert code == 1 and out == ""


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


@pytest.mark.parametrize("law, named", [
    ("[1, 2]", '"support" and "pmf" lists'),
    ('{"support": 5, "pmf": [1]}', '"support" and "pmf" lists'),
    ('{"support": [0, 1]}', '"support" and "pmf" lists'),
    ('{"support": [0, 1], "pmf": [null, 1]}', "pmf[0] must be a string or a number, got null"),
    ('{"support": [0, 1.5], "pmf": ["1/2", "1/2"]}', "support[1] must be an integer, got 1.5"),
    ('{"support": [false, true], "pmf": ["1/2", "1/2"]}', "support[0] must be an integer, got false"),
    ('{"support": ["0", 1], "pmf": ["1/2", "1/2"]}', 'support[0] must be an integer, got "0"'),
    ('{"support": [0, 1], "pmf": ["1/2", "1/0"]}', "Fraction(1, 0)"),
    ('{"support": [0, 1], "pmf": ["1/2", "half"]}', "Invalid literal for Fraction"),
    ('{"support": [0, 1], "pmf": ["1/2", Infinity]}', "Infinity"),
    ('{"support": [0, 1], "pmf": ["1/2"]}', "length mismatch"),
    ('{"support": [0, 1], "pmf": ["1/2", "1/3"]}', "sum to exactly 1"),
])
def test_malformed_law_file_exit_1_in_one_line(tmp_path, capsys, law, named):
    spec = tmp_path / "law.json"
    spec.write_text(law)
    argv = ["estimate", "--n", "3", "--dist", f"custom:{spec}", "--trials", "10", "--seed", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"intmat: {spec}: ") and named in err and err.count("\n") == 1


def test_law_file_pmf_numbers_read_as_their_fractions(tmp_path, capsys):
    outs = []
    for pmf in ('["1/4", "1/2", "1/4"]', "[0.25, 0.5, 0.25]"):
        spec = tmp_path / "law.json"
        spec.write_text(f'{{"support": [-1, 0, 1], "pmf": {pmf}}}')
        argv = ["estimate", "--n", "3", "--dist", f"custom:{spec}", "--trials", "5000",
                "--seed", "2", "--json"]
        outs.append(run(capsys, argv))
    assert outs[0] == outs[1] and outs[0][0] == 0


@pytest.mark.parametrize("text, named", [
    ("n,m,hits\n2,2,0\n", "no 'estimate' column"),
    ("", "no 'n' column"),
    ("n,m,estimate\n2,2\n", "could not convert string to float"),
])
def test_fit_malformed_csv_exit_1_in_one_line(tmp_path, capsys, text, named):
    path = tmp_path / "points.csv"
    path.write_text(text)
    code, out, err = run(capsys, ["fit", "--input", str(path)])
    assert (code, out) == (1, "")
    assert named in err and err.count("\n") == 1


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


def test_mds_verify_19x19_identity_within_budget(tmp_path, capsys):
    path = tmp_path / "square.txt"
    write_matrix(identity(19), path)
    code, out, _ = run(capsys, ["mds", "verify", "--input", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["is_mds"] is True and payload["minors_checked"] == 1


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


def test_mds_generate_default_m_k2_n200_exit_0():
    # the default m is k * C(n, k) = 39,800; a subprocess with a timeout
    # turns a hang into a failure instead of a stalled suite
    env = dict(os.environ, PYTHONPATH=str(Path(intmat.__file__).parents[1]))
    argv = ["mds", "generate", "--k", "2", "--n", "200", "--seed", "1", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "intmat.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["m_used"] == 39_800
    assert brute_is_mds(payload["matrix"]) == (True, None)


def _cli_subprocess(argv):
    # a subprocess, so warnings reach stderr as a user would see them
    env = dict(os.environ, PYTHONPATH=str(Path(intmat.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "intmat.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; no default or subcommand may
    # leak from one call into the next
    path = tmp_path / "dup.txt"
    write_matrix(IntMatrix.from_rows([[1, 1, 2], [3, 3, 4]]), path)
    estimate = ["estimate", "--n", "2", "--m", "2", "--trials", "5000", "--seed", "9",
                "--threads", "1"]
    runs = [estimate + ["--csv"], estimate, ["mds", "verify", "--input", str(path)]]

    def stable(out):  # the human report's wall time differs between runs
        return [line for line in out.splitlines() if not line.startswith("elapsed_s:")]

    for argv in runs:
        code, out, err = run(capsys, argv)
        proc = _cli_subprocess(argv)
        assert (code, stable(out), err) == (proc.returncode, stable(proc.stdout), proc.stderr)
    assert cli.build_parser() is cli.build_parser()


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


def test_smallball_non_finite_eps_exit_1_before_sampling(capsys, monkeypatch):
    monkeypatch.setattr(charfunc, "map_shards", _refuse)
    for eps in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, ["smallball", "--n", "10", "--m", "2", f"--eps={eps}",
                                      "--trials", "2000000000", "--seed", "1"])
        assert code == 1 and out == ""
        assert err == "intmat: epsilon must be positive and finite\n"


@pytest.mark.parametrize("bad, message", [
    (["--eps", "nan"], "epsilon must be positive and finite"),
    (["--trials", "0"], "trials must be >= 1"),
    (["--alpha", "2", "--beta", "0.1"], "alpha must lie in (0, 1)"),
    (["--alpha", "0.1"], "alpha and beta must be given together"),
    (["--beta", "0.1"], "alpha and beta must be given together"),
], ids=["eps-nan", "trials-0", "alpha-2", "alpha-only", "beta-only"])
def test_smallball_checks_its_inputs_before_drawing_the_direction(capsys, monkeypatch, bad,
                                                                  message):
    monkeypatch.setattr(cli, "random_unit_vector", _refuse)
    argv = ["smallball", "--n", str(cli._DRAW_BATCH), "--m", "2", "--eps", "0.1",
            "--trials", "10", "--seed", "1"]
    code, out, err = run(capsys, argv + bad)  # a repeated flag's last value wins
    assert code == 1 and out == ""
    assert err == f"intmat: {message}\n"


def test_estimate_n_over_the_draw_cap_exit_1(capsys, monkeypatch):
    # one matrix is drawn whole, so its n**2 entries must fit one sub-batch
    assert cli.MAX_ESTIMATE_N**2 <= cli._DRAW_BATCH < (cli.MAX_ESTIMATE_N + 1) ** 2
    monkeypatch.setattr(cli, "mc_singularity", _refuse)
    for n in (cli.MAX_ESTIMATE_N + 1, 10**12):
        code, out, err = run(capsys, ["estimate", "--n", str(n), "--m", "1",
                                      "--trials", "10", "--seed", "1"])
        assert code == 1 and out == ""
        assert err == f"intmat: n must be <= {cli.MAX_ESTIMATE_N}\n"


def _lcd_argv(tmp_path, dmax, step):
    vec = tmp_path / "v.txt"
    vec.write_text("2\n0.6\n0.8\n")
    return ["lcd", "--input", str(vec), "--alpha", "0.2", "--beta", "0.1",
            f"--dmax={dmax}", f"--step={step}"]


def test_lcd_non_finite_dmax_or_step_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "read_vector", _refuse)
    for dmax, step in (("inf", "0.5"), ("-inf", "0.5"), ("nan", "0.5"), ("8", "nan"),
                       ("inf", "inf")):
        code, out, err = run(capsys, _lcd_argv(tmp_path, dmax, step))
        assert code == 1 and out == ""
        assert err == "intmat: dmax and step must be finite\n"


def test_lcd_over_the_grid_cap_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "read_vector", _refuse)
    for dmax, step in ((str(2.0 * cli.MAX_GRID), "1"), ("1e300", "1e-300")):
        code, out, err = run(capsys, _lcd_argv(tmp_path, dmax, step))
        assert code == 1 and out == ""
        assert err == f"intmat: dmax / step must be <= {cli.MAX_GRID}\n"
    # MAX_GRID points exactly pass the check
    with pytest.raises(AssertionError, match="validation must run before this"):
        main(_lcd_argv(tmp_path, str(cli.MAX_GRID * 0.5), "0.5"))


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


def test_normal_vector_m_is_checked_but_does_not_change_the_output(tmp_path, capsys):
    path = tmp_path / "rows.txt"
    write_matrix(IntMatrix.from_rows([[1, 2, 3], [-4, 5, 6]]), path)
    outputs = set()
    for m in ("1", "6", "1000"):
        code, out, _ = run(capsys, ["normal-vector", "--input", str(path), "--m", m])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    code, out, err = run(capsys, ["normal-vector", "--input", str(path), "--m", "0"])
    assert code == 1 and out == ""
    assert err == "intmat: m must be >= 1\n"


def test_normal_vector_digits_below_one_exit_1(tmp_path, capsys, monkeypatch):
    # --digits 0 once printed ".0e-1" and exited 0
    monkeypatch.setattr(cli, "read_matrix", _refuse)
    for digits in ("0", "-3"):
        code, out, err = run(capsys, ["normal-vector", "--input", str(tmp_path / "rows.txt"),
                                      "--digits", digits])
        assert code == 1 and out == ""
        assert err == "intmat: digits must be >= 1\n"


def test_normal_vector_digits_past_the_cap_exit_1(tmp_path, capsys, monkeypatch):
    # 10**6 digits once ran for more than 15 s on a 2 x 3 matrix
    monkeypatch.setattr(cli, "read_matrix", _refuse)
    for digits in (cli.MAX_DIGITS + 1, 10**7):
        code, out, err = run(capsys, ["normal-vector", "--input", str(tmp_path / "rows.txt"),
                                      "--digits", str(digits)])
        assert code == 1 and out == ""
        assert err == f"intmat: digits must be <= {cli.MAX_DIGITS}\n"


# Values for each size argument: small ones that finish well within a
# second, and ones past the bound that refuses them. None is valid and slow
# (smallball --n 10**6 is within its draw cap, so it is left out).
_N = (-1, 0, 1, 3, 1025, 10**6, 10**30)
_M = (-1, 0, 1, 3, 2**62, 2**63, 10**30)
_TRIALS = (-1, 0, 1, 100, 2**31 + 1, 10**30)
_SEEDS = (-1, 1, 2**64, 10**30)
_REALS = ("-1", "0", "1e-300", "0.5", "1e300", "inf", "nan")


@st.composite
def extreme_argv(draw):
    def pick(*values):
        return str(draw(st.sampled_from(values)))

    seed = ["--seed", pick(*_SEEDS)]
    threads = ["--threads", pick(1, 2)]  # never a large pool
    command = draw(st.sampled_from(
        ("estimate", "smallball", "exact", "charfunc", "mds", "normal-vector", "lcd")))
    if command == "estimate":
        return ["estimate", "--n", pick(*_N), "--m", pick(*_M), "--trials", pick(*_TRIALS),
                *seed, *threads]
    if command == "smallball":
        return ["smallball", "--n", pick(-1, 0, 1, 3, 2**20 + 1, 10**30), "--m", pick(*_M),
                "--eps", pick(*_REALS), "--trials", pick(*_TRIALS), *seed, *threads]
    if command == "exact":
        return ["exact", "--n", pick(*_N), "--m", pick(*_M),
                "--budget", pick(-1, 0, 10**8, 10**40)]
    if command == "charfunc":
        return ["charfunc", "--m", pick(*_M), "--grid", pick(-1, 0, 10, 2**20 + 1, 10**30)]
    if command == "mds":
        return ["mds", "generate", "--k", pick(-1, 0, 1, 3, 10**6), "--n", pick(*_N),
                "--m", pick(*_M), *seed]
    if command == "normal-vector":
        return ["normal-vector", "--input", "rows.txt", "--m", pick(*_M),
                "--digits", pick(-1, 0, 1, 36, 100_001, 10**30)]
    return ["lcd", "--input", "vec.txt", "--alpha", pick("0.1", "0", "-1", "2", "nan"),
            "--beta", pick("0.1", "0", "-1", "2", "nan"), "--dmax", pick(*_REALS),
            "--step", pick(*_REALS)]


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv")
    (path / "rows.txt").write_text("2 3\n1 2 3\n-4 5 6\n")
    (path / "vec.txt").write_text("3\n0.6\n0.8\n0\n")
    return path


# the CLI under 2 GB of address space, set before numpy or intmat loads
_LIMITED_CLI = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))
from intmat.cli import main
sys.exit(main(sys.argv[1:]))
"""


@settings(derandomize=True, max_examples=20, deadline=None)
@given(argv=extreme_argv())
def test_extreme_argv_exits_cleanly_in_a_child_process(argv_inputs, argv):
    # each argv in its own process, under 2 GB of address space and a 5 s
    # timeout: a refusal, a hang or a traceback fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(intmat.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    env.pop("INTMAT_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, *argv], cwd=argv_inputs, env=env,
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode in (0, 1, 2), (argv, proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)


def test_normal_vector_prints_past_the_int_to_str_limit(tmp_path, capsys):
    # 5000 digits are truncated from a digit string longer than int-to-str's
    # 4300-digit limit; mpmath converted it in pieces, and so does the
    # formatter
    path = tmp_path / "rows.txt"
    write_matrix(IntMatrix.from_rows([[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]]), path)
    code, out, err = run(capsys, ["normal-vector", "--input", str(path), "--digits", "5000"])
    assert (code, err) == (0, "")
    assert out == mp_format(mp_entries(normal_vector(read_matrix(path))), 5000)


def test_vector_entry_out_of_range_exit_1(tmp_path, capsys):
    # the parse once formed 10**999999999 before dividing by it
    for token in ("1e-999999999", "1e999999999"):
        path = tmp_path / "v.txt"
        path.write_text(f"2\n1\n{token}\n")
        for argv in (["compress", "--input", str(path), "--alpha", "0.2", "--beta", "0.1"],
                     ["lcd", "--input", str(path), "--alpha", "0.2", "--beta", "0.1",
                      "--dmax", "4", "--step", "0.5"]):
            code, out, err = run(capsys, argv)
            assert code == 1 and out == ""
            assert err == ("intmat: nonzero entries must lie between 1e-4000 and 1e+4001 "
                           "in magnitude\n")


def test_import_intmat_loads_neither_numpy_nor_mpmath():
    probe = ("import sys; before = set(sys.modules); import intmat; "
             "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
             " & {'numpy', 'mpmath'}))")
    env = dict(os.environ, PYTHONPATH=str(Path(intmat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_import_intmat_cli_loads_no_mpmath():
    probe = ("import sys; import intmat.cli; intmat.cli.build_parser();"
             " print('mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(intmat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("exc, code", [(MemoryError(), 2), (OverflowError("math range error"), 1)])
def test_memory_and_overflow_errors_print_one_line(capsys, monkeypatch, exc, code):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "exact_singular_fraction", fail)
    rc, out, err = run(capsys, ["exact", "--n", "2", "--m", "1"])
    assert rc == code and out == ""
    assert err.startswith("intmat: ") and err.count("\n") == 1
    assert err == ("intmat: out of memory\n" if code == 2 else "intmat: math range error\n")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_interrupt_prints_one_line_and_exits_130(capsys, monkeypatch, threads):
    # SIGINT raises KeyboardInterrupt in the main thread; from a worker it
    # reaches the main thread through map_shards' futures
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(singularity, "_singular_count", interrupted)
    argv = ["estimate", "--n", "3", "--m", "1", "--trials", "200000", "--seed", "1",
            "--threads", threads, "--json"]
    try:
        result = run(capsys, argv)
    except KeyboardInterrupt:
        pytest.fail("main let KeyboardInterrupt through")
    assert result == (130, "", "intmat: interrupted\n")


def test_broken_pipe_prints_one_line_and_exits_1():
    # the reader closes stdout after the first line
    env = dict(os.environ, PYTHONPATH=str(Path(intmat.__file__).parents[1]))
    argv = ["charfunc", "--m", "4", "--grid", "1000000", "--csv"]
    with subprocess.Popen([sys.executable, "-m", "intmat.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"y,F,G_bound\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b"intmat: [Errno 32] Broken pipe\n"


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


def test_threads_default_to_usable_cpus(monkeypatch):
    monkeypatch.delenv("INTMAT_THREADS", raising=False)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli._resolve_threads(argparse.Namespace(threads=None)) == 3
    assert cli._resolve_threads(argparse.Namespace(threads=2)) == 2
    monkeypatch.setenv("INTMAT_THREADS", "1")
    assert cli._resolve_threads(argparse.Namespace(threads=None)) == 1
    # without an affinity call, the CPU count
    monkeypatch.delenv("INTMAT_THREADS")
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._resolve_threads(argparse.Namespace(threads=None)) == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._resolve_threads(argparse.Namespace(threads=None)) == 1


def test_threads_over_the_cap(monkeypatch):
    # in-process on the resolver: no pool is started
    over = cli.MAX_THREADS + 1
    assert cli._resolve_threads(argparse.Namespace(threads=cli.MAX_THREADS)) == cli.MAX_THREADS
    with pytest.raises(DomainError, match=f"threads must be <= {cli.MAX_THREADS}"):
        cli._resolve_threads(argparse.Namespace(threads=over))
    monkeypatch.setenv("INTMAT_THREADS", str(over))
    with pytest.raises(DomainError, match=f"threads must be <= {cli.MAX_THREADS}"):
        cli._resolve_threads(argparse.Namespace(threads=None))
    # the usable CPUs are capped, not refused
    monkeypatch.delenv("INTMAT_THREADS")
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(over)), raising=False)
    assert cli._resolve_threads(argparse.Namespace(threads=None)) == cli.MAX_THREADS


def test_smallball_threads_zero_exit_1(capsys):
    code, out, err = run(capsys, ["smallball", "--n", "5", "--m", "2", "--eps", "0.1",
                                  "--trials", "1000", "--seed", "1", "--threads", "0"])
    assert code == 1 and out == ""
    assert err == "intmat: threads must be >= 1\n"


# Golden normal vectors: SHA-256 prefixes of `normal-vector` stdout. The
# vector is the canonical kernel vector (content 1, positive leading
# coordinate), normalized, so any exact kernel algorithm prints the same
# bytes. Five seeded 39 x 40 stacks with |a| <= 16 (one-dimensional
# kernel), and one 5 x 6 matrix of rank 3 (three-dimensional kernel).
GOLDEN_NORMAL_VECTOR = {
    "39x40_seed1": "f0c0a7190268fb67",
    "39x40_seed2": "5f47015307301c1b",
    "39x40_seed3": "107c276547c3eb92",
    "39x40_seed4": "2580b2b27ac9ce03",
    "39x40_seed5": "8f484aa36ad621bd",
    "5x6_rank3": "7b260ee1c8d22620",
}


def _golden_rows(name):
    if name == "5x6_rank3":
        return [[1, 2, 0, -1, 3, 4], [0, 1, 1, 2, -2, 0], [1, 3, 1, 1, 1, 4],
                [2, 4, 0, -2, 6, 8], [3, -1, 2, 0, 5, 1]]
    seed = int(name.rsplit("seed", 1)[1])
    return np.random.default_rng(seed).integers(-16, 17, size=(39, 40)).tolist()


@pytest.mark.parametrize("name", sorted(GOLDEN_NORMAL_VECTOR))
def test_golden_normal_vector_stdout(tmp_path, capsys, name):
    path = tmp_path / "rows.txt"
    write_matrix(IntMatrix.from_rows(_golden_rows(name)), path)
    code, out, _ = run(capsys, ["normal-vector", "--input", str(path), "--m", "16"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_NORMAL_VECTOR[name]


# `normal-vector` stdout of the six golden matrices, concatenated, by --digits
GOLDEN_NORMAL_VECTOR_DIGITS = {
    1: "c54567ad185949d7",
    17: "90cbcaa843a19ab7",
    36: "162b19b643afb9ac",
    40: "5eff99e62617b027",
}


@pytest.mark.parametrize("digits", sorted(GOLDEN_NORMAL_VECTOR_DIGITS))
def test_golden_normal_vector_digits(tmp_path, capsys, digits):
    outputs = []
    for name in sorted(GOLDEN_NORMAL_VECTOR):
        path = tmp_path / f"{name}.txt"
        write_matrix(IntMatrix.from_rows(_golden_rows(name)), path)
        code, out, _ = run(capsys, ["normal-vector", "--input", str(path),
                                    "--digits", str(digits)])
        assert code == 0
        outputs.append(out)
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()[:16]
    assert digest == GOLDEN_NORMAL_VECTOR_DIGITS[digits]


# Golden geometry reports: SHA-256 prefixes of the concatenated `compress
# --json` and `lcd --json` stdout of every vector of _golden_vectors under
# every parameter set below. Paths are relative, so the bytes do not depend
# on the directory the test runs in.
GOLDEN_GEOMETRY = {"compress": "0374dc5f843c6e4c", "lcd": "d9a4f501036543f5"}
GOLDEN_COMPRESS_PARAMS = [("0.5", "0.25"), ("0.1", "0.5"), ("0.5", "0.5")]
GOLDEN_LCD_PARAMS = [
    ("0.1", "0.25", repr(math.sqrt(5.0)), "0.01"),  # the C7 configuration at n = 50
    ("0.5", "0.5", "1.0", "0.125"),
    ("0.2", "0.1", "8.0", "0.5"),
]


def _golden_vectors(capsys, tmp_path):
    """Vector files as (name, text): random unit 50-vectors, near-sparse ones
    whose scan stops early, exact ties on the LCD bound, and 36-digit
    normal vectors."""
    rng = np.random.default_rng(2301)

    def text(v):
        v = v / np.linalg.norm(v)
        return f"{v.size}\n" + "".join(f"{float(t)!r}\n" for t in v)

    files = [(f"gauss{i}", text(rng.standard_normal(50))) for i in range(8)]
    for i, late in enumerate((False, True, False, True)):
        # five large coordinates and a tail of norm 0.2; a sixth coordinate
        # of 0.5 delays the first witness
        x = np.zeros(50)
        x[6:] = 0.2 * rng.standard_normal(44) / math.sqrt(44)
        if late:
            x[5] = 0.5
        big = rng.standard_normal(5) * 0.05 + 1.0
        x[:5] = big / np.linalg.norm(big) * rng.choice([-1.0, 1.0], 5)
        files.append((f"sparse{i}", text(x[rng.permutation(50)])))
    # (sqrt(3)/2, 1/2): at D = 1/8 the residual after one removal is 1/16 = beta*D
    files.append(("tie2", "2\n0.8660254037844386\n0.5\n"))
    # (1/4, ..., 1/4): {2x} = (1/2, ..., 1/2) and {4x} = 0
    files.append(("ones16", "16\n" + "0.25\n" * 16))
    for name in ("39x40_seed1", "5x6_rank3"):
        path = tmp_path / f"{name}.txt"
        write_matrix(IntMatrix.from_rows(_golden_rows(name)), path)
        code, out, _ = run(capsys, ["normal-vector", "--input", str(path)])
        assert code == 0
        files.append((f"normal_{name}", out))
    return files


def test_golden_compress_and_lcd_stdout(tmp_path, capsys, monkeypatch):
    from intmat import geometry

    files = _golden_vectors(capsys, tmp_path)
    monkeypatch.chdir(tmp_path)
    for name, body in files:
        (tmp_path / f"{name}.vec").write_text(body, encoding="ascii")
    confirmations = 0
    witness = geometry.lcd_witness

    def counted(*args):
        nonlocal confirmations
        confirmations += 1
        return witness(*args)

    monkeypatch.setattr(geometry, "lcd_witness", counted)
    outputs = {"compress": [], "lcd": []}
    for name, _ in files:
        for alpha, beta in GOLDEN_COMPRESS_PARAMS:
            argv = ["compress", "--input", f"{name}.vec", "--alpha", alpha, "--beta", beta,
                    "--json"]
            code, out, _ = run(capsys, argv)
            assert code == 0
            outputs["compress"].append(out)
        for alpha, beta, dmax, step in GOLDEN_LCD_PARAMS:
            argv = ["lcd", "--input", f"{name}.vec", "--alpha", alpha, "--beta", beta,
                    "--dmax", dmax, "--step", step, "--json"]
            code, out, _ = run(capsys, argv)
            assert code == 0
            outputs["lcd"].append(out)
    # some grid point fell inside the float margin and was confirmed exactly
    assert confirmations > 0
    found = [json.loads(out)["found"] for out in outputs["lcd"]]
    assert any(found) and not all(found)
    verdicts = [json.loads(out)["compressible"] for out in outputs["compress"]]
    assert any(verdicts) and not all(verdicts)
    digests = {k: hashlib.sha256("".join(v).encode()).hexdigest()[:16] for k, v in outputs.items()}
    assert digests == GOLDEN_GEOMETRY
