"""intmat's benchmark: closed-loop CLI workloads, checked outputs, layer traces.

    python3 perfbench/run.py --workload sampled --seed 1 --seconds 35 --trace 0

One client runs the workload's fixed job list (workloads.py) in sequence,
each job an `intmat.cli.main(argv)` call, in a fresh interpreter per pass
(child.py). At least three passes run, and more while the next one is
expected to end within --seconds. Every pass's output is checked
(check.py) after its timers stop. The last line of stdout is the result:

- --trace 0: wall_s (median seconds per pass for the job list), setup_s
  (median seconds from spawning an interpreter to intmat.cli imported and
  its parser built, over several set-up-only interpreters and every pass)
  and peak_rss_mib (median peak RSS of a pass).
- --trace 1: untraced and traced passes alternate; the per-layer metrics
  of tracing.PER_LAYER come from the traced ones, with trace.wall_s,
  trace.self_sum_s (layer self times plus cli.self_s) and
  trace_overhead_ratio (traced over untraced wall_s).

`failed` counts jobs whose exit code or output is wrong; failed/attempted
is the run's fail ratio. The program runs from ./src of the checkout this
file sits in; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from check import check
from tracing import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.self_sum_s": "s", "trace_overhead_ratio": "ratio"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("INTMAT_THREADS", None)  # every estimate job sets --threads itself
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(work: Path, tag: str, jobs: list, trace: bool, env: dict) -> dict:
    """Spawn one interpreter for `jobs`; return its record plus setup_s."""
    request, result = work / f"{tag}.request.json", work / f"{tag}.result.json"
    request.write_text(
        json.dumps({"jobs": jobs, "trace": trace, "spans_path": str(work / "spans.json")})
    )
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(request), str(result)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed ({proc.returncode}):\n{proc.stderr}")
    record = json.loads(result.read_text())
    record["setup_s"] = record["ready"] - spawned
    return record


def _machine() -> dict:
    """nproc, CPU model, cache sizes and library versions of this run."""
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        info["cpu"] = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                info[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def _check_pass(jobs: list, record: dict) -> list[str]:
    problems = []
    for job, res in zip(jobs, record["results"]):
        why = check(job, res["rc"], res["stdout"], ROOT)
        if why:
            problems.append(f"{' '.join(job['argv'])}: {why}; stderr: {res['stderr'][-300:]!r}")
    return problems


def _traced_metrics(plain: list, traced: list) -> dict[str, float]:
    per_pass = [layer_metrics(r["trace"]) for r in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.self_sum_s"] = statistics.median(
        sum(k["self_s"] for k in r["trace"]["keys"].values()) for r in traced
    )
    metrics["trace_overhead_ratio"] = traced_wall / statistics.median(r["wall_s"] for r in plain)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_rel = Path(".perfbench") / f"{workload}-{seed}"
    work = ROOT / work_rel
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.build(workload, seed, work_rel, ROOT)
    env = _child_env()

    setups = [_run_child(work, f"setup{i}", [], False, env)["setup_s"] for i in range(SETUP_PROBES)]
    plain, traced, problems = [], [], []
    start = time.monotonic()
    while True:
        with_trace = trace and len(traced) < len(plain)
        passes = len(plain) + len(traced)
        record = _run_child(work, f"pass{passes}", jobs, with_trace, env)
        (traced if with_trace else plain).append(record)
        setups.append(record["setup_s"])
        problems += _check_pass(jobs, record)
        print(
            f"pass {passes}: traced={int(with_trace)} wall_s={record['wall_s']:.4f} "
            f"setup_s={record['setup_s']:.4f} rss_mib={record['maxrss_kib'] / 1024:.1f}",
            file=sys.stderr,
        )
        passes += 1
        elapsed = time.monotonic() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break

    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}", file=sys.stderr)
    for line in problems[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if trace:
        metrics = _traced_metrics(plain, traced)
        units = {name: unit for name, unit, *_ in PER_LAYER} | TRACE_UNITS
        print(json.dumps({"absent": traced[0]["trace"]["absent"]}))
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["maxrss_kib"] for r in plain) / 1024,
        }
        units = E2E_UNITS
    return {
        "correct": not problems,
        "attempted": passes * len(jobs),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "intmat" / "__init__.py").is_file():
        print(f"no intmat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": _machine()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
