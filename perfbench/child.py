"""One pass of a workload's jobs in a fresh interpreter.

Run by run.py as `python3 child.py REQUEST RESULT`. REQUEST is a JSON file
with the job list and whether to trace; RESULT receives exit codes,
captured output, per-job seconds and peak RSS. With no jobs in the
request the child only measures set-up: importing intmat.cli and building
its parser.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _run(cli, argv, out, err):
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed pass
            traceback.print_exc()
            return -1


def main(request_path: str, result_path: str) -> None:
    import intmat.cli as cli

    cli.build_parser()
    ready = time.monotonic()  # CLOCK_MONOTONIC, comparable with the parent's clock
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    first = last = None
    for job in request["jobs"]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        if tracer is None:
            rc = _run(cli, job["argv"], out, err)
        else:
            rc = tracer.job(lambda: _run(cli, job["argv"], out, err))
        t1 = time.perf_counter()
        first = t0 if first is None else first
        last = t1
        results.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "s": t1 - t0})
    record = {
        "ready": ready,
        "wall_s": (last - first) if results else 0.0,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        with open(request["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
