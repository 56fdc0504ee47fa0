"""Spans and counters around intmat's layer boundaries, from outside intmat.

The tracer replaces functions that one module calls in another with timing
wrappers, looked up through the calling module's namespace (so
`intmat.singularity.det_batch` times determinant batches that singularity
asks for). Spans stay in memory until the pass ends.

Self time is a span's duration minus the union of its children. Spans that
start in a pool worker thread with no open span of their own attach to the
span open in the main thread (the job span, or the Monte Carlo span inside
it). Where worker spans overlap, each instant is split evenly between the
spans innermost at that instant, so the self times of one pass add up to the
time its jobs took.

A wrapped name that the program no longer has is reported as absent, and
every metric fed by it is left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span key, counter hook); the layer is the key's
# first part, and the hook names the Tracer method that updates counters
SPANS = [
    ("intmat.cli", "mc_singularity", "singularity.mc", "_on_mc"),
    ("intmat.cli", "exact_singular_fraction", "singularity.enum", "_on_enum"),
    ("intmat.cli", "is_mds", "mds.verify", "_on_minors"),
    ("intmat.cli", "generate_mds", "mds.generate", None),
    ("intmat.mds", "is_mds", "mds.attempt", "_on_attempt"),
    ("intmat.cli", "lcd_scan", "geometry.lcd_scan", "_on_scan"),
    ("intmat.geometry", "lcd_witness", "geometry.lcd_witness", None),
    ("intmat.cli", "is_compressible", "geometry.compress", None),
    ("intmat.cli", "sparse_residual", "geometry.compress", None),
    ("intmat.cli", "normal_vector", "geometry.normal_vector", None),
    ("intmat.cli", "random_unit_vector", "geometry.random_unit_vector", None),
    ("intmat.cli", "small_ball_probe", "charfunc.small_ball", None),
    ("intmat.charfunc", "esseen_integral", "charfunc.esseen", None),
    ("intmat.cli", "read_matrix", "formats.read", "_on_read"),
    ("intmat.cli", "read_vector", "formats.read", "_on_read"),
    ("intmat.cli", "write_matrix", "formats.write", None),
    ("intmat.cli", "format_vector", "formats.write", None),
    ("intmat.singularity", "det_batch", "linalg.det_batch", "_on_det_batch"),
    ("intmat.singularity", "_det_rows", "linalg.bigint_det", None),
    ("intmat.mds", "det", "linalg.bigint_det", "_on_exact_minor"),
    ("intmat.mds", "det_mod", "linalg.det_mod", "_on_det_mod"),
    ("intmat.geometry", "kernel_basis", "linalg.kernel_basis", None),
    ("intmat.singularity", "generator", "sampling.generator", "_on_shard"),
    ("intmat.mds", "generator", "sampling.generator", None),
    ("intmat.charfunc", "generator", "sampling.generator", None),
    ("intmat.sampling", "EntryDistribution.sample_array", "sampling.sample_array", "_on_sample"),
]
# called too often, and too cheaply, for a span: counted only
COUNTED = [
    ("intmat.sampling", "raw_u64", "sampling.raw_u64", "_on_words"),
    ("intmat.charfunc", "f_grid", "charfunc.f_grid", "_on_f_grid"),
]
JOB = "cli.job"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Collects spans and counters for one pass of jobs."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.missing_keys: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._filter_open = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in SPANS and COUNTED that the program still has."""
        for module, path, key, hook_name in SPANS + COUNTED:
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            name = f"{module}.{path}"
            if fn is None:
                self.absent.append(name)
                self.missing_keys.add(key)
                continue
            hook = getattr(self, hook_name) if hook_name else None
            if (module, path, key, hook_name) in COUNTED:
                setattr(owner, attr, self._counted(fn, hook))
            else:
                setattr(owner, attr, self._timed(fn, key, hook))

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _timed(self, fn, key, hook):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, key, t0, t1))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _counted(fn, hook):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result

        return counted

    def job(self, run):
        """Run `run()` inside a job span on the main thread."""
        return self._timed(run, JOB, None)()

    # -- counters (pool threads call these too) -------------------------------

    def _add(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] += value

    def _on_mc(self, args, kwargs, result):
        self._add("mc_trials", _arg(args, kwargs, 2, "trials"))

    def _on_enum(self, args, kwargs, result):
        n, m = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "m")
        self._add("enum_matrices", (2 * m + 1) ** (n * n))

    def _on_shard(self, args, kwargs, result):
        self._add("mc_shards", 1)

    def _on_minors(self, args, kwargs, result):
        self._add("minors_checked", result.minors_checked)

    def _on_attempt(self, args, kwargs, result):
        self._add("mds_attempts", 1)
        self._on_minors(args, kwargs, result)

    def _on_scan(self, args, kwargs, result):
        self._add("lcd_scans", 1)
        self._add("lcd_found", int(result.found))

    def _on_read(self, args, kwargs, result):
        self._add("files_read", 1)
        self._add("bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))

    def _on_det_batch(self, args, kwargs, result):
        b, n, _ = _arg(args, kwargs, 0, "mats").shape
        self._add("det_batch_matrices", b)
        self._add("det_batch_bytes", b * n * n * 8)  # computed: the int64 working copy

    def _on_det_mod(self, args, kwargs, result):
        # a minor enters the prefilter at its first det_mod call and leaves it
        # when a residue proves it nonsingular or the exact det is asked for
        with self._lock:
            if not self._filter_open:
                self.counts["filter_minors"] += 1
                self._filter_open = True
            if result != 0:
                self.counts["filter_proved"] += 1
                self._filter_open = False
    def _on_exact_minor(self, args, kwargs, result):
        with self._lock:
            self._filter_open = False
    def _on_f_grid(self, args, kwargs, result):
        self._add("f_grid_calls", 1)

    def _on_sample(self, args, kwargs, result):
        self._add("entries", _arg(args, kwargs, 2, "count"))

    def _on_words(self, args, kwargs, result):
        count = _arg(args, kwargs, 1, "count")
        with self._lock:
            self.counts["words"] += count
            self.counts["max_draw_bytes"] = max(self.counts["max_draw_bytes"], count * 8)

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per-key span count, inclusive and self seconds, plus the counters."""
        selfs = self_times(self.spans)
        keys: dict[str, dict] = defaultdict(lambda: {"spans": 0, "incl_s": 0.0, "self_s": 0.0})
        for sid, _, key, t0, t1 in self.spans:
            k = keys[key]
            k["spans"] += 1
            k["incl_s"] += t1 - t0
            k["self_s"] += selfs[sid]
        return {
            "keys": dict(keys),
            "counts": dict(self.counts),
            "absent": self.absent,
            "missing_keys": sorted(self.missing_keys),
        }


def self_times(spans) -> dict[int, float]:
    """Self seconds per span id; overlapping innermost spans share time."""
    parent_of = {sid: parent for sid, parent, _, _, _ in spans}
    events = []
    for sid, _, _, t0, t1 in spans:
        events.append((t0, 1, sid))
        events.append((t1, 0, -sid))  # at equal times, ends first, children first
    events.sort()
    selfs = dict.fromkeys(parent_of, 0.0)
    open_children: dict[int, int] = {}
    innermost: set[int] = set()
    last = None
    for t, starting, sid in events:
        if innermost:
            share = (t - last) / len(innermost)
            for s in innermost:
                selfs[s] += share
        last = t
        sid = abs(sid)
        parent = parent_of[sid]
        if starting:
            open_children[sid] = 0
            innermost.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            innermost.discard(sid)
            del open_children[sid]
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)
    return selfs


def _ratio(a: float, b: float, scale: float = 1.0) -> float:
    return a * scale / b if b else 0.0


class _View:
    """Read access to one pass summary for the metric formulas."""

    def __init__(self, summary: dict):
        self.keys = summary["keys"]
        self.c = summary["counts"]

    def self_s(self, *keys: str) -> float:
        return sum(self.keys[k]["self_s"] for k in keys if k in self.keys)

    def layer(self, layer: str) -> float:
        """Self seconds of every key of one layer."""
        return sum(v["self_s"] for k, v in self.keys.items() if k.split(".")[0] == layer)

    def incl(self, *keys: str) -> float:
        return sum(self.keys.get(k, {}).get("incl_s", 0.0) for k in keys)

    def spans(self, key: str) -> int:
        return self.keys.get(key, {}).get("spans", 0)

    def n(self, name: str):
        return self.c.get(name, 0)


# name, unit, better, span keys it needs, formula, what it should move
PER_LAYER = [
    ("sampling.entries", "count", "lower", ["sampling.sample_array"],
     lambda v: v.n("entries"), "wall_s on sampled; none on exact or geometry"),
    ("sampling.self_s", "s", "lower", ["sampling.sample_array", "sampling.generator"],
     lambda v: v.layer("sampling"), "wall_s on sampled; none on exact or geometry"),
    ("sampling.ns_per_entry", "ns", "lower", ["sampling.sample_array", "sampling.generator"],
     lambda v: _ratio(v.layer("sampling"), v.n("entries"), 1e9), "wall_s on sampled"),
    ("sampling.words_per_entry", "count", "lower", ["sampling.sample_array", "sampling.raw_u64"],
     lambda v: _ratio(v.n("words"), v.n("entries")), "wall_s and peak_rss_mib on sampled"),
    ("sampling.max_draw_mib", "MiB_computed", "lower", ["sampling.raw_u64"],
     lambda v: v.n("max_draw_bytes") / 2**20, "peak_rss_mib on sampled"),
    ("linalg.det_batch.matrices", "count", "higher", ["linalg.det_batch"],
     lambda v: v.n("det_batch_matrices"), "wall_s on sampled and exact"),
    ("linalg.det_batch.self_s", "s", "lower", ["linalg.det_batch"],
     lambda v: v.self_s("linalg.det_batch"), "wall_s on sampled and exact; none on geometry"),
    ("linalg.det_batch.ns_per_matrix", "ns", "lower", ["linalg.det_batch"],
     lambda v: _ratio(v.self_s("linalg.det_batch"), v.n("det_batch_matrices"), 1e9),
     "wall_s on sampled and exact"),
    ("linalg.det_batch.bytes", "bytes_computed", "lower", ["linalg.det_batch"],
     lambda v: v.n("det_batch_bytes"), "peak_rss_mib on sampled and exact"),
    ("linalg.bigint_det.calls", "count", "lower", ["linalg.bigint_det"],
     lambda v: v.spans("linalg.bigint_det"), "wall_s on exact"),
    ("linalg.bigint_det.self_s", "s", "lower", ["linalg.bigint_det"],
     lambda v: v.self_s("linalg.bigint_det"), "wall_s on exact"),
    ("linalg.bigint_det.us_per_call", "us", "lower", ["linalg.bigint_det"],
     lambda v: _ratio(v.self_s("linalg.bigint_det"), v.spans("linalg.bigint_det"), 1e6),
     "wall_s on exact"),
    ("linalg.det_mod.calls", "count", "lower", ["linalg.det_mod"],
     lambda v: v.spans("linalg.det_mod"), "wall_s on exact"),
    ("linalg.det_mod.self_s", "s", "lower", ["linalg.det_mod"],
     lambda v: v.self_s("linalg.det_mod"), "wall_s on exact"),
    ("linalg.filter_proved_share", "ratio", "higher", ["linalg.det_mod", "linalg.bigint_det"],
     lambda v: _ratio(v.n("filter_proved"), v.n("filter_minors")), "wall_s on exact"),
    ("linalg.int64_share", "ratio", "higher", ["linalg.det_batch", "linalg.bigint_det"],
     lambda v: _ratio(v.n("det_batch_matrices"),
                      v.n("det_batch_matrices") + v.spans("linalg.bigint_det")),
     "wall_s on exact"),
    ("linalg.kernel_basis.calls", "count", "lower", ["linalg.kernel_basis"],
     lambda v: v.spans("linalg.kernel_basis"), "wall_s on geometry"),
    ("linalg.kernel_basis.self_s", "s", "lower", ["linalg.kernel_basis"],
     lambda v: v.self_s("linalg.kernel_basis"), "wall_s on geometry"),
    ("linalg.self_s", "s", "lower", [],
     lambda v: v.layer("linalg"), "wall_s on every workload"),
    ("singularity.mc.trials", "count", "higher", ["singularity.mc"],
     lambda v: v.n("mc_trials"), "wall_s on sampled"),
    ("singularity.mc.shards", "count", "lower", ["singularity.mc", "sampling.generator"],
     lambda v: v.n("mc_shards"), "wall_s on sampled"),
    ("singularity.mc.self_s", "s", "lower", ["singularity.mc"],
     lambda v: v.self_s("singularity.mc"), "wall_s on sampled"),
    ("singularity.mc.trials_per_s", "1/s", "higher", ["singularity.mc"],
     lambda v: _ratio(v.n("mc_trials"), v.incl("singularity.mc")), "wall_s on sampled and exact"),
    ("singularity.enum.matrices", "count", "higher", ["singularity.enum"],
     lambda v: v.n("enum_matrices"), "wall_s on exact"),
    ("singularity.enum.self_s", "s", "lower", ["singularity.enum"],
     lambda v: v.self_s("singularity.enum"), "wall_s on exact"),
    ("singularity.enum.matrices_per_s", "1/s", "higher", ["singularity.enum"],
     lambda v: _ratio(v.n("enum_matrices"), v.incl("singularity.enum")), "wall_s on exact"),
    ("mds.attempts", "count", "lower", ["mds.attempt"],
     lambda v: v.n("mds_attempts"), "wall_s on exact"),
    ("mds.minors_checked", "count", "lower", ["mds.verify", "mds.attempt"],
     lambda v: v.n("minors_checked"), "wall_s on exact"),
    ("mds.self_s", "s", "lower", ["mds.verify", "mds.generate", "mds.attempt"],
     lambda v: v.layer("mds"), "wall_s on exact"),
    ("mds.minors_per_s", "1/s", "higher", ["mds.verify", "mds.generate", "mds.attempt"],
     lambda v: _ratio(v.n("minors_checked"), v.incl("mds.verify", "mds.generate")),
     "wall_s on exact"),
    ("geometry.lcd_points", "count", "lower", ["geometry.lcd_witness"],
     lambda v: v.spans("geometry.lcd_witness"), "wall_s on geometry"),
    ("geometry.lcd_scan.self_s", "s", "lower", ["geometry.lcd_scan", "geometry.lcd_witness"],
     lambda v: v.self_s("geometry.lcd_scan", "geometry.lcd_witness"), "wall_s on geometry"),
    ("geometry.us_per_lcd_point", "us", "lower", ["geometry.lcd_scan", "geometry.lcd_witness"],
     lambda v: _ratio(v.self_s("geometry.lcd_scan", "geometry.lcd_witness"),
                      v.spans("geometry.lcd_witness"), 1e6), "wall_s on geometry"),
    ("geometry.lcd_found_share", "ratio", "higher", ["geometry.lcd_scan"],
     lambda v: _ratio(v.n("lcd_found"), v.n("lcd_scans")), "none: a property of the inputs"),
    ("geometry.compress.self_s", "s", "lower", ["geometry.compress"],
     lambda v: v.self_s("geometry.compress"), "wall_s on geometry"),
    ("geometry.normal_vector.self_s", "s", "lower", ["geometry.normal_vector"],
     lambda v: v.self_s("geometry.normal_vector"), "wall_s on geometry"),
    ("geometry.self_s", "s", "lower", [],
     lambda v: v.layer("geometry"), "wall_s on geometry"),
    ("charfunc.small_ball.self_s", "s", "lower", ["charfunc.small_ball"],
     lambda v: v.self_s("charfunc.small_ball"), "wall_s on sampled"),
    ("charfunc.esseen.self_s", "s", "lower", ["charfunc.esseen"],
     lambda v: v.self_s("charfunc.esseen"), "wall_s on sampled"),
    ("charfunc.f_grid.calls", "count", "lower", ["charfunc.f_grid"],
     lambda v: v.n("f_grid_calls"), "wall_s on sampled"),
    ("formats.files_read", "count", "lower", ["formats.read"],
     lambda v: v.n("files_read"), "wall_s on geometry and exact"),
    ("formats.bytes_read", "bytes", "lower", ["formats.read"],
     lambda v: v.n("bytes_read"), "wall_s on geometry and exact"),
    ("formats.read.self_s", "s", "lower", ["formats.read"],
     lambda v: v.self_s("formats.read"), "wall_s on geometry and exact"),
    ("formats.write.self_s", "s", "lower", ["formats.write"],
     lambda v: v.self_s("formats.write"), "wall_s on geometry and exact"),
    ("cli.jobs", "count", "higher", [],
     lambda v: v.spans(JOB), "wall_s on every workload"),
    ("cli.self_s", "s", "lower", [],
     lambda v: v.self_s(JOB), "wall_s on every workload, and setup_s"),
]


def layer_metrics(summary: dict) -> dict[str, float]:
    """Every PER_LAYER metric whose wrapped names all still exist."""
    view = _View(summary)
    missing = set(summary["missing_keys"])
    return {
        name: float(formula(view))
        for name, _, _, needs, formula, _ in PER_LAYER
        if not missing.intersection(needs)
    }
