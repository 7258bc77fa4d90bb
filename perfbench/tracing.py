"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions at sketchlab's module boundaries from the
outside: the program's source is not touched. Each call of a wrapped function
records one span (name, start, end, parent, run id, work count). Spans are
kept in memory and written out when the run ends.

A function that other modules imported by name (``from .dgauss import
sample_subspace_query``) is reached through several module namespaces, so
``install`` rebinds every sketchlab module attribute that is the original
function object, and ``uninstall`` puts each one back.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _result_size(args, result):
    return int(getattr(result, "size", 1))


def _rows_of_first_arg(args, result):
    return len(args[1])  # args[0] is the oracle (self)


# (span name, module, attribute path, work counter or None). The work counter
# turns a call's arguments and result into the amount of work it did.
LAYERS = (
    ("dgauss.subspace", "sketchlab.dgauss", "sample_subspace_query", _result_size),
    ("dgauss.centered", "sketchlab.dgauss", "sample_dgauss_1d", _result_size),
    ("sketch.oracle", "sketchlab.sketch", "GapNormOracle.query_batch", _rows_of_first_arg),
    ("sketch.build", "sketchlab.sketch", "build_sketch", None),
    ("numerics.svd", "sketchlab.numerics", "top_right_singular_vector", None),
    ("lattice.kernel", "sketchlab.lattice", "integer_kernel_basis", None),
    ("lattice.lll", "sketchlab.lattice", "reduce_basis", None),
    ("lattice.preprocess", "sketchlab.lattice", "preprocess_sketch", None),
    ("acceptance.auto_alpha", "sketchlab.acceptance", "auto_alpha", None),
    ("attack.round", "sketchlab.attack", "round_step", None),
    ("attack.verify", "sketchlab.attack", "verify_certificate", None),
    ("harddist.gen", "sketchlab.harddist", "gen_hard_instance", None),
    ("harddist.verify", "sketchlab.harddist", "verify_gap_event", None),
    ("harddist.calibrate", "sketchlab.harddist", "calibrate_family", None),
    ("harddist.tvd", "sketchlab.harddist", "sketched_indistinguishability", None),
    ("stats.tvd", "sketchlab.stats", "empirical_tvd", None),
    ("cli.attack_run", "sketchlab.cli", "cmd_attack_run", None),
    ("cli.single_run", "sketchlab.cli", "_single_attack_run", None),
)

LAYER_NAMES = tuple(name for name, *_ in LAYERS)

# Layers whose return values the traced run checks afterwards (lattice bases).
KEPT_RETURNS = ("lattice.kernel", "lattice.preprocess")

ROUND_SPAN = "bench.round"


class Tracer:
    """In-memory span recorder. Times are ``time.perf_counter`` seconds."""

    def __init__(self):
        self.spans = []
        self.kept = []        # (layer name, args, result) for KEPT_RETURNS
        self._stack = []
        self._patches = []
        self.run_id = "setup"
        self.missing = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "work": 0,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def round_span(self, run_id):
        """One root span per traced benchmark round."""
        self.run_id = run_id
        span = self._open(ROUND_SPAN)
        try:
            yield span
        finally:
            self._close(span)
            self.run_id = "between-rounds"

    def _wrapper(self, name, fn, counter):
        tracer = self
        keep = name in KEPT_RETURNS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                span["work"] = counter(args, result)
            if keep:
                tracer.kept.append((name, args, result))
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every layer function; a layer the program no longer has is
        skipped and listed in ``self.missing`` (its metrics read 0)."""
        modules = [m for key, m in sys.modules.items()
                   if key == "sketchlab" or key.startswith("sketchlab.")]
        self.missing = []
        for name, module_name, attr_path, counter in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = attr_path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            traced = self._wrapper(name, original, counter)
            if owner_name:  # a method: patch the class
                self._patches.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output --------------------------------------------------------------

    def write(self, path, t0):
        """Write all spans as JSON lines, times relative to ``t0``."""
        with open(path, "w") as fh:
            for s in self.spans:
                row = dict(s, start=s["start"] - t0, end=s["end"] - t0)
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")


def layer_summary(spans, run_ids):
    """Per-round means of busy time, self time, call count and work count for
    every layer, over the rounds named in ``run_ids``.

    busy: the summed duration of a layer's outermost spans (a span inside a
    span of the same name is not counted twice). self: duration minus the
    part covered by direct child spans. Returns (per-layer dict, round wall
    mean, unattributed mean), where unattributed is the round span's own
    self time, i.e. benchmark code between traced calls.
    """
    run_ids = set(run_ids)
    rounds = len(run_ids)
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def nested_in_same_name(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return True
            p = by_id[p]["parent"]
        return False

    acc = {name: {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "work": 0}
           for name in LAYER_NAMES}
    wall = unattributed = 0.0
    for s in spans:
        if s["run"] not in run_ids:
            continue
        dur = s["end"] - s["start"]
        self_s = dur - child_time[s["id"]]
        if s["name"] == ROUND_SPAN:
            wall += dur
            unattributed += self_s
            continue
        a = acc[s["name"]]
        a["self_s"] += self_s
        a["calls"] += 1
        if not nested_in_same_name(s):
            a["busy_s"] += dur
            a["work"] += s["work"]
    for a in acc.values():
        for key in a:
            a[key] /= rounds
    return acc, wall / rounds, unattributed / rounds
