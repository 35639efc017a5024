"""Spans around cosetlab's public entry points, installed at run time.

`install` wraps coarse entry points of each cosetlab module (never
per-word or per-partition helpers) and patches every cosetlab module
namespace that imported a wrapped name, so calls made through any of them
record a span: layer, parent span, start and end.  Counts of work are
computed from the call arguments and results.  Nothing under src/ changes.

`attribute` turns the spans into per-layer self time.  A span's self time
is its duration minus the part of its interval that its children cover.
Children of one span run one after another, except the tasks of a parallel
map, which overlap on worker threads; when children overlap, each child's
subtree is scaled by (covered length / summed child durations), so the
layers split wall time, not thread time.  The whole run is the root, and
its own self time is "unattributed", so the layer times always add up to
the run's wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

UNATTRIBUTED = "unattributed"


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        # span i is [layer, parent index or None, start, end]
        self.spans: list[list] = []
        self.threads: dict[int, int] = {}  # parallel-map span -> thread count
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def current(self):
        """The innermost open span on this thread, or None."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def call(self, layer: str, fn, args, kwargs, parent=None):
        """Run fn(*args, **kwargs) inside a span; parent defaults to the
        innermost open span on this thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = len(self.spans)
            self.spans.append([layer, parent, 0.0, 0.0])
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid][2] = start
            self.spans[sid][3] = end

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "threads": {str(k): v for k, v in self.threads.items()},
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# Self-time arithmetic

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is not None and start <= cur_end:
            cur_end = max(cur_end, end)
            continue
        if cur_end is not None:
            total += cur_end - cur_start
        cur_start, cur_end = start, end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def attribute(spans, start: float, end: float) -> dict[str, float]:
    """Self time per layer, plus UNATTRIBUTED for the run itself.  The
    values sum to end - start."""
    children = defaultdict(list)
    for sid, (_, parent, _, _) in enumerate(spans):
        children[parent].append(sid)
    out = defaultdict(float)
    # (layer, interval start, interval end, child spans, scale); the run
    # itself is the root
    todo = [(UNATTRIBUTED, start, end, children[None], 1.0)]
    while todo:
        layer, s0, s1, kids, scale = todo.pop()
        intervals = [(spans[k][2], spans[k][3]) for k in kids]
        covered = _covered(intervals)
        summed = sum(b - a for a, b in intervals)
        out[layer] += scale * ((s1 - s0) - covered)
        child_scale = scale * covered / summed if summed > 0 else scale
        for k in kids:
            layer_k, _, k0, k1 = spans[k]
            todo.append((layer_k, k0, k1, children[k], child_scale))
    return dict(out)


def busy_fraction(spans, threads: dict) -> float:
    """Task time over (threads x map time), summed over every parallel map;
    0 when no map ran."""
    maps = {int(sid): count for sid, count in threads.items()}
    task_time = sum(s[3] - s[2] for s in spans if s[1] in maps)
    capacity = sum(count * (spans[sid][3] - spans[sid][2])
                   for sid, count in maps.items())
    return task_time / capacity if capacity > 0 else 0.0


# ---------------------------------------------------------------------------
# Installing the wrappers

def _wrap(rec: Recorder, layer: str, fn, count=None):
    """fn recording a span per call; count(rec, result, bound_arguments)
    runs after the span closes."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(layer, fn, args, kwargs)
        if count is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            count(rec, result, bound.arguments)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap cosetlab's coarse entry points so that calls record into rec."""
    import cosetlab.cli  # noqa: F401  (imports every module the CLI uses)
    from cosetlab import bounds, groups, irreps, oracle, parallel, report, rng
    from cosetlab import sampling, tableaux

    modules = [m for n, m in sys.modules.items() if m is not None
               and (n == "cosetlab" or n.startswith("cosetlab."))]

    def patch_function(owner, name, replacement):
        """Point every cosetlab name bound to owner.name at replacement."""
        original = getattr(owner, name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def patch(owner, name, layer, count=None):
        original = getattr(owner, name)
        wrapped = _wrap(rec, layer, original, count)
        if isinstance(owner, type):
            setattr(owner, name, wrapped)
        else:
            patch_function(owner, name, wrapped)

    # rng: Haar bases and unit vectors are methods, so the class is patched
    def haar_counts(r, _, a):
        r.add("rng.haar_entries", a["d"] ** 2)

    patch(rng.CounterRng, "haar_basis", "rng.haar", haar_counts)
    patch(rng.CounterRng, "unit_vector", "rng.vector")

    # groups: only the first, uncached class build of each group is a span
    build_classes = groups.FiniteGroup.conjugacy_classes

    @functools.wraps(build_classes)
    def conjugacy_classes(self):
        if getattr(self, "_classes", None) is not None:
            return build_classes(self)
        result = rec.call("groups.classes", build_classes, (self,), {})
        rec.add("groups.conjugations", len(result) * self.order)
        return result

    groups.FiniteGroup.conjugacy_classes = conjugacy_classes

    patch(tableaux, "character_sn", "tableaux.character")

    def stack_counts(r, result, _):
        r.add("irreps.stack_bytes", sum(ir.stack.nbytes for ir in result))

    patch(irreps, "group_irreps", "irreps.build", stack_counts)
    patch(irreps, "character_table", "irreps.table")

    weak_rank = sampling.weak_rank

    def enumeration_counts(r, _, a):
        group, k, trials = a["group"], a["k"], a["trials"]
        labels = irreps.irrep_labels(group)
        hidden = sampling.HiddenSubgroup(group, a["M"].representative)
        useful = sum(1 for lab in labels if weak_rank(group, lab, hidden) > 0)
        r.add("bounds.tuple_trials", len(labels) ** k * trials)
        r.add("bounds.useful_tuple_trials", useful ** k * trials)

    for name in ("weak_rank", "weak_dist", "weak_dist_tuples"):
        patch(sampling, name, "sampling.weak")
    patch(bounds, "exact_enumeration", "bounds.enumeration", enumeration_counts)
    patch(bounds, "sampled_enumeration", "bounds.sampled")
    patch(bounds, "exact_weak_tv", "bounds.weak_tv")

    def doubled_counts(r, _, a):
        regs = a["registers"]
        # computed, not measured: the two dense (|G|, D, D) float64 subset
        # stacks the doubled kernel builds per call
        r.add("sampling.doubled_bytes", 2 * regs.group.order * regs.total_dim ** 2 * 8)

    patch(sampling, "doubled_isotypic_masses", "sampling.doubled", doubled_counts)
    patch(sampling, "isotypic_masses", "sampling.subset")
    patch(sampling, "expected_isotypic_dimension", "sampling.decomp")
    patch(sampling, "multiregister_dist", "sampling.multiregister")

    for name in ("brute_subset_overlap", "brute_doubled_overlap",
                 "brute_multiregister_moments", "brute_induced_rep"):
        patch(oracle, name, "oracle.brute")

    def emit_counts(r, _, a):
        r.add("report.bytes", len(a["text"].encode()))

    patch(report, "json_text", "report.emit")
    patch(report, "csv_text", "report.emit")
    patch(report, "emit", "report.emit", emit_counts)

    # parallel: the map is its own span, and each task is charged to the
    # layer that called the map, on whichever thread runs it
    ordered_map = parallel.ordered_map

    def mapped(fn, items, threads):
        map_id = rec.current()
        rec.threads[map_id] = max(1, threads)
        caller = rec.spans[map_id][1]
        layer = rec.spans[caller][0] if caller is not None else UNATTRIBUTED
        return ordered_map(
            lambda x: rec.call(layer, fn, (x,), {}, parent=map_id), items, threads
        )

    @functools.wraps(ordered_map)
    def traced_map(fn, items, threads: int = 1):
        return rec.call("parallel.map", mapped, (fn, items, threads), {})

    patch_function(parallel, "ordered_map", traced_map)
