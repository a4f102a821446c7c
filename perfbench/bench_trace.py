"""In-memory spans around the calls into each module of censored_evi.

``Tracer.install`` replaces, for the duration of a traced run, every
binding through which one module of the package calls a public function
of another (``estimators.moment_km``, ``montecarlo.fit``, ``cli.estimate``
...), plus the ``sample`` method of each distribution class and the few
public functions a module calls on itself that the benchmark reports
(``estimators.combine_*``, ``montecarlo.run_replicate``,
``montecarlo.aggregate``).  Nothing in the package's files changes;
``uninstall`` puts every original back.

A span is ``(name, layer, start, end, parent, k)``: ``parent`` is the
index of the enclosing span or -1, ``k`` the value of a ``k`` argument
when the function has one.  A span's self time is its duration minus the
durations of its direct children, minus the tracer's own cost.

That cost is measured by ``calibrate`` on a wrapped no-op, in the same
process: ``inside`` is the wrapper's time within a span (the clock read
and the extra call), ``outside`` the time a traced call adds around its
span (argument handling, span bookkeeping), which would otherwise be
booked as self time of the parent.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import inspect
import statistics
from time import perf_counter

LAYERS = ("distributions", "censoring", "kaplan_meier", "moments",
          "estimators", "montecarlo", "config", "cli")

# Public functions called from inside their own module that a per-layer
# metric needs: (module, function, layer the span is booked to).
INTRA_MODULE = (
    ("estimators", "combine_moment", "estimators.combine"),
    ("estimators", "combine_type1", "estimators.combine"),
    ("estimators", "combine_type2", "estimators.combine"),
    ("montecarlo", "run_replicate", "montecarlo"),
    ("montecarlo", "aggregate", "montecarlo"),
)


def _k_position(fn):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("k") if "k" in params else None


class Tracer:
    def __init__(self):
        self.spans = []
        self.last = []
        self._open = []
        self._undo = []
        self.cost = calibrate(self)

    def _wrap(self, fn, name, layer):
        spans, stack = self.spans, self._open
        kpos = _k_position(fn)

        def traced(*args, **kwargs):
            if kpos is not None and len(args) > kpos:
                k = args[kpos]
            else:
                k = kwargs.get("k") if kwargs else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                # A tuple of scalars, unlike a list, leaves the garbage
                # collector's tracking, so long traces do not slow it down.
                spans[index] = (name, layer, start, perf_counter(), parent, k)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, layer):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, layer))

    def install(self, package="censored_evi"):
        modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        public = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj):
                    public[id(obj)] = (layer, attr)
                elif inspect.isclass(obj) and inspect.isfunction(vars(obj).get("sample")):
                    self._patch(obj, "sample", f"{layer}.{attr}.sample", layer)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                owner = public.get(id(obj)) if inspect.isfunction(obj) else None
                if owner is not None and owner[0] != layer:
                    self._patch(module, attr, f"{owner[0]}.{owner[1]}", owner[0])
        for layer, attr, booked in INTRA_MODULE:
            module = modules[layer]
            if inspect.isfunction(vars(module).get(attr)):
                self._patch(module, attr, f"{layer}.{attr}", booked)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def record(self, name, layer, fn, *args):
        """Run fn under a span opened by the benchmark itself and return
        the summary of the spans it produced; the spans themselves stay
        in ``last`` until the next call."""
        self.spans.clear()
        self._wrap(fn, name, layer)(*args)
        self.last = list(self.spans)
        self.spans.clear()
        return summarize(self.last, self.cost)


def _noop(k=None):
    return k


def calibrate(tracer, calls=20000, rounds=5):
    """Median seconds the tracer adds per traced call, inside and outside
    its span, from timing a loop, a loop of plain no-op calls and a loop
    of traced no-op calls."""
    traced = tracer._wrap(_noop, "calibration", "calibration")
    inside, outside = [], []
    for _ in range(rounds):
        start = perf_counter()
        for k in range(calls):
            pass
        loop = perf_counter() - start
        start = perf_counter()
        for k in range(calls):
            _noop(k)
        call = perf_counter() - start - loop
        tracer.spans.clear()
        start = perf_counter()
        for k in range(calls):
            traced(k)
        total = perf_counter() - start - loop
        spanned = sum(rec[3] - rec[2] for rec in tracer.spans)
        inside.append((spanned - call) / calls)
        outside.append((total - spanned) / calls)
    tracer.spans.clear()
    return {"inside_s": max(0.0, statistics.median(inside)),
            "outside_s": max(0.0, statistics.median(outside))}


def self_times(spans, cost=None):
    """Each span's duration minus its direct children's and the tracer's
    own calibrated cost, never below zero."""
    inside = cost["inside_s"] if cost else 0.0
    outside = cost["outside_s"] if cost else 0.0
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            covered[rec[4]] += rec[3] - rec[2] + outside
    return [max(0.0, rec[3] - rec[2] - covered[i] - inside) for i, rec in enumerate(spans)]


def summarize(spans, cost=None):
    """Per-layer totals of one traced operation (seconds and counts)."""
    own = self_times(spans, cost)
    out = {"self_s": {}, "entries": {}, "elements": {}, "durations": {}}
    for i, rec in enumerate(spans):
        name, layer, start, end, parent, k = rec
        out["self_s"][layer] = out["self_s"].get(layer, 0.0) + own[i]
        out["durations"].setdefault(name, []).append(end - start)
        if parent < 0 or spans[parent][1] != layer:
            out["entries"][layer] = out["entries"].get(layer, 0) + 1
            if isinstance(k, int):
                out["elements"].setdefault(name, 0)
                out["elements"][name] += k
    return out


def write_spans(spans, path):
    """Gzipped CSV of one operation's spans, times in microseconds from
    the first span's start."""
    t0 = min((rec[2] for rec in spans), default=0.0)
    with gzip.open(path, "wt", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "parent", "name", "layer", "start_us", "end_us", "k"])
        for i, (name, layer, start, end, parent, k) in enumerate(spans):
            writer.writerow([i, parent, name, layer, round((start - t0) * 1e6, 3),
                             round((end - t0) * 1e6, 3), "" if k is None else k])
