"""Spans around modk3's public functions, installed from outside the package.

`Tracer.install` wraps every public module-level function of every loaded
`modk3` module and rebinds *each* module attribute that refers to it, since
`from .kodaira import scan` copies the reference into `counting` and `cli`.
A span is (id, parent id, name, start, end, thread id), kept in memory.
Thread-pool workers started through a `ThreadPoolExecutor` that a modk3
module imported get the submitting span as their parent.

The hottest leaf functions (COUNT_ONLY) are counted, not timed: a span
costs a few microseconds and they are called hundreds of thousands of
times.  Their time stays in the self time of their callers.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

COUNT_ONLY = {"arith.is_prime", "arith.kronecker_character",
              "arith.is_fundamental_discriminant", "arith.legendre_symbol",
              "cmforms.splitting"}
#: functions whose distinct (family, p) arguments are collected for per_key
KEYED = {"kodaira.scan", "counting.k3_point_count"}
LAYERS = ("arith", "qseries", "congruence", "cmforms", "families", "kodaira",
          "counting", "lfunctions", "cli")


def _is_target(module, attr: str, obj) -> bool:
    if attr.startswith("_") or isinstance(obj, type):
        return False
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.spans = []
        self.keys = defaultdict(set)
        self.caches = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._thread_counts = []

    # ---- recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> int:
        """Id of the innermost open span of this thread (0 for none)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._tls, "parent", 0)

    def _counts(self) -> dict:
        counts = getattr(self._tls, "counts", None)
        if counts is None:
            counts = self._tls.counts = defaultdict(int)
            self._thread_counts.append(counts)
        return counts

    def counts(self) -> dict:
        total = defaultdict(int)
        for counts in list(self._thread_counts):
            for name, n in list(counts.items()):
                total[name] += n
        return total

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                self._counts()[name] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)
        spans, ids, keys = self.spans, self._ids, self.keys[name]
        keyed = name in KEYED

        def spanned(*args, **kwargs):
            parent = self.current()
            sid = next(ids)
            stack = self._stack()
            stack.append(sid)
            if keyed:
                keys.add((args[0].name, args[1]))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              threading.get_ident()))
        return functools.wraps(fn)(spanned)

    def install(self, package: str = "modk3"):
        """Wrap the package's public functions."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith(package + ".") and m is not None]
        wrappers = {}
        for m in modules:
            for attr, obj in vars(m).items():
                if _is_target(m, attr, obj):
                    name = f"{m.__name__.split('.')[-1]}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                    if hasattr(obj, "cache_info"):
                        self.caches[name] = obj
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if id(obj) in wrappers:
                    setattr(m, attr, wrappers[id(obj)])
            if getattr(m, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                m.ThreadPoolExecutor = self._pool_class()

    def _pool_class(self):
        tracer = self

        class TracedThreadPool(ThreadPoolExecutor):
            """Pool whose tasks run under the span that submitted them."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **kw):
                    tracer._tls.parent = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._tls.parent = 0
                return super().submit(task, *args, **kwargs)
        return TracedThreadPool


def wrapper_cost(calls: int = 20_000) -> tuple:
    """(seconds per span, seconds per count) that a wrapper adds to a call:
    the best of five batches through a wrapped no-op minus the bare no-op,
    measured on a throwaway tracer."""
    probe = Tracer()

    def noop(*args):
        return None

    def best(fn) -> float:
        times = []
        for _ in range(5):
            start = perf_counter()
            for _ in range(calls):
                fn(None, 1)
            times.append(perf_counter() - start)
            probe.spans.clear()
        return min(times) / calls

    bare = best(noop)
    return (best(probe._wrap("probe.noop", noop)) - bare,
            best(probe._wrap("arith.is_prime", noop)) - bare)


# ---- analysis -----------------------------------------------------------

def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _tail(sorted_values: list) -> float:
    """Highest percentile that still has at least ten samples above it;
    the maximum when there are ten samples or fewer."""
    return sorted_values[-11] if len(sorted_values) > 10 else sorted_values[-1]


def layer_stats(spans: list, start: float, end: float) -> dict:
    """Per-function calls, total, self time and latency quantiles of the
    spans that began in [start, end], per-layer self time, and the part of
    the window in which no function below the CLI ran on any thread."""
    spans = [s for s in spans if start <= s[3] <= end]
    children = defaultdict(list)
    for sid, parent, _, a, b, _ in spans:
        children[parent].append((a, b))
    by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "durations": []})
    layers = dict.fromkeys(LAYERS, 0.0)
    for sid, _, name, a, b, _ in spans:
        own = (b - a) - _covered(children.get(sid, []), a, b)
        st = by_name[name]
        st["calls"] += 1
        st["total_s"] += b - a
        st["self_s"] += own
        st["durations"].append(b - a)
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    for st in by_name.values():
        d = sorted(st.pop("durations"))
        st["ms_p50"] = statistics.median(d) * 1e3
        st["ms_tail"] = _tail(d) * 1e3
        st["samples"] = len(d)
    below_cli = [(a, b) for _, _, name, a, b, _ in spans
                 if not name.startswith("cli.")]
    return {"functions": dict(by_name), "layers": layers, "spans": len(spans),
            "unattributed_s": (end - start) - _covered(below_cli, start, end)}
