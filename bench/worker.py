"""One fresh interpreter of the modk3 benchmark.

    python3 bench/worker.py setup|run|trace SPEC_JSON

SPEC_JSON is what `workloads.make` returns.  The worker imports modk3 from
the checkout's `src/`, builds `preset(...)` and both integral models of the
spec's families (the set-up), seeds sympy's global generator, and then, in
`run` and `trace` mode, calls `modk3.cli.run(argv)` for each command with
stdout and stderr captured.  `trace` installs the span wrappers of
`tracer.py` before the set-up.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _rusage() -> tuple:
    """(user + system CPU seconds, peak RSS in MB) of this process and its
    waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024


def _run_command(cli, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as e:
            code = e.code
        except Exception:  # recorded as a failed check, never retried
            exc = traceback.format_exc()
    return {"code": code, "exception": exc, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main(mode: str, spec: dict) -> dict:
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    cli = importlib.import_module("modk3.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"modk3 imported from {cli.__file__}, not {SRC}")
    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(HERE))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("modk3")
    families = importlib.import_module("modk3.families")
    kodaira = importlib.import_module("modk3.kodaira")
    for name in spec["families"]:
        fam = families.preset(name)
        kodaira.integral_model(fam, "zero")
        kodaira.integral_model(fam, "inf")
    setup_s = perf_counter() - t0
    out = {"setup_s": setup_s}
    if mode == "setup":
        return out

    import sympy.core.random
    sympy.core.random.seed(spec["sympy_seed"])
    if tracer:
        info0 = {n: c.cache_info() for n, c in tracer.caches.items()}
        counts0 = tracer.counts()
    cpu0, _ = _rusage()
    start = perf_counter()
    results = [_run_command(cli, argv) for argv in spec["commands"]]
    end = perf_counter()
    cpu1, rss = _rusage()
    out.update(results=results, wall_s=end - start, cpu_s=cpu1 - cpu0,
               peak_rss_mb=rss)
    if tracer:
        out["trace"] = _trace_summary(tracer, start, end, info0, counts0)
        spans_dir = HERE.parent / "bench_out"
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"spans-{spec['workload']}-{spec['seed']}.jsonl.gz"
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end", "thread"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return out


def _trace_summary(tracer, start, end, info0, counts0) -> dict:
    from tracer import layer_stats, wrapper_cost
    stats = layer_stats(tracer.spans, start, end)
    counted = 0
    for name, n in tracer.counts().items():
        stats["functions"].setdefault(name, {})["calls"] = n - counts0.get(name, 0)
        counted += n - counts0.get(name, 0)
    span_cost, count_cost = wrapper_cost()
    stats["overhead_s"] = span_cost * stats["spans"] + count_cost * counted
    caches = {}
    for name, cached in tracer.caches.items():
        now, before = cached.cache_info(), info0[name]
        caches[name] = {"hits": now.hits, "misses": now.misses,
                        "workload_misses": now.misses - before.misses}
    integral = [s for s in tracer.spans if s[2] == "kodaira.integral_model"]
    stats["integral_model_total_s"] = sum(b - a for _, _, _, a, b, _ in integral)
    stats["caches"] = caches
    stats["distinct_keys"] = {n: len(k) for n, k in tracer.keys.items()}
    return stats


if __name__ == "__main__":
    result = main(sys.argv[1], json.loads(sys.argv[2]))
    sys.stdout.write(json.dumps(result) + "\n")
