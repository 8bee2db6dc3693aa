"""The modk3 benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 40 --trace 0

Run from the repository root.  Workloads and the correctness gate are in
`workloads.py`; every timed run is a fresh interpreter (`worker.py`) that
drives `modk3.cli.run` with the generated command lines, so the program
only ever sees those arguments.  The parent never imports modk3.

--trace 0 runs set-up SETUP_RUNS times, then the workload in fresh
processes until --seconds is used up (at least once), and
prints the medians of the end-to-end metrics of BENCHMARK.json.
--trace 1 runs the workload once untraced and once traced (`tracer.py`),
requires the two outputs to be equal, and prints the per-layer metrics.  Both print a
`record` line first (seeds, samples, quartiles, fail_ratio, machine,
calibration) and the result object last.  Any check that fails counts in
`failed`; none is retried.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_RUNS = 3
DEADLINE_S = 170  # a run must end within 180 s
#: counts that depend on thread scheduling on count_large_p: both pool
#: threads can miss the same k3_point_count cache entry and compute it twice
SCHEDULING_DEPENDENT = ["counting.k3_point_count.per_key",
                        "counting.k3_point_count.computed",
                        "kodaira.scan.calls", "kodaira.scan.per_key",
                        "arith.is_prime.calls"]


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    versions = {}
    for pkg in ("sympy", "numpy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), **versions}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a noisy neighbour shows here."""
    start = perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return perf_counter() - start


def summary(values: list) -> dict:
    """Median, quartiles and sample count."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


class Runner:
    def __init__(self, spec: dict, deadline: float):
        self.spec = spec
        self.deadline = deadline
        self.reference = wl.load_reference()
        self.attempted = 0
        self.failures = []
        # no bytecode cache: every set-up compiles modk3 the same way
        self.env = dict(os.environ, PYTHONHASHSEED=str(spec["hash_seed"]),
                        PYTHONDONTWRITEBYTECODE="1")

    def worker(self, mode: str) -> dict | None:
        """Run worker.py to completion; None (and a failed check) if it
        crashed or ran out of time."""
        argv = [sys.executable, str(HERE / "worker.py"), mode,
                json.dumps(self.spec)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True,
                                  timeout=max(self.deadline - perf_counter(), 1))
        except subprocess.TimeoutExpired:
            self._fail(f"{mode} worker exceeded the {DEADLINE_S} s deadline")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self._fail(f"{mode} worker exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-500:]}")
            return None
        return json.loads(lines[-1])

    def _fail(self, message: str):
        self.attempted += 1
        self.failures.append(message)

    def check(self, out: dict | None):
        """Count the checks of one workload run against the reference."""
        if out is None:
            return
        for argv, result in zip(self.spec["commands"], out["results"]):
            attempted, failures = wl.check(argv, result, self.reference)
            self.attempted += attempted
            self.failures += failures

    def outputs(self, out: dict) -> list:
        return [wl.parse_records(r["stdout"]) for r in out["results"]]


def run_timed(runner: Runner, seconds: float) -> tuple:
    """SETUP_RUNS set-up workers, then workload runs (at least one) while
    the next one is expected to end within `seconds` of the start.  Every
    worker's set-up is a set-up sample."""
    start = perf_counter()
    setups = [runner.worker("setup") for _ in range(SETUP_RUNS)]
    samples = {"setup_s": [s["setup_s"] for s in setups if s],
               "wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    calibration, durations = [], []
    while True:
        began = perf_counter()
        out = runner.worker("run")
        durations.append(perf_counter() - began)
        runner.check(out)
        calibration.append(calibrate())
        if out is None:
            break
        for key in samples:
            samples[key].append(out[key])
        elapsed = perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    return samples, calibration


def per_layer_value(name: str, traced: dict) -> float:
    trace = traced["trace"]
    fns, caches = trace["functions"], trace["caches"]
    if name in ("trace.overhead_s", "trace.unattributed_s"):
        return trace[name.split(".")[1]]
    if name == "cli.records":
        return sum(len(wl.parse_records(r["stdout"])) for r in traced["results"])
    if name == "kodaira.integral_model.total_s":
        return trace["integral_model_total_s"]
    if name == "kodaira.integral_model.hit_ratio":
        info = caches["kodaira.integral_model"]
        return info["hits"] / max(info["hits"] + info["misses"], 1)
    head, stat = name.rsplit(".", 1)
    if head in trace["layers"]:
        return trace["layers"][head]
    fn = fns.get(head, {})
    if stat == "computed":
        return caches[head]["workload_misses"]
    if stat == "per_key":
        keys = trace["distinct_keys"].get(head, 0)
        work = caches[head]["workload_misses"] if head in caches else fn.get("calls", 0)
        return work / keys if keys else 0.0
    return fn.get(stat, 0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + DEADLINE_S

    benchmark = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "modk3" / "cli.py").is_file() or not benchmark.is_file():
        print(f"no modk3 sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    with open(benchmark) as fh:
        metrics_spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    spec = wl.make(args.workload, args.seed)
    runner = Runner(spec, deadline)
    record = {"workload": args.workload, "seed": args.seed,
              "hash_seed": spec["hash_seed"], "sympy_seed": spec["sympy_seed"],
              "commands": [" ".join(c) for c in spec["commands"]],
              "machine": machine()}
    if args.trace:
        untraced = runner.worker("run")
        runner.check(untraced)
        record["calibration_s"] = [calibrate()]
        traced = runner.worker("trace")
        runner.check(traced)
        if untraced is None or traced is None:
            return _abort(record, runner)
        runner.attempted += 1
        if runner.outputs(traced) != runner.outputs(untraced):
            runner.failures.append("traced output differs from untraced output")
        metrics = {m["name"]: {"value": per_layer_value(m["name"], traced),
                               "unit": m["unit"]} for m in metrics_spec}
        record["scheduling_dependent"] = (
            SCHEDULING_DEPENDENT if args.workload == "count_large_p" else [])
        # one run each side: machine noise, not the tracer's cost (that is
        # trace.overhead_s); kept so the two can be compared
        record["traced_minus_untraced_wall_s"] = traced["wall_s"] - untraced["wall_s"]
    else:
        samples, record["calibration_s"] = run_timed(runner, args.seconds)
        if not samples["wall_s"] or not samples["setup_s"]:
            return _abort(record, runner)
        record["samples"] = {k: summary(v) for k, v in samples.items()}
        metrics = {m["name"]: {"value": record["samples"][m["name"]]["median"],
                               "unit": m["unit"]} for m in metrics_spec}

    failed = len(runner.failures)
    record["fail_ratio"] = {"value": failed / runner.attempted, "unit": "ratio"}
    record["failures"] = runner.failures[:20]
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _abort(record: dict, runner: Runner) -> int:
    record["failures"] = runner.failures[:20]
    print(json.dumps({"record": record}), file=sys.stderr)
    print("no complete workload run; no result", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
