"""Run every workload on several seeds and write bench/BENCH_<label>.json.

    python3 bench/baseline.py --label seed

For each workload of BENCHMARK.json: `run.py --trace 0` once per seed
(seeds 1..SEEDS), the median, quartiles and relative spread
(q3 - q1) / median of each end-to-end metric over the seeds, and each
metric's bound from BENCHMARK.json; then `run.py --trace 1` twice on
seed 1, with the per-layer counts that differ between the two listed
(they should repeat exactly, except those the run marks as
scheduling-dependent).  Takes about 25 minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    out = {"label": args.label, "run_seconds": bench["run_seconds"],
           "workloads": {}}
    for w in [x["name"] for x in bench["workloads"]]:
        rows, records = [], []
        for seed in range(1, SEEDS + 1):
            record, result = run(w, seed, bench["run_seconds"], 0)
            rows.append(result)
            records.append(record)
            print(w, seed, {k: round(v["value"], 4)
                            for k, v in result["metrics"].items()},
                  file=sys.stderr, flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                                  "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                                  "bound": m["bound"], "values": values}
        traces = [run(w, 1, bench["run_seconds"], 1) for _ in range(2)]
        (rec, first), (_, second) = traces
        counts = [m["name"] for m in bench["per_layer"]
                  if m["unit"] in ("count", "calls/key")]
        out["workloads"][w] = {
            "end_to_end": metrics,
            "attempted": sum(r["attempted"] for r in rows),
            "failed": sum(r["failed"] for r in rows),
            "calibration_s": [c for r in records for c in r["calibration_s"]],
            "machine": records[0]["machine"],
            "per_layer": {k: v["value"] for k, v in first["metrics"].items()},
            "counts_differing_between_traces": {
                k: [first["metrics"][k]["value"], second["metrics"][k]["value"]]
                for k in counts
                if first["metrics"][k]["value"] != second["metrics"][k]["value"]},
            "scheduling_dependent": rec["scheduling_dependent"],
            "trace_correct": [t[1]["correct"] for t in traces],
        }
    with open(HERE / f"BENCH_{args.label}.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
