"""Run the benchmark over several seeds and summarise it, as a baseline file.

    python3 bench/collect.py --seeds 10 --out bench/baseline.json

Runs every workload once per seed, seeds in the outer loop so a slow
spell of the machine spreads over all workloads, then one traced run
per workload.  For each end-to-end metric it records the values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} failed operations\n{proc.stderr}",
              file=sys.stderr)
    return json.loads(lines[-2])["detail"], result


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    runs = {w: [] for w in WORKLOADS}
    environment = None
    for seed in range(1, args.seeds + 1):
        for w in WORKLOADS:
            detail, result = run_once(w, seed, args.seconds, 0)
            environment = detail["environment"]
            runs[w].append((detail, result))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)

    summary = {"environment": environment, "run_seconds": args.seconds, "seeds": args.seeds,
               "workloads": {}}
    for w in WORKLOADS:
        results = [r for _, r in runs[w]]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {m: summarise([r["metrics"][m]["value"] for r in results])
                           for m in results[0]["metrics"]},
            "probe_s": summarise([statistics.median(p for ps in d["probe_s"] for p in ps)
                                  for d, _ in runs[w]]),
        }
        for key in ("operations_s", "operations_rel"):
            entry[key] = {op: summarise([d[key][op] for d, _ in runs[w]])
                          for op in runs[w][0][0][key]}
        detail, result = run_once(w, 1, args.seconds, 1)
        entry["trace"] = {
            "failed": result["failed"],
            "layer_metrics": detail["layer_metrics"],
            "predictions": detail["predictions"],
        }
        summary["workloads"][w] = entry
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
