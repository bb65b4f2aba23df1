"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload plane --seeds 1-10 --seconds 10 \
        [--trace 0] [--out runs.json]

For every metric it prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as
a share of the median; for the end-to-end metrics it also prints the bound
from ``BENCHMARK.json`` and whether the spread stays within a third of it.
``--out`` keeps every run's parsed result line for later comparison.
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


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} failed with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, **result})
        flags = "" if result["correct"] else "  INCORRECT"
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}{flags}",
              flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1))

    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarise(values)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"{bound:.2f} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}  {verdict}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
