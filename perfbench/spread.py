"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs the benchmark command from BENCHMARK.json once per seed and workload
(workloads interleaved, so a slow stretch of the machine is shared out), then
reports for each metric the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the interquartile range as a share
of the median next to the metric's bound. A spread under a third of its bound
is steady. ``setup_s`` has no spread gate, only its bound on median drift.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, results: dict[str, list[dict]]) -> dict:
    out = {}
    for workload, lines in results.items():
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [line["metrics"][name]["value"] for line in lines]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"],
                "steady": name == "setup_s" or spread < metric["bound"] / 3,
                "values": values,
            }
        out[workload] = {
            "runs": len(lines),
            "all_correct": all(line["correct"] for line in lines),
            "metrics": rows,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        help="repeatable; defaults to every workload")
    parser.add_argument("--out", help="write the summary to this JSON file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in names}
    for seed in parse_seeds(args.seeds):
        for name in names:
            results[name].append(run_once(spec, name, seed))
            print(f"{name} seed {seed}: done", file=sys.stderr, flush=True)

    summary = summarize(spec, results)
    for workload, block in summary.items():
        print(f"{workload}: {block['runs']} runs, all correct: {block['all_correct']}")
        for name, row in block["metrics"].items():
            print(f"  {name:16s} median {row['median']:12.4f} {row['unit']:4s} "
                  f"spread {row['spread']:.3f} (bound {row['bound']}) "
                  f"{'steady' if row['steady'] else 'NOT STEADY'}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"run_seconds": spec["run_seconds"], "workloads": summary}, indent=1) + "\n")
    return 0 if all(row["steady"] for block in summary.values()
                    for row in block["metrics"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
