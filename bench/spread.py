#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several workload seeds.

Run from the repository root:

    python3 bench/spread.py --workload spatial --seeds 201-210 --seconds 40
    python3 bench/spread.py --workload all --seeds 201-210 --seconds 40 --out bench/baseline.json

Runs `bench/run.py --trace 0` once per seed, one run at a time, and prints
for every end-to-end metric the median of the runs' values and their
spread: the distance between the first and third quartile
(`statistics.quantiles(n=4)`) as a share of the median.  The unscaled
wall-clock figures of each run are summarised the same way.  With --out,
every value is also written to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {out.returncode}")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{out.stdout}")
    detail = json.loads(
        (BENCH / "results" / f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8")
    )
    return {"result": result, "raw": detail["raw"], "env": detail["env"]}


def spread(workload: str, seeds: list[int], seconds: float) -> dict:
    runs = []
    for seed in seeds:
        runs.append(one_run(workload, seed, seconds))
        values = runs[-1]["result"]["metrics"]
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{name} {m['value']:.6g}" for name, m in values.items()), flush=True)
    metrics = {}
    for name, m in runs[0]["result"]["metrics"].items():
        metrics[name] = dict(_summary([r["result"]["metrics"][name]["value"] for r in runs]),
                             unit=m["unit"])
    raw = {
        name: dict(_summary([r["raw"][name]["median"] for r in runs]), unit=st["unit"])
        for name, st in runs[0]["raw"].items()
    }
    env = {k: v for k, v in runs[0]["env"].items()
           if k not in ("gauge_us", "study_seed", "workload_seed")}
    for kind, table in (("", metrics), ("raw ", raw)):
        for name, s in table.items():
            print(f"{workload:12s} {kind}{name:28s} median {s['median']:12.6g} {s['unit']:6s}"
                  f" spread {s['spread']:.3f}")
    return {"env": env, "end_to_end": metrics, "raw": raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seeds", required=True, help="e.g. 201-210 or 1,2,3 (at least 2)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    table = {w: spread(w, seeds, args.seconds) for w in workloads}
    if args.out:
        doc = {"seeds": seeds, "run_seconds": args.seconds, "workloads": table}
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
