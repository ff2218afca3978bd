#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sqlpp_safety_1x --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartiles as a share of the
median, beside the metric's bound from ``BENCHMARK.json``; a spread
under a third of its bound is marked steady. The wall-clock metrics the
report prints outside its JSON line get the same summary, without a
bound. Run it from the root of a checkout. Results also go to ``perfbench/out/spread-<workload>.json``.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402

#: Wall-clock metrics the report prints but does not put in its JSON line.
PRINTED = ("throughput_rec_s", "refresh_period_p50_s")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
        machine = next((json.loads(l.split(":", 1)[1]) for l in lines
                        if l.startswith("# machine:")), None)
        # CPU time the host took from this machine during the measured run
        steal = next((float(m.group(1)) for l in lines
                      if (m := re.search(r"host steal ([\d.]+) %", l))), None)
        if result:  # printed wall-clock metrics, spread shown but not gated
            for l in lines:
                m = re.match(rf"({'|'.join(PRINTED)})\s+([\d.eE+-]+) ", l)
                if m:
                    result["metrics"][m.group(1)] = {"value": float(m.group(2))}
        runs.append({"seed": seed, "wall_s": wall, "code": proc.returncode,
                     "machine": machine, "steal_pct": steal, "result": result})
        values = ({k: round(v["value"], 4) for k, v in result["metrics"].items()}
                  if result else proc.stderr[-2000:])
        print(f"seed {seed}: exit {proc.returncode}, {wall:.1f} s, "
              f"steal {steal} %, {values}", flush=True)
    ok = [r["result"] for r in runs if r["result"] and r["result"]["correct"]]
    print(f"{len(ok)}/{len(runs)} runs correct; wall median "
          f"{statistics.median(r['wall_s'] for r in runs):.1f} s, "
          f"max {max(r['wall_s'] for r in runs):.1f} s")
    summary = {}
    for name in (ok[0]["metrics"] if ok else {}):
        values = [r["metrics"][name]["value"] for r in ok]
        if len(values) < 2 or any(v is None for v in values):
            continue
        med = statistics.median(values)
        spread = quartile_spread(values)
        bound = bounds.get(name)
        summary[name] = {"median": med, "spread": spread, "bound": bound}
        mark = ""
        if bound is not None:
            mark = "steady" if spread < bound / 3 else "NOT steady"
        print(f"  {name:28s} median {med:12.6g}  spread {spread:7.4f}  "
              f"bound {bound}  {mark}")
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"spread-{args.workload}.json"), "w") as f:
        json.dump({"runs": runs, "summary": summary}, f, indent=1)
    return 0 if len(ok) == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
