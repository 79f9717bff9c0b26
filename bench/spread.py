"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload spt_find --seeds 101-110 [--seconds 30]
                            [--record first_set]

runs ``run.py`` untraced once per seed, one run after the other, and
prints for each end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread,
(q3 - q1) / median.  ``--record NAME`` stores the set under that name in
``bench/baseline.json`` (with the per-run counts).

    python3 bench/spread.py --workload spt_find --seeds 101 --record per_layer

instead runs the workload untraced and traced on that one seed and
stores the per-layer metrics, the tracing overhead, the verify:invert
split of the traced run and the input properties of the untraced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
BASELINE = BENCH / "baseline.json"
OUT = BENCH.parent / ".bench_out"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "unit": first["unit"]}
    return out


def record(workload: str, key: str, value) -> None:
    base = json.loads(BASELINE.read_text())
    base["workloads"].setdefault(workload, {})[key] = value
    BASELINE.write_text(json.dumps(base, indent=2) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--record")
    args = ap.parse_args(argv)

    if args.record == "per_layer":
        seed = args.seeds[0]
        plain = run_once(args.workload, seed, args.seconds, 0)
        traced = run_once(args.workload, seed, args.seconds, 1)
        ips = plain["metrics"]["items_per_s"]["value"]
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        props = json.loads((OUT / f"{args.workload}-seed{seed}-trace0.json").read_text())
        split = json.loads((OUT / f"{args.workload}-seed{seed}-trace1.json").read_text())
        overhead = 1.0 - layers["traced.items_per_s"] / ips
        print(f"{args.workload} seed {seed}: tracing overhead {100 * overhead:.1f}%")
        record(args.workload, "per_layer_seed", seed)
        record(args.workload, "per_layer", layers)
        record(args.workload, "tracing_overhead", overhead)
        record(args.workload, "properties", props["properties"])
        record(args.workload, "verify_invert_split", split["verify_invert_split"])
        return 0

    results = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, args.seconds, 0)
        results.append(res)
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']} {values}", flush=True)
    if len(results) < 2:
        return 0
    stats = summarize(results)
    for name, st in stats.items():
        print(f"{name}: median {st['median']:.6g} {st['unit']}, spread {st['spread']:.3f}")
    if args.record:
        record(args.workload, args.record, {
            "seeds": args.seeds, "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": [r["correct"] for r in results], "end_to_end": stats})
    return 0


if __name__ == "__main__":
    sys.exit(main())
