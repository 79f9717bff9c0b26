"""Benchmark of confocal-billiards: three closed-loop workloads.

One run:

    python3 bench/run.py --workload spt_find --seed 1 --seconds 30 --trace 0

measures one workload for ``--seconds`` seconds in this process and
prints, as the last line of stdout, ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones
(nothing is wrapped); with ``--trace 1`` the library's public functions
are wrapped (see ``tracer.py``) and the metrics are the per-layer ones.
A run record with the revision, versions, thread caps, seed, input
properties, per-item latencies and gate failures goes to ``.bench_out/``,
and the spans of a traced run next to it.

All workloads, untraced then traced, each in its own process:

    python3 bench/run.py --all --seed 1 --seconds 30

prints every end-to-end metric with its unit, the tracing overhead, and
exits 1 when any item failed a gate.

Times are normalized to a reference machine speed: each item, and the
set-up phase as a whole, is timed under ``probe.SpeedProbe``, and a time
measured while the probe's kernel ran ``f`` times slower than on the
reference machine is divided by ``f``.  Set-up runs at least
``SETUP_MIN_REPS`` times and for at least ``SETUP_MIN_S`` seconds, and
``setup_s`` is the median set-up.  Raw times and the factors are kept in
the run record.

A workload with a ``watch()`` (freq_invert) then runs its known-defect
targets once, untimed and outside ``attempted``, and prints a
``known defect:`` line before the result; the outcomes go to the record.

``correct`` is false when an output the program returned fails its gate
or the program raised an undocumented error; ``failed`` also counts items
where the program reported a documented failure (no solution, exit code
2 or 3) and so produced no output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One closed-loop caller: numpy (imported later, by the workloads) and the
# processes started here get one BLAS thread.
BLAS_THREAD_CAP = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREAD_CAP)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("spt_find", "freq_invert", "orbit_oracle")
SETUP_MIN_REPS = 9
SETUP_MIN_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: (defining module, function, per-layer stats to report).
LAYERS = (
    ("geometry", "cartesian_to_elliptic", ("calls", "total_s", "us_per_call")),
    ("spectral", "sample_elliptic_path", ("calls", "total_s")),
    ("engine", "verify_trajectory", ("calls", "total_s", "self_s", "calls_per_item")),
    ("geometry", "caustic_params_of_line", ("calls", "total_s")),
    ("symmetry", "symmetry_set_contains", ("calls", "total_s")),
    ("symmetry", "seed_point_at_vertex", ("calls", "total_s")),
    ("dynamics", "iterate_orbit", ("calls", "total_s")),
    ("engine", "find_spt", ("calls", "total_s", "self_s", "success_ratio")),
    ("cli", "main", ("calls", "self_s")),
    ("document", "dumps", ("total_s",)),
    ("document", "write_atomic", ("total_s",)),
    ("spectral", "invert_frequency", ("calls", "total_s", "self_s")),
    ("spectral", "frequency_map", ("calls", "total_s", "calls_per_inversion")),
    ("spectral", "rotation_number", ("calls",)),
    ("quadrature", "period_integrals", ("calls", "total_s", "calls_per_frequency_eval")),
    ("spectral", "empirical_frequency_batch", ("total_s", "self_s", "orbit_bounces_per_s")),
    ("spectral", "empirical_frequency", ("total_s", "orbit_bounces_per_s")),
    ("spectral", "count_turning_events", ("calls", "total_s")),
    ("spectral", "default_tangent_start", ("total_s",)),
    ("geometry", "tangent_directions", ("calls", "total_s", "hit_ratio")),
)
STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "us_per_call": "us",
              "calls_per_item": "count", "success_ratio": "ratio", "hit_ratio": "ratio",
              "calls_per_inversion": "count", "calls_per_frequency_eval": "count",
              "orbit_bounces_per_s": "1/s"}
TRACED_IPS = "traced.items_per_s"


def per_layer_names() -> dict[str, str]:
    names = {f"{m}.{f}.{s}": STAT_UNITS[s] for m, f, stats in LAYERS for s in stats}
    names[TRACED_IPS] = "1/s"
    return names


def _bounces(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("bounces", 2000)


def trace_targets():
    from tracer import Target
    special = {
        "empirical_frequency_batch": dict(work=lambda a, k: len(a[0]) * _bounces(a, k)),
        "empirical_frequency": dict(work=_bounces),
        "tangent_directions": dict(outcome=lambda result: len(result) > 0),
    }
    return [Target(m, f, **special.get(f, {})) for m, f, _ in LAYERS]


def layer_metrics(stats, attempted: int, items_per_s: float,
                  slowness: float) -> dict[str, float]:
    """Per-layer figures; times are divided by the run's mean ``slowness``."""
    from tracer import LayerStats

    def get(module, fn) -> LayerStats:
        return stats.get(f"{module}.{fn}", LayerStats())

    def ratio(a, b):
        return a / b if b else 0.0

    inversions = get("spectral", "invert_frequency").calls
    freq_evals = get("spectral", "frequency_map").calls + get("spectral", "rotation_number").calls
    out = {}
    for module, fn, wanted in LAYERS:
        st = get(module, fn)
        total_s, self_s = st.total_s / slowness, st.self_s / slowness
        derived = {
            "calls": st.calls, "total_s": total_s, "self_s": self_s,
            "us_per_call": ratio(total_s * 1e6, st.calls),
            "calls_per_item": ratio(st.calls, attempted),
            "success_ratio": ratio(st.ok, st.calls), "hit_ratio": ratio(st.ok, st.calls),
            "calls_per_inversion": ratio(st.calls, inversions),
            "calls_per_frequency_eval": ratio(st.calls, freq_evals),
            "orbit_bounces_per_s": ratio(st.work, total_s),
        }
        for s in wanted:
            out[f"{module}.{fn}.{s}"] = derived[s]
    out[TRACED_IPS] = items_per_s
    return out


def stratum_weights(items) -> list[float]:
    """Per-item weights: each stratum gets its share, split over its items.

    A run may stop mid-pass, so raw counts over-represent the kinds of
    item that come early in a pass; weighing each stratum by the share of
    the population it stands for (``Item.share``, or equal shares when
    unset) estimates the workload's mix whatever the stopping point.
    """
    counts = Counter(it.stratum for it in items)
    shares = {it.stratum: it.share for it in items}
    if not all(shares.values()):
        shares = dict.fromkeys(counts, 1.0)
    total = sum(shares.values())
    return [shares[it.stratum] / (total * counts[it.stratum]) for it in items]


def layer_split(spans, weights, numerator: str, denominator: str) -> dict | None:
    """Time in one traced function over time in another, per pass and weighted.

    ``weights`` are the items' stratum weights, so ``weighted`` estimates
    the ratio over the workload's population rather than over the pass.
    """
    per_item: dict[str, list[float]] = {numerator: [0.0] * len(weights),
                                         denominator: [0.0] * len(weights)}
    for _sid, _parent, item, name, t0, t1, _ok, _work in spans:
        if name in per_item and 0 <= item < len(weights):
            per_item[name][item] += t1 - t0
    num, den = per_item[numerator], per_item[denominator]
    if not sum(num) or not sum(den):
        return None
    return {"pass": sum(num) / sum(den),
            "weighted": sum(w * v for w, v in zip(weights, num))
            / sum(w * v for w, v in zip(weights, den))}


def weighted_quantile(values, weights, q: float) -> float:
    """Quantile of a weighted sample, interpolated between weight midpoints."""
    pairs = sorted(zip(values, weights))
    mids, acc = [], 0.0
    for _, w in pairs:
        mids.append(acc + 0.5 * w)
        acc += w
    xs = [v for v, _ in pairs]
    if q <= mids[0]:
        return xs[0]
    for k in range(1, len(xs)):
        if q <= mids[k]:
            f = (q - mids[k - 1]) / (mids[k] - mids[k - 1])
            return xs[k - 1] + f * (xs[k] - xs[k - 1])
    return xs[-1]


def provenance() -> dict:
    """Revision (when the checkout is a git repository), versions, caps."""
    import numpy as np
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "confocal_billiards").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": BLAS_THREAD_CAP,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from confocal_billiards.errors import BilliardError
    from probe import SpeedProbe
    from tracer import Tracer, layer_stats
    from workloads import WORKLOADS, NoOutput

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name]()
    probe = SpeedProbe()
    # One probe region over all set-ups: a single set-up can be shorter
    # than the probe's sampling interval.
    setups = []
    with probe.timing() as setup_phase:
        while len(setups) < SETUP_MIN_REPS or sum(setups) < SETUP_MIN_S:
            t0 = time.perf_counter()
            wl.setup(seed, str(OUT))
            setups.append(time.perf_counter() - t0)
    tracer = Tracer()
    if trace:
        tracer.install(trace_targets())

    timings, done, failures = [], [], []
    correct = True
    clock = time.perf_counter
    start = clock()
    k = 0
    try:
        while k < wl.min_items or clock() - start < seconds:
            item = wl.item(k)
            tracer.item, tracer.active = k, trace
            out, error = None, None
            with probe.timing() as t:
                try:
                    out = wl.run(item)
                except (NoOutput, BilliardError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                except Exception as exc:  # keep measuring; the item is reported
                    error = f"unexpected {type(exc).__name__}: {exc}"
                    correct = False
                finally:
                    tracer.active = False
            timings.append(t)
            done.append(item)
            if error is None:
                try:
                    gate = wl.check(item, out)
                except (BilliardError, ValueError, ArithmeticError) as exc:
                    gate = [f"check raised {type(exc).__name__}: {exc}"]
                if gate:
                    correct = False
                    error = "gate: " + "; ".join(gate)
            if error is not None:
                failures.append({"item": k, "label": item.label, "error": error[:500]})
            k += 1
    finally:
        tracer.uninstall()
    elapsed = clock() - start

    attempted = len(timings)
    weights = stratum_weights(done)
    raw_ms = [t.seconds * 1e3 for t in timings]
    lat_ms = [t.normalized * 1e3 for t in timings]
    run_factor = sum(raw_ms) / sum(lat_ms)
    e2e, raw = (
        {"setup_s": setup_s,
         "items_per_s": 1e3 / sum(w * v for w, v in zip(weights, ms)),
         "item_p50_ms": weighted_quantile(ms, weights, 0.5),
         "item_tail_ms": weighted_quantile(ms, weights, wl.tail_pct / 100),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        for ms, setup_s in ((lat_ms, statistics.median(setups) / setup_phase.slowness),
                            (raw_ms, statistics.median(setups))))
    tail = e2e["item_tail_ms"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        **provenance(),
        "attempted": attempted, "failed": len(failures),
        "fail_frac": len(failures) / attempted, "correct": correct,
        "elapsed_s": elapsed, "wall_items_per_s": attempted / elapsed,
        "setup_times_s": setups, "setup_slowness": setup_phase.slowness,
        "run_slowness": run_factor,
        "tail_pct": wl.tail_pct, "items_beyond_tail": sum(v > tail for v in lat_ms),
        "properties": wl.properties(done, weights),
        "end_to_end": e2e, "end_to_end_raw": raw, "failures": failures[:50],
        "items": [[it.label, round(t.seconds * 1e3, 3), round(t.slowness, 4), t.samples]
                  for it, t in zip(done, timings)],
    }
    if hasattr(wl, "watch"):
        # Untimed, after the measured loop and the peak RSS reading.
        record["known_defects"] = wl.watch()
        still = [d["label"] for d in record["known_defects"] if d["error"] is not None]
        print(f"known defect: {len(still)} of {len(record['known_defects'])} watched "
              f"targets still fail: {', '.join(still) or 'none'}")
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        stats = layer_stats(tracer.spans)
        record["per_layer"] = layer_metrics(stats, attempted, e2e["items_per_s"], run_factor)
        record["verify_invert_split"] = layer_split(
            tracer.spans, weights, "engine.verify_trajectory", "spectral.invert_frequency")
        record["unreachable"] = tracer.missing
        record["spans_file"] = f"{stem}.spans.npz"
        tracer.write(OUT / record["spans_file"])
        metrics = record["per_layer"]
        units = per_layer_names()
    else:
        metrics, units = e2e, END_TO_END
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    ok = True
    summary = {}
    for name in WORKLOAD_NAMES:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=seconds + 600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            if trace == 0:
                defects = [ln for ln in lines if ln.startswith("known defect")]
            results.append(json.loads(lines[-1]))
        plain, traced = results
        ips = plain["metrics"]["items_per_s"]["value"]
        tips = traced["metrics"][TRACED_IPS]["value"]
        summary[name] = {"untraced": plain, "traced": traced,
                         "tracing_overhead": 1.0 - tips / ips}
        print(f"{name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']} "
              f"fail_frac={plain['failed'] / plain['attempted']:.4f}")
        for metric, v in plain["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
        print(f"  traced items_per_s = {tips:.6g} 1/s "
              f"(tracing overhead {100 * summary[name]['tracing_overhead']:.1f}%)")
        for line in defects:
            print(f"  {line}")
        ok = ok and all(r["correct"] and r["failed"] == 0 for r in results)
    (OUT / f"all-seed{seed}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "confocal_billiards" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("give --workload or --all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
