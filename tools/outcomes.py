"""Record the outcome of many inversions, or an atlas build, and compare two records.

An outcome is what ``invert_frequency`` returns for one target: its
caustic parameters as a tuple of floats, or the text of the error it
raised ("ErrorName: message").  A record is a pickled dict from a case
key to its outcome, over four groups of cases:

* ``freq_invert``: the first ``--items`` items of the freq_invert
  benchmark workload for each ``--seeds`` seed;
* ``atlas``: every (shape, caustic type, minimal winding) key that
  ``minimal_atlas`` can try, on every shape it can try (230 keys);
* ``stall``: the benchmark's ``STALL_TARGETS``;
* ``r4``: 24 interior targets on (0.1, 0.3, 0.6, 1.0), three per R^4
  caustic type in catalogue order, drawn by the benchmark's
  ``draw_caustic`` from ``numpy.random.default_rng(0)``.

Two records compare with ``==``, outcome by outcome, so a change that
must leave inversions bit-identical can be checked against its parent
commit::

    python3 tools/outcomes.py collect parent.pkl --src ../parent/src
    python3 tools/outcomes.py collect change.pkl
    python3 tools/outcomes.py compare parent.pkl change.pkl

``--src`` picks the library source tree (default: this checkout's
``src``); the workload definitions always come from this checkout's
``bench``.  ``collect`` prints each group's outcome count and wall time
as it finishes it.  ``compare`` prints every differing key with both
outcomes and exits 1 when any differs.

``collect --atlas`` records a ``minimal_atlas()`` build instead: per
class, the shape's axes, the caustic parameters, the impacts and
velocities, the visited vertex masks, the winding counts and the closure
residual.  A change may move orbits at rounding level, so ``compare`` of
two atlas records prints per class the largest |difference| of the
caustic parameters (lambda), the impacts and the velocities, then the
largest of each over all classes, and exits 1 only when the builds
differ in their classes, or in a class's shape, visited masks, winding
counts or period, or when a closure residual exceeds ``CLOSURE_TOL`` on
either side.

``compare`` unpickles its inputs, so give it only records that
``collect`` wrote.
"""

from __future__ import annotations

import argparse
import pickle
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
R4_AXES = (0.1, 0.3, 0.6, 1.0)
CLOSURE_TOL = 1e-8


def collect(seeds, items: int) -> dict:
    import numpy as np
    import workloads
    from confocal_billiards import engine, geometry, spectral
    from confocal_billiards.errors import BilliardError
    from confocal_billiards.geometry import CausticParams, Ellipsoid

    def run(target, ctype, ell):
        try:
            return tuple(spectral.invert_frequency(target, ctype, ell).lambdas)
        except BilliardError as exc:
            return f"{type(exc).__name__}: {exc}"

    out, start = {}, time.perf_counter()

    def done(group):
        # one line per group: its outcome count and wall time
        nonlocal start
        got = [v for k, v in out.items() if k[0] == group]
        fails = sum(isinstance(v, str) for v in got)
        print(f"{group}: {len(got)} outcomes ({fails} errors) in "
              f"{time.perf_counter() - start:.2f} s")
        start = time.perf_counter()

    for seed in seeds:
        wl = workloads.FreqInvert()
        wl.setup(seed, None)
        for k in range(items):
            target, ctype, ell, _ = wl.item(k).args
            out[("freq_invert", seed, k)] = run(target, ctype, ell)
    done("freq_invert")
    shapes3d = set(engine.STOCK_ELLIPSOIDS_3D) | set(engine.ATLAS_FALLBACK_SHAPES)
    keys = set()
    for n in (1, 2):
        for cls in engine.enumerate_classes(n):
            shapes = [engine.STOCK_ELLIPSOID_2D] if n == 1 else shapes3d
            keys.update((ell.axes, cls.ctype, cls.minimal_winding.m) for ell in shapes)
    for axes, ctype, m in sorted(keys):
        out[("atlas", axes, ctype, m)] = run(spectral.WindingNumbers(m).target(), ctype,
                                             Ellipsoid(axes))
    done("atlas")
    for ctype, axes, lambdas in workloads.STALL_TARGETS:
        ell = Ellipsoid(axes)
        target = spectral.frequencies(CausticParams.from_values(lambdas, ell), ell).omega
        out[("stall", ctype, axes, lambdas)] = run(target, ctype, ell)
    done("stall")
    rng, ell = np.random.default_rng(0), Ellipsoid(R4_AXES)
    for ctype in geometry.caustic_types(3):
        for k in range(3):
            lam = workloads.draw_caustic(rng, ctype, ell)
            out[("r4", ctype, k, lam.lambdas)] = run(spectral.frequencies(lam, ell).omega,
                                                     ctype, ell)
    done("r4")
    return out


def collect_atlas() -> dict:
    from confocal_billiards import minimal_atlas

    atlas = minimal_atlas()
    classes = {}
    for t in atlas.trajectories:
        report = t.report
        classes[t.class_id] = {
            "axes": t.ellipsoid.axes,
            "lambdas": t.caustic.lambdas,
            "impacts": t.impacts.copy(),
            "velocities": t.velocities.copy(),
            "visited_masks": [tuple(m) for m in report.visited_masks],
            "winding_counts": tuple(report.winding_counts),
            "closure": t.closure_residual,
        }
    # inversion records have tuple keys only
    return {"kind": "atlas", "failures": list(atlas.failures), "classes": classes}


def _max_abs_diff(x, y) -> float:
    import numpy as np

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(np.max(np.abs(x - y), initial=0.0)) if x.shape == y.shape else float("inf")


def compare_atlas(old: dict, new: dict) -> int:
    bad = []
    if old["failures"] != new["failures"]:
        bad.append(f"failures: {old['failures']} -> {new['failures']}")
    worst = {"lambda": 0.0, "impacts": 0.0, "velocities": 0.0}
    for cid in sorted(old["classes"].keys() | new["classes"].keys()):
        a, b = old["classes"].get(cid), new["classes"].get(cid)
        if a is None or b is None:
            bad.append(f"{cid}: built on one side only")
            continue
        for key in ("axes", "visited_masks", "winding_counts"):
            if a[key] != b[key]:
                bad.append(f"{cid}: {key} {a[key]} -> {b[key]}")
        if a["impacts"].shape != b["impacts"].shape:
            bad.append(f"{cid}: period {len(a['impacts']) - 1} -> {len(b['impacts']) - 1}")
        for side, rec in (("old", a), ("new", b)):
            if not rec["closure"] <= CLOSURE_TOL:
                bad.append(f"{cid}: {side} closure {rec['closure']:.3e} > {CLOSURE_TOL:.0e}")
        diffs = {"lambda": _max_abs_diff(a["lambdas"], b["lambdas"]),
                 "impacts": _max_abs_diff(a["impacts"], b["impacts"]),
                 "velocities": _max_abs_diff(a["velocities"], b["velocities"])}
        for key, v in diffs.items():
            worst[key] = max(worst[key], v)
        print(f"{cid:<24} " + "  ".join(f"d{k} {v:.2e}" for k, v in diffs.items())
              + f"  closure {a['closure']:.1e} -> {b['closure']:.1e}")
    for line in bad:
        print("MISMATCH " + line)
    print(f"{len(old['classes'])} vs {len(new['classes'])} classes; largest |d|: "
          + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
          + f"; {len(bad)} mismatches")
    return 1 if bad else 0


def compare(old: dict, new: dict) -> int:
    kinds = {old.get("kind"), new.get("kind")}
    if kinds == {"atlas"}:
        return compare_atlas(old, new)
    if "atlas" in kinds:
        raise SystemExit("cannot compare an atlas record with an inversion record")
    diffs = sorted((k for k in old.keys() | new.keys() if old.get(k) != new.get(k)), key=repr)
    for key in diffs:
        print(f"{key}\n  old: {old.get(key, '<missing>')}\n  new: {new.get(key, '<missing>')}")
    fixed = sum(isinstance(old.get(k), str) and isinstance(new.get(k), tuple) for k in diffs)
    print(f"{len(old)} vs {len(new)} outcomes: {len(diffs)} differ "
          f"({fixed} of them failures that now succeed)")
    return 1 if diffs else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect", help="invert every case and pickle the outcomes")
    p_collect.add_argument("out")
    p_collect.add_argument("--atlas", action="store_true",
                           help="record a minimal_atlas() build instead of inversions")
    p_collect.add_argument("--src", default=str(ROOT / "src"))
    p_collect.add_argument("--seeds", default="1,2,3,7",
                           help="freq_invert seeds, comma-separated")
    p_collect.add_argument("--items", type=int, default=400,
                           help="freq_invert items per seed")
    p_compare = sub.add_parser("compare", help="compare two pickled records with ==")
    p_compare.add_argument("old")
    p_compare.add_argument("new")
    args = ap.parse_args(argv)
    if args.command == "compare":
        with open(args.old, "rb") as fa, open(args.new, "rb") as fb:
            return compare(pickle.load(fa), pickle.load(fb))
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "bench")]
    start = time.perf_counter()
    if args.atlas:
        record = collect_atlas()
        summary = f"{len(record['classes'])} classes ({len(record['failures'])} failures)"
    else:
        record = collect([int(s) for s in args.seeds.split(",")], args.items)
        fails = sum(isinstance(v, str) for v in record.values())
        summary = f"{len(record)} outcomes ({fails} errors)"
    with open(args.out, "wb") as fh:
        pickle.dump(record, fh)
    print(f"{summary} in {time.perf_counter() - start:.1f} s -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
