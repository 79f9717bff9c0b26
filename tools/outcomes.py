"""Record the outcome of many inversions, and compare two such records.

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
``bench``.  ``compare`` prints every differing key with both outcomes
and exits 1 when any differs.  It unpickles its inputs, so give it only
records that ``collect`` wrote.
"""

from __future__ import annotations

import argparse
import pickle
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
R4_AXES = (0.1, 0.3, 0.6, 1.0)


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

    out = {}
    for seed in seeds:
        wl = workloads.FreqInvert()
        wl.setup(seed, None)
        for k in range(items):
            target, ctype, ell, _ = wl.item(k).args
            out[("freq_invert", seed, k)] = run(target, ctype, ell)
    shapes3d = set(engine.STOCK_ELLIPSOIDS_3D) | set(engine.ATLAS_FALLBACK_SHAPES)
    keys = set()
    for n in (1, 2):
        for cls in engine.enumerate_classes(n):
            shapes = [engine.STOCK_ELLIPSOID_2D] if n == 1 else shapes3d
            keys.update((ell.axes, cls.ctype, cls.minimal_winding.m) for ell in shapes)
    for axes, ctype, m in sorted(keys):
        out[("atlas", axes, ctype, m)] = run(spectral.WindingNumbers(m).target(), ctype,
                                             Ellipsoid(axes))
    for ctype, axes, lambdas in workloads.STALL_TARGETS:
        ell = Ellipsoid(axes)
        target = spectral.frequencies(CausticParams.from_values(lambdas, ell), ell).omega
        out[("stall", ctype, axes, lambdas)] = run(target, ctype, ell)
    rng, ell = np.random.default_rng(0), Ellipsoid(R4_AXES)
    for ctype in geometry.caustic_types(3):
        for k in range(3):
            lam = workloads.draw_caustic(rng, ctype, ell)
            out[("r4", ctype, k, lam.lambdas)] = run(spectral.frequencies(lam, ell).omega,
                                                     ctype, ell)
    return out


def compare(old: dict, new: dict) -> int:
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
    record = collect([int(s) for s in args.seeds.split(",")], args.items)
    with open(args.out, "wb") as fh:
        pickle.dump(record, fh)
    fails = sum(isinstance(v, str) for v in record.values())
    print(f"{len(record)} outcomes ({fails} errors) in {time.perf_counter() - start:.1f} s "
          f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
