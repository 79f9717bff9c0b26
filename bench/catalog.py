"""Every class of the catalog through the spt_find path, once.

    python3 bench/catalog.py

runs all 12 + 112 classes the way an spt_find item does (``spt find``
through ``cli.main``, the atlas's fallback shapes on exit 2 or 3), with
the tracer on, and writes ``.bench_out/catalog.json``: per class the
wall time, the shapes tried and the time in ``verify_trajectory`` and
``invert_frequency``.  It prints the totals, the verify:invert split and
the fallback share of the whole catalog (the figures spt_find's weighted
sample estimates), and every class whose need of a fallback shape
disagrees with ``workloads.FALLBACK_CELLS``.  Takes several minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402  (also caps the BLAS threads)
from tracer import Tracer, layer_stats  # noqa: E402
from workloads import Item, SptFind, atlas_shapes, catalog, needs_fallback  # noqa: E402


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    out_path = str(run.OUT / "catalog-spt.json")
    workload = SptFind()
    tracer = Tracer()
    tracer.install(run.trace_targets())
    rows = []
    try:
        for cls in catalog():
            item = Item(cls.class_id, "", (cls, atlas_shapes(cls), out_path), {})
            tracer.spans.clear()
            tracer.active = True
            t0 = time.perf_counter()
            try:
                workload.run(item)
                error = None
            except Exception as exc:  # reported per class, the sweep goes on
                error = f"{type(exc).__name__}: {exc}"[:300]
            seconds = time.perf_counter() - t0
            tracer.active = False
            stats = layer_stats(tracer.spans)

            def total(name):
                return stats[name].total_s if name in stats else 0.0
            rows.append({"class": cls.class_id, "seconds": seconds, "error": error,
                         "shapes_tried": len(item.props.get("shapes_tried", [])),
                         "verify_s": total("engine.verify_trajectory"),
                         "invert_s": total("spectral.invert_frequency")})
            print(json.dumps(rows[-1]), flush=True)
    finally:
        tracer.uninstall()
    verify = sum(r["verify_s"] for r in rows)
    invert = sum(r["invert_s"] for r in rows)
    fallback = [r["shapes_tried"] > 1 for r in rows]
    summary = {"classes": len(rows), "seconds": sum(r["seconds"] for r in rows),
               "verify_s": verify, "invert_s": invert, "verify_invert_split": verify / invert,
               "fallback_shape_frac": sum(fallback) / len(rows),
               "failed": [r["class"] for r in rows if r["error"]],
               "fallback_mismatch": [cls.class_id for cls, fb in zip(catalog(), fallback)
                                     if fb != needs_fallback(cls)]}
    (run.OUT / "catalog.json").write_text(json.dumps({"summary": summary, "classes": rows},
                                                     indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    return 0 if not summary["failed"] and not summary["fallback_mismatch"] else 1


if __name__ == "__main__":
    sys.exit(main())
