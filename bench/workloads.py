"""The benchmark's three workloads: inputs from a seed, the timed call, gates.

Every workload is a closed loop with one caller: the next item starts
only after the previous one returned.  ``setup(seed, out_dir)`` builds
the items (inputs and reference values) and touches no timer;
``item(k)`` is the k-th request of a run; ``run(item)`` is the timed call
into the library; ``check(item, out)`` returns the list of gate failures
of that output (empty when correct).  A run completes at least
``min_items`` items, however long they take, so it always sees the whole
mix (one pass, or one round of freq_invert).
``run`` raises :class:`NoOutput` (or a ``BilliardError``) when the
program itself reports that it produced nothing; that item counts as
failed, never as retried or dropped.

``tail_pct`` is the highest multiple of 10 with at least ten items
beyond it in a 30-second run of the seed commit (the run record counts
the items beyond it): 80 for freq_invert, 60 for orbit_oracle; spt_find,
with about twelve items a run, stays at 50.  It is fixed, not recomputed
per run, so that a faster commit is compared at the same percentile
rather than a higher one.

Items come in a fixed order whose composition does not depend on the
seed: the seed picks *which* class, caustic parameters or start, never
how many of each kind.  That keeps the cost mix of a run the same from
seed to seed, so the run-to-run spread measures the program, not the
draw.  Each item stands for a share of its workload's population
(``Item.share``; equal shares when unset), and the end-to-end figures
weigh items by it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from confocal_billiards import cli, document, engine, geometry, spectral
from confocal_billiards.errors import BilliardError
from confocal_billiards.geometry import CausticParams, Ellipsoid

#: Relative distance to a component edge below which a target counts as "edge".
EDGE_REL = 1e-3


class NoOutput(Exception):
    """The program reported a failure (exit code or documented error)."""


@dataclass
class Item:
    """One closed-loop request; ``stratum`` names its kind in the workload mix."""

    label: str
    stratum: str
    args: tuple
    props: dict = field(default_factory=dict)
    #: Share of the workload's population its stratum stands for (0: equal shares).
    share: float = 0.0


# --------------------------------------------------------------------------
# Gates (pure functions of an output, so the self-tests can corrupt one)
# --------------------------------------------------------------------------

def gate_spt_document(text: str, minimal: tuple[int, ...]) -> list[str]:
    """Checks on a trajectory file written by ``spt find``."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"document is not JSON: {exc}"]
    fails = []
    if document.dumps(doc) != text:
        fails.append("re-dumped document differs from the file")
    try:
        rep = doc["symmetry_report"]
        q = np.array(doc["impacts"], dtype=float)
        p = np.array(doc["velocities"], dtype=float)
        closure = max(float(np.max(np.abs(q[-1] - q[0]))),
                      float(np.max(np.abs(p[-1] - p[0]))))
        length = float(np.sum(np.linalg.norm(np.diff(q, axis=0), axis=1)))
        if rep["passed"] is not True:
            fails.append("symmetry_report did not pass")
        if not closure <= 1e-8:
            fails.append(f"closure {closure:.3e} > 1e-8")
        if abs(closure - float(doc["closure_residual"])) > 1e-12:
            fails.append("closure_residual does not match the impacts")
        if abs(length - float(doc["length"])) > 1e-12 * length:
            fails.append("length does not match the impacts")
        if float(np.max(np.abs(np.linalg.norm(p, axis=1) - 1.0))) > 1e-9:
            fails.append("velocities are not unit vectors")
        if tuple(rep["winding_counts"]) != minimal or tuple(doc["winding"]) != minimal:
            fails.append(f"winding {doc['winding']} / counts {rep['winding_counts']} "
                         f"!= minimal {list(minimal)}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        fails.append(f"malformed document: {type(exc).__name__}: {exc}")
    return fails


def in_component(lam: CausticParams, ctype: str, ell: Ellipsoid) -> bool:
    bounds = geometry.caustic_component_bounds(ctype, ell)
    vals = lam.lambdas
    inside = all(lo < v < hi for v, (lo, hi) in zip(vals, bounds))
    ordered = all(a < b for a, b in zip(vals, vals[1:]))
    return (len(vals) == len(bounds) and inside and ordered
            and lam.ctype == ctype and geometry.caustic_type_of(vals, ell) == ctype)


def gate_inverted(lam: CausticParams, ctype: str, ell: Ellipsoid, target) -> list[str]:
    """|omega(lam) - target| <= 1e-10 and lam in the requested component."""
    if not in_component(lam, ctype, ell):
        return [f"lambda {lam.lambdas} not in component {ctype} of {ell.axes}"]
    omega = spectral.frequencies(lam, ell).omega
    err = max(abs(a - b) for a, b in zip(omega, target))
    return [] if err <= 1e-10 else [f"|omega(lambda) - target| = {err:.3e} > 1e-10"]


def gate_golden(lam: CausticParams, ctype: str, ell: Ellipsoid, published) -> list[str]:
    """Within 1e-5 of the published caustic parameters, in the component."""
    if not in_component(lam, ctype, ell):
        return [f"lambda {lam.lambdas} not in component {ctype} of {ell.axes}"]
    err = max(abs(a - b) for a, b in zip(lam.lambdas, sorted(published)))
    return [] if err < 1e-5 else [f"|lambda - published| = {err:.3e} >= 1e-5"]


def gate_oracle(estimates, refs) -> list[str]:
    """Each empirical frequency within its own error bound of quadrature."""
    if len(estimates) != len(refs):
        return [f"{len(estimates)} estimates for {len(refs)} caustics"]
    fails = []
    for k, (est, ref) in enumerate(zip(estimates, refs)):
        diff = max(abs(a - b) for a, b in zip(est.omega, ref))
        if not diff <= est.error:
            fails.append(f"orbit {k}: |omega_emp - omega_quad| = {diff:.3e} > {est.error:.3e}")
    return fails


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

def edge_distance(lambdas, ctype: str, ell: Ellipsoid) -> float:
    """Smallest distance to a component edge, relative to the interval width."""
    bounds = geometry.caustic_component_bounds(ctype, ell)
    return min(min(v - lo, hi - v) / (hi - lo) for v, (lo, hi) in zip(lambdas, bounds))


#: Near-edge 2D targets on which ``invert_frequency`` stalls at the seed
#: commit (its 2D Newton raises NoSolutionInComponent), one per edge where
#: stalls were seen: (ctype, axes, lambdas).  Stalls hit a few percent of
#: 2D targets 1e-5 to 3e-4 (relative) from some edges, so the timed
#: freq_invert mix keeps its near-edge targets to 1D (E, H), and every
#: freq_invert run inverts these untimed (:meth:`FreqInvert.watch`) so the
#: defect stays measured.
STALL_TARGETS = (
    ("EH2", (0.05, 0.95, 1.0), (0.011968502408657584, 0.9999894341439878)),
    ("H1H2", (0.25, 0.49, 1.0), (0.4899933220255736, 0.5842011690020097)),
    ("EH1", (0.25, 0.49, 1.0), (0.05915601584996236, 0.2500290561870507)),
)


def draw_caustic(rng, ctype: str, ell: Ellipsoid, rels=None,
                 edge: bool = False) -> CausticParams:
    """Seeded caustic parameters inside a component.

    Coordinate i is drawn uniformly from ``rels[i]`` (relative to its
    interval; default (0.05, 0.95)).  ``edge`` then moves one coordinate
    1e-5 to 1e-3 (relative, log-uniform) from an edge of its interval.
    H1H1 pairs are kept 1e-3 apart.
    """
    bounds = geometry.caustic_component_bounds(ctype, ell)
    rels = rels or ((0.05, 0.95),) * len(bounds)
    while True:
        u = [rng.uniform(*rel) for rel in rels]
        if edge:
            j = int(rng.integers(len(bounds)))
            off = 10.0 ** rng.uniform(-5.0, -3.0)
            u[j] = off if rng.random() < 0.5 else 1.0 - off
        vals = sorted(lo + (hi - lo) * x for (lo, hi), x in zip(bounds, u))
        if ctype == "H1H1" and vals[1] - vals[0] < 1e-3 * (bounds[0][1] - bounds[0][0]):
            continue
        try:
            return CausticParams.from_values(vals, ell)
        except (ValueError, ArithmeticError):
            continue


# --------------------------------------------------------------------------
# spt_find: the CLI path, class by class, with the atlas's fallback shapes
# --------------------------------------------------------------------------

#: Cells whose minimal target the frequency map misses on both primary
#: shapes (``spt find`` exits 3 on each), so every class in them goes on to
#: the atlas's fallback shapes: 24 of the 124 classes at the seed commit
#: (``bench/catalog.py`` measures this).
FALLBACK_CELLS = frozenset((ctype, m) for ctype in ("EH2", "H1H2")
                           for m in ((8, 4, 2), (8, 6, 2), (10, 6, 2)))
#: Strata of spt_find as (caustic type, fallback cells or not, blocks).
#: The classes of a group are ordered by (period, winding, class id) and
#: cut into that many blocks of consecutive classes; a pass takes one
#: seeded class from each block.  Every class of the catalog lies in one
#: block, and an item weighs as much as its block has classes, so the
#: weighted figures estimate the whole catalog.
SPT_STRATA = (
    ("E", False, 1), ("H", False, 1), ("EH1", False, 2), ("H1H1", False, 2),
    ("EH2", False, 2), ("EH2", True, 1), ("H1H2", False, 2), ("H1H2", True, 1),
)


def catalog() -> list:
    """The 12 + 112 classes in ``engine.minimal_atlas``'s order."""
    return [cls for n in (1, 2) for cls in engine.enumerate_classes(n)]


def needs_fallback(cls) -> bool:
    return (cls.ctype, cls.minimal_winding.m) in FALLBACK_CELLS


def spt_blocks() -> list[tuple[str, list]]:
    """(stratum name, classes) for every block of :data:`SPT_STRATA`."""
    classes = catalog()
    blocks = []
    for ctype, fallback, count in SPT_STRATA:
        group = sorted((c for c in classes if c.ctype == ctype and needs_fallback(c) == fallback),
                       key=lambda c: (c.minimal_winding.period, c.minimal_winding.m, c.class_id))
        cuts = [round(b * len(group) / count) for b in range(count + 1)]
        for b in range(count):
            blocks.append((f"{ctype}{'/fallback' if fallback else ''}/{b}", group[cuts[b]:cuts[b + 1]]))
    return blocks


def atlas_shapes(cls) -> list[Ellipsoid]:
    """Shapes in the order ``engine.minimal_atlas`` tries them for a class."""
    params = inspect.signature(engine.minimal_atlas).parameters
    if cls.dim == 2:
        return [params["ell2d"].default]
    flat, thin = params["ell_flat"].default, params["ell_thin"].default
    primary = [flat, thin] if cls.ctype in ("EH1", "H1H1") else [thin, flat]
    return primary + [e for e in params["extra_shapes"].default if e not in primary]


class Cyclic:
    """A workload whose set-up builds one pass; runs repeat the pass."""

    items: list[Item]

    @property
    def min_items(self) -> int:
        """A run completes at least one pass, so it sees the whole mix."""
        return len(self.items)

    def item(self, k: int) -> Item:
        return self.items[k % len(self.items)]


class SptFind(Cyclic):
    name = "spt_find"
    tail_pct = 50

    def setup(self, seed: int, out_dir: str) -> list[Item]:
        """One pass: a seeded class from every block of the catalog."""
        rng = np.random.default_rng(seed)
        size = len(catalog())
        out_path = os.path.join(out_dir, "spt_find.json")
        items = []
        for stratum, block in spt_blocks():
            cls = block[int(rng.integers(len(block)))]
            items.append(Item(cls.class_id, stratum, (cls, atlas_shapes(cls), out_path),
                              {"period": cls.minimal_winding.period}, share=len(block) / size))
        self.items = items
        return items

    def run(self, item: Item):
        cls, shapes, out_path = item.args
        tried = []
        sink = io.StringIO()
        for shape in shapes:
            argv = ["spt", "find", "--class", cls.class_id,
                    "--axes", ",".join(repr(a) for a in shape.axes), "--out", out_path]
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            tried.append((shape.axes, cls.ctype, cls.minimal_winding.m))
            if code == 0:
                break
            if code not in (2, 3):
                raise RuntimeError(f"spt find exited {code}: {sink.getvalue()[-300:]}")
        item.props["shapes_tried"] = tried
        if code != 0:
            raise NoOutput(f"exit {code} on every shape: {sink.getvalue()[-300:]}")
        with open(out_path) as fh:
            return fh.read()

    def check(self, item: Item, text: str) -> list[str]:
        return gate_spt_document(text, item.args[0].minimal_winding.m)

    def properties(self, done: list[Item], weights: list[float]) -> dict:
        keys_seen: set = set()
        fallback = repeats = weighted_fallback = 0.0
        for it, w in zip(done, weights):
            tried = it.props.get("shapes_tried", [])
            fallback += len(tried) > 1
            weighted_fallback += w * (len(tried) > 1)
            repeats += any(k in keys_seen for k in tried)
            keys_seen.update(tried)
        n = max(len(done), 1)
        classes = catalog()
        return {"fallback_shape_frac": fallback / n,
                "fallback_shape_frac_weighted": weighted_fallback,
                "fallback_shape_frac_catalog": sum(map(needs_fallback, classes)) / len(classes),
                "repeated_inversion_key_frac": repeats / n,
                "periods": sorted({it.props["period"] for it in done}),
                "ctypes": sorted({it.args[0].ctype for it in done})}


# --------------------------------------------------------------------------
# freq_invert: frequency-map inversion on golden rows and seeded targets
# --------------------------------------------------------------------------

#: Published minimal-SPT caustic parameters (ctype, winding, axes, lambdas),
#: the same rows as acceptance criterion 1.
GOLDEN_ROWS = (
    ("H1H1", (4, 3, 2), (0.13, 0.8, 1.0), (0.130077, 0.648376)),
    ("EH2", (5, 4, 2), (0.2, 0.3969, 1.0), (0.199523, 0.762965)),
    ("EH1", (5, 4, 2), (0.25, 0.49, 1.0), (0.231635, 0.260266)),
    ("H1H2", (6, 4, 2), (0.13, 0.45, 1.0), (0.133273, 0.967756)),
    ("EH2", (6, 4, 2), (0.13, 0.45, 1.0), (0.126968, 0.962896)),
    ("EH1", (6, 4, 2), (0.13, 0.8, 1.0), (0.126231, 0.403278)),
    ("H1H1", (8, 4, 2), (0.05, 0.95, 1.0), (0.056134, 0.457414)),
    ("H1H1", (8, 6, 2), (0.05, 0.95, 1.0), (0.050041, 0.229595)),
)
#: Caustic types in item order, 3D and 2D interleaved.
CTYPES = ("EH1", "E", "H1H1", "EH2", "H", "H1H2")
ELL_2D = Ellipsoid((0.16, 1.0))


class FreqInvert:
    name = "freq_invert"
    tail_pct = 80
    #: A run completes at least the first round: a golden row and every type.
    min_items = 1 + len(CTYPES)

    def setup(self, seed: int, out_dir: str) -> list[Item]:
        """The first rounds; :meth:`item` draws later ones on demand.

        Round r holds golden row r (r < 8), then one target per caustic
        type.  Odd rounds put the seeded E and H caustics near a component
        edge (2D ones stay inside; see :data:`STALL_TARGETS`); 3D rounds
        rotate through the stock shapes.  Targets are omega(lambda)
        of the seeded lambda, so a solution exists in the component.
        Rounds are drawn in order from one generator, so the sequence does
        not depend on how far a run gets, and no target repeats.
        """
        self.rng = np.random.default_rng(seed)
        self.items = []
        for _ in range(len(GOLDEN_ROWS)):
            self._add_round()
        return self.items

    def item(self, k: int) -> Item:
        while k >= len(self.items):
            self._add_round()
        return self.items[k]

    def _add_round(self) -> None:
        r = sum(it.stratum == CTYPES[0] for it in self.items)
        if r < len(GOLDEN_ROWS):
            ctype, m, axes, published = GOLDEN_ROWS[r]
            ell = Ellipsoid(axes)
            target = spectral.WindingNumbers(m).target()
            self.items.append(Item(f"golden:{ctype}:{m}", "golden", (target, ctype, ell, published),
                                   {"edge": edge_distance(sorted(published), ctype, ell) < EDGE_REL}))
        shapes3d = engine.STOCK_ELLIPSOIDS_3D
        for ctype in CTYPES:
            ell = ELL_2D if ctype in ("E", "H") else shapes3d[r % len(shapes3d)]
            lam = draw_caustic(self.rng, ctype, ell, edge=bool(r % 2) and ell.n == 1)
            target = spectral.frequencies(lam, ell).omega
            self.items.append(Item(f"{ctype}:{lam.lambdas}", ctype, (target, ctype, ell, None),
                                   {"edge": edge_distance(lam.lambdas, ctype, ell) < EDGE_REL}))

    def run(self, item: Item):
        target, ctype, ell, _ = item.args
        return spectral.invert_frequency(target, ctype, ell)

    def check(self, item: Item, lam) -> list[str]:
        target, ctype, ell, published = item.args
        if published is not None:
            return gate_golden(lam, ctype, ell, published)
        return gate_inverted(lam, ctype, ell, target)

    def watch(self) -> list[dict]:
        """Invert :data:`STALL_TARGETS` once, untimed, through the same gate.

        Each entry has the target's label and the failure (None once the
        inverter solves it), so the run record shows whether the known
        defect is still there.
        """
        out = []
        for ctype, axes, lambdas in STALL_TARGETS:
            ell = Ellipsoid(axes)
            target = spectral.frequencies(CausticParams.from_values(lambdas, ell), ell).omega
            try:
                fails = gate_inverted(spectral.invert_frequency(target, ctype, ell),
                                      ctype, ell, target)
                error = "gate: " + "; ".join(fails) if fails else None
            except BilliardError as exc:
                error = f"{type(exc).__name__}: {exc}"
            out.append({"label": f"{ctype}:{lambdas} on {axes}", "error": error})
        return out

    def properties(self, done: list[Item], weights: list[float]) -> dict:
        n = max(len(done), 1)
        return {"edge_target_frac": sum(it.props["edge"] for it in done) / n,
                "golden_items": sum(it.args[3] is not None for it in done)}


# --------------------------------------------------------------------------
# orbit_oracle: empirical frequencies of long orbits against quadrature
# --------------------------------------------------------------------------

#: (batch width, bounces per orbit).  Width runs from one orbit to the
#: criterion-7 width while the orbit-bounces per item stay within a factor
#: of 2.5, so the width mix separates per-call overhead from arithmetic.
ORBIT_CONFIGS = ((1, 12000), (3, 6000), (8, 3000), (25, 1200))
#: Shapes of acceptance criterion 7, one per caustic type.
ORBIT_SHAPES = {
    "E": (0.16, 1.0), "H": (0.16, 1.0),
    "EH1": (0.13, 0.8, 1.0), "H1H1": (0.13, 0.8, 1.0),
    "EH2": (0.13, 0.45, 1.0), "H1H2": (0.13, 0.45, 1.0),
}
#: Criterion-7 relative ranges; H1H1 keeps its two caustics apart.
ORBIT_RANGES = {"H1H1": ((0.08, 0.42), (0.55, 0.92))}


class OrbitOracle(Cyclic):
    name = "orbit_oracle"
    tail_pct = 60

    def setup(self, seed: int, out_dir: str) -> list[Item]:
        """One pass: every caustic type with every (width, bounces) config.

        Caustics are drawn from the criterion-7 ranges; the reference
        frequencies come from quadrature.  The random tangent starts are
        drawn by the library from ``self.rng``, seeded here.
        """
        rng = np.random.default_rng(seed)
        self.rng = np.random.default_rng([seed, 1])
        items = []
        for r in range(len(ORBIT_CONFIGS)):
            for c, ctype in enumerate(CTYPES):
                width, bounces = ORBIT_CONFIGS[(r + c) % len(ORBIT_CONFIGS)]
                ell = Ellipsoid(ORBIT_SHAPES[ctype])
                rels = ORBIT_RANGES.get(ctype, ((0.12, 0.88),) * ell.n)
                lams = [draw_caustic(rng, ctype, ell, rels) for _ in range(width)]
                refs = [spectral.frequencies(lam, ell).omega for lam in lams]
                label = f"{ctype}:{width}x{bounces}"
                items.append(Item(label, label, (lams, ell, bounces, refs),
                                  {"width": width, "bounces": bounces}))
        self.items = items
        return items

    def run(self, item: Item):
        lams, ell, bounces, _ = item.args
        batch = spectral.empirical_frequency_batch(lams, ell, bounces, rng=self.rng)
        scalar = [spectral.empirical_frequency(lam, ell, bounces) for lam in lams]
        return batch, scalar

    def check(self, item: Item, out) -> list[str]:
        refs = item.args[3]
        batch, scalar = out
        return ([f"batch {f}" for f in gate_oracle(batch, refs)]
                + [f"scalar {f}" for f in gate_oracle(scalar, refs)])

    def properties(self, done: list[Item], weights: list[float]) -> dict:
        return {"batch_width_mix": Counter(it.props["width"] for it in done),
                "orbit_length_mix": Counter(it.props["bounces"] for it in done),
                "orbit_bounces": sum(2 * it.props["width"] * it.props["bounces"] for it in done)}


WORKLOADS = {w.name: w for w in (SptFind, FreqInvert, OrbitOracle)}
