"""Class catalogs, minimal-orbit construction, and full verification.

A class of symmetric periodic trajectories is a caustic type plus an
unordered pair of distinct cuboid vertexes.  That gives 2 x 6 = 12
classes in 2D, 4 x 28 = 112 in 3D and 8 x 120 = 960 in 4D; in general
2^{2n} (2^{n+1} - 1).

Construction follows the five-step recipe: pick the class's minimal
winding numbers, invert the frequency map inside the right component,
take the closed-form seed of one of the class's vertexes, iterate the
billiard map one period, and verify everything (closure, caustic
preservation, velocities along their chords, symmetry-set memberships
and the two-point law, vertex visits, exact winding counts, cuboid
confinement, and the class id against the orbit's type and vertexes).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property
from itertools import combinations, product

import numpy as np

from .dynamics import Reversor, iterate_orbit, nonempty_reversors
from .errors import (
    BilliardError,
    FeasibilityError,
    NoSolutionInComponent,
    QuadratureNotConverged,
    SingularCaustic,
    UnsupportedDimension,
    VerificationFailed,
)
from .geometry import (CausticParams, Ellipsoid, cartesian_to_elliptic, caustic_params_of_lines,
                       caustic_type, caustic_types, cuboid)
from .spectral import (
    WindingNumbers,
    count_turning_events,
    even_required,
    invert_frequency,
    parity_violations,
    sample_elliptic_path,
)
from .symmetry import (
    CuboidVertex,
    all_vertexes,
    reversor_of_vertex,
    seed_point_at_vertex,
    symmetry_set_members,
)

#: Ellipsoid shapes used throughout the published numeric examples.
STOCK_ELLIPSOIDS_3D = (
    Ellipsoid((0.05, 0.95, 1.0)),
    Ellipsoid((0.13, 0.8, 1.0)),
    Ellipsoid((0.13, 0.45, 1.0)),
    Ellipsoid((0.2, 0.3969, 1.0)),
    Ellipsoid((0.25, 0.49, 1.0)),
)
STOCK_ELLIPSOID_2D = Ellipsoid((0.16, 1.0))
#: How an inversion can fail for one class without touching the others.
_INVERSION_FAILURES = (NoSolutionInComponent, QuadratureNotConverged, SingularCaustic)

#: Shapes ``minimal_atlas`` tries after a class's two primary shapes, in
#: order.  The 24 EH2 and H1H2 classes of minimal winding (8,4,2), (8,6,2)
#: or (10,6,2) lie outside the frequency image of every stock shape, and
#: the first stretched shape reaches them all; every other 3D class
#: succeeds on a primary shape (EH1 and H1H1 on the flat one, EH2 and
#: H1H2 on the thin one).  So the stretched shapes come first: such a
#: class then fails on its two primary shapes only.
ATLAS_FALLBACK_SHAPES = (
    Ellipsoid((0.05, 0.2, 1.0)),
    Ellipsoid((0.1, 0.2, 1.0)),
    Ellipsoid((0.02, 0.1, 1.0)),
) + STOCK_ELLIPSOIDS_3D


def class_count(n: int) -> int:
    """Number of classes for billiards in R^{n+1}: 2^{2n} (2^{n+1} - 1)."""
    if n < 1:
        raise UnsupportedDimension("need n >= 1")
    return 4 ** n * (2 ** (n + 1) - 1)


def vertex_delta_of_kind(w: WindingNumbers) -> tuple[int, ...]:
    """Which vertex coordinates differ between the two connected vertexes.

    With some winding number odd, the vertexes differ exactly in the odd
    coordinates (half-period symmetry point); with all even, exactly in
    the twice-odd coordinates (quarter-period).  Never the zero mask.
    """
    if any(v % 2 for v in w.m):
        return tuple(v % 2 for v in w.m)
    return tuple(1 if v % 4 == 2 else 0 for v in w.m)


def _minimal_with_congruences(congruences) -> WindingNumbers:
    ms = [0] * len(congruences)
    prev = 1
    for i in reversed(range(len(congruences))):
        r, mod = congruences[i]
        v = max(2, prev + 1)
        while v % mod != r % mod:
            v += 1
        ms[i] = v
        prev = v
    return WindingNumbers(tuple(ms))


def minimal_winding_for_delta(ctype: str, delta: tuple[int, ...]) -> WindingNumbers:
    """Smallest winding numbers whose vertex delta matches, for this type."""
    if not any(delta):
        raise ValueError("vertex delta cannot be zero")
    need_even = even_required(ctype)
    candidates = []
    if all(not need_even[i] for i, d in enumerate(delta) if d):
        candidates.append(_minimal_with_congruences(
            [(1, 2) if d else (0, 2) for d in delta]))
    candidates.append(_minimal_with_congruences(
        [(2, 4) if d else (0, 4) for d in delta]))
    return min(candidates, key=lambda w: w.m)


@dataclass(frozen=True)
class SptClass:
    """Caustic type plus an unordered pair of cuboid vertexes."""

    ctype: str
    vertex_pair: tuple[CuboidVertex, CuboidVertex]

    @property
    def dim(self) -> int:
        return self.vertex_pair[0].dim

    @cached_property
    def delta(self) -> tuple[int, ...]:
        v1, v2 = self.vertex_pair
        return tuple(b1 ^ b2 for b1, b2 in zip(v1.mask, v2.mask))

    @cached_property
    def minimal_winding(self) -> WindingNumbers:
        return minimal_winding_for_delta(self.ctype, self.delta)

    @cached_property
    def reversors(self) -> tuple[tuple[Reversor, str], ...]:
        """(reversor, o/i tag) of each vertex, as ``reversor_of_vertex`` gives them."""
        return tuple(reversor_of_vertex(v, self.ctype) for v in self.vertex_pair)

    @property
    def tags(self) -> tuple[str, ...]:
        """Per vertex, o (outer) or i (inner) for each interval between two caustics."""
        return tuple(tag for _, tag in self.reversors)

    @cached_property
    def class_id(self) -> str:
        parts = sorted(r.key + tag for r, tag in self.reversors)
        return f"{self.ctype}:{'+'.join(parts)}"

    @cached_property
    def couple_label(self) -> str:
        """Reversor couple; tagged types use the outer | inner bar notation."""
        if not self.tags[0]:
            return "{" + ", ".join(sorted(r.label for r, _ in self.reversors)) + "}"
        groups = ("".join(g) for g in product("oi", repeat=len(self.tags[0])))
        return "(" + " | ".join(
            ", ".join(sorted(r.label for r, tag in self.reversors if tag == g))
            for g in groups) + ")"

    def compatible_winding(self, w: WindingNumbers) -> bool:
        return vertex_delta_of_kind(w) == self.delta and not parity_violations(w, self.ctype)


def enumerate_classes(n: int) -> list[SptClass]:
    """Every (caustic type, vertex pair) class: 12 for n=1, 112 for n=2, 960 for n=3."""
    return [SptClass(ctype, pair) for ctype in caustic_types(n)
            for pair in combinations(all_vertexes(n + 1), 2)]


@cache
def _classes_by_id(n: int) -> dict[str, SptClass]:
    """The n-caustic catalog by class id, built once per n."""
    return {cls.class_id: cls for cls in enumerate_classes(n)}


def class_by_id(class_id: str, n: int) -> SptClass:
    """The class of n caustics with this id; its caustic type names its catalog."""
    try:
        cls = _classes_by_id(caustic_type(class_id.partition(":")[0]).n)[class_id]
    except (ValueError, KeyError):
        raise KeyError(f"unknown class id {class_id!r}") from None
    if cls.dim != n + 1:
        raise KeyError(f"class id {class_id!r} belongs to dimension {cls.dim}, "
                       f"not to dimension {n + 1}")
    return cls


# --------------------------------------------------------------------------
# Trajectories and verification
# --------------------------------------------------------------------------

@dataclass
class Trajectory:
    """A closed orbit with its provenance and raw data."""

    ellipsoid: Ellipsoid
    caustic: CausticParams
    winding: WindingNumbers
    impacts: np.ndarray          # (m_0 + 1, dim), last row closes the loop
    velocities: np.ndarray
    class_id: str | None = None
    branch: int = 0
    report: "VerificationReport | None" = None

    @property
    def period(self) -> int:
        return len(self.impacts) - 1

    @property
    def length(self) -> float:
        return float(np.sum(np.linalg.norm(np.diff(self.impacts, axis=0), axis=1)))

    @property
    def closure_residual(self) -> float:
        dq = float(np.max(np.abs(self.impacts[-1] - self.impacts[0])))
        dp = float(np.max(np.abs(self.velocities[-1] - self.velocities[0])))
        return max(dq, dp)


@dataclass
class VerificationReport:
    closure_residual: float
    caustic_deviation: float
    winding_counts: tuple[int, ...]
    winding_match: bool
    cuboid_excursion: float
    memberships: dict[str, list[int]]
    family_counts: dict[str, int]
    two_point_law_ok: bool
    doubly_symmetric: bool
    vertex_visits: list[dict]
    visited_masks: list[tuple[int, ...]]
    vertex_delta_ok: bool
    distinct_impacts: int
    event_counts: dict[str, int]
    monotone_conjecture_ok: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"passed": self.passed, **asdict(self),
                "winding_counts": list(self.winding_counts),
                "visited_masks": [list(m) for m in self.visited_masks]}


def distinct_impact_count(impacts: np.ndarray, ell: Ellipsoid) -> int:
    """Distinct impact points of a closed sequence (first == last merged)."""
    tol = 1e-9 * math.sqrt(ell.axes[-1])
    pts: list[np.ndarray] = []
    for q in impacts[:-1]:
        if not any(np.max(np.abs(q - p)) <= tol for p in pts):
            pts.append(q)
    return len(pts)


def _match_vertex(coords, box, tol) -> tuple[int, ...] | None:
    mask = []
    for v, (lo, hi) in zip(coords, box.intervals):
        if abs(v - lo) <= tol:
            mask.append(0)
        elif abs(v - hi) <= tol:
            mask.append(1)
        else:
            return None
    return tuple(mask)


#: The bounds of ``verify_trajectory`` (``VERTEX_TOL`` relative to
#: max(1, a_max)) and the samples per chord of its cuboid check.
CLOSURE_TOL = 1e-8
CAUSTIC_TOL = 1e-9
VELOCITY_TOL = 1e-9
EXCURSION_TOL = 1e-9
MEMBERSHIP_TOL = 1e-7
VERTEX_TOL = 1e-8
SAMPLES_PER_CHORD = 64


def verify_trajectory(t: Trajectory) -> VerificationReport:
    """Run every check on a closed orbit and return a structured report.

    Each velocity after the first must be the unit direction of the
    chord ending at its impact (closure covers the first), and a set
    ``class_id`` must name a class of this dimension and caustic type
    whose vertex pair is the one visited.  A failed check adds a line to
    ``failures``; a chord that is not a regular line raises what
    ``caustic_params_of_lines`` raises.
    """
    ell = t.ellipsoid
    lam = t.caustic
    m0 = t.period
    failures: list[str] = []

    closure = t.closure_residual
    if closure > CLOSURE_TOL:
        failures.append(f"closure residual {closure:.3e} > {CLOSURE_TOL:.0e}")

    chords = np.diff(t.impacts, axis=0)
    got = caustic_params_of_lines(t.impacts[:-1], chords, ell)
    dev = float(np.max(np.abs(got - lam.lambdas), initial=0.0))
    if dev > CAUSTIC_TOL:
        failures.append(f"caustic deviation {dev:.3e} > {CAUSTIC_TOL:.0e}")

    units = chords / np.linalg.norm(chords, axis=1)[:, None]
    drift = float(np.max(np.abs(t.velocities[1:] - units), initial=0.0))
    if drift > VELOCITY_TOL:
        failures.append(f"velocities off their chords by {drift:.3e} > {VELOCITY_TOL:.0e}")

    counts, event_counts = count_turning_events(t.impacts, lam, ell, closed=True)
    winding_counts = tuple(int(c) // 2 for c in counts)
    odd = bool(np.any(counts % 2))
    winding_match = (not odd) and winding_counts == t.winding.m
    if not winding_match:
        failures.append(f"winding counts {winding_counts} != prescribed {t.winding.m}")

    box = cuboid(lam, ell)
    path = sample_elliptic_path(t.impacts, ell, SAMPLES_PER_CHORD)
    excursion = box.excursion(path)
    if excursion > EXCURSION_TOL:
        failures.append(f"cuboid excursion {excursion:.3e} > {EXCURSION_TOL:.0e}")

    reversors = nonempty_reversors(ell.dim)
    memberships: dict[str, list[int]] = {}
    for r in reversors:
        hits = symmetry_set_members(r, t.impacts[:-1], t.velocities[:-1], ell, MEMBERSHIP_TOL)
        if hits.size:
            memberships[r.key] = hits.tolist()

    family_counts: dict[str, int] = {}
    two_point_ok = True
    for sigma_key in sorted({r.key.removeprefix("f") for r in reversors}):
        tilde_hits = memberships.get(sigma_key, [])
        hat_hits = memberships.get("f" + sigma_key, [])
        total = len(tilde_hits) + len(hat_hits)
        if not total:
            continue
        family_counts[sigma_key] = total
        if total != 2:
            two_point_ok = False
            failures.append(f"family {sigma_key}: {total} symmetry points (expected 2)")
        elif m0 % 2 == 1 and not (len(tilde_hits) == 1 and len(hat_hits) == 1):
            two_point_ok = False
            failures.append(f"family {sigma_key}: odd period needs one point per set")
        elif m0 % 2 == 0 and (len(tilde_hits) not in (0, 2)):
            two_point_ok = False
            failures.append(f"family {sigma_key}: even period needs both points on one set")

    vtol = VERTEX_TOL * max(1.0, ell.axes[-1])
    vertex_visits: list[dict] = []
    for j in range(m0):
        mid = 0.5 * (t.impacts[j] + t.impacts[j + 1])
        for at, q in (("impact", t.impacts[j]), ("midpoint", mid)):
            mask = _match_vertex(cartesian_to_elliptic(q, ell).coords, box, vtol)
            if mask is not None:
                vertex_visits.append({"at": at, "index": j, "mask": list(mask)})

    delta = vertex_delta_of_kind(t.winding)
    masks = sorted({tuple(v["mask"]) for v in vertex_visits})
    delta_ok = (len(masks) == 2
                and tuple(b1 ^ b2 for b1, b2 in zip(*masks)) == delta)
    if not delta_ok:
        failures.append(f"visited vertexes {masks} do not differ by delta {delta}")

    if t.class_id is not None:
        try:
            cls = class_by_id(t.class_id, ell.n)
        except KeyError as exc:
            failures.append(f"class: {exc.args[0]}")
        else:
            want = sorted(v.mask for v in cls.vertex_pair)
            if cls.ctype != lam.ctype or want != masks:
                failures.append(f"class {t.class_id}: type {cls.ctype} with vertexes {want}, "
                                f"not {lam.ctype} with {masks}")

    for msg in parity_violations(t.winding, lam.ctype):
        failures.append("parity: " + msg)

    return VerificationReport(
        closure_residual=closure,
        caustic_deviation=dev,
        winding_counts=winding_counts,
        winding_match=winding_match,
        cuboid_excursion=excursion,
        memberships=memberships,
        family_counts=family_counts,
        two_point_law_ok=two_point_ok,
        doubly_symmetric=len(memberships) >= 2,
        vertex_visits=vertex_visits,
        visited_masks=masks,
        vertex_delta_ok=delta_ok,
        distinct_impacts=distinct_impact_count(t.impacts, ell),
        event_counts=event_counts,
        monotone_conjecture_ok=t.winding.monotone,
        failures=failures,
    )


# --------------------------------------------------------------------------
# SPT construction
# --------------------------------------------------------------------------

def _seed_vertex_of(cls: SptClass) -> CuboidVertex:
    """Prefer a tilde-family vertex (impact seed): its mask takes 0, the low end of I_0."""
    return next((v for v in cls.vertex_pair if not v.mask[0]), cls.vertex_pair[0])


def _build_orbit(vertex: CuboidVertex, lam: CausticParams, ell: Ellipsoid,
                 m0: int, branch: int):
    seed = seed_point_at_vertex(vertex, lam, ell, branch)
    return iterate_orbit(seed, ell, m0)


def _polish_lambda(vertex: CuboidVertex, lam: CausticParams, ell: Ellipsoid,
                   m0: int, branch: int) -> CausticParams:
    """Gauss-Newton on the caustic parameters to shrink the closure defect."""
    n = len(lam.lambdas)

    def defect(vec) -> np.ndarray:
        lamP = CausticParams(tuple(vec), lam.ctype)
        qs, ps = _build_orbit(vertex, lamP, ell, m0, branch)
        return np.concatenate([qs[-1] - qs[0], ps[-1] - ps[0]])

    best = np.array(lam.lambdas)
    r = defect(best)
    best_norm = float(np.max(np.abs(r)))
    lamv = best.copy()
    for _ in range(4):
        if best_norm < 1e-13:
            break
        h = np.maximum(1e-9 * np.abs(lamv), 1e-13)
        jac = np.empty((len(r), n))
        for j in range(n):
            dp = np.zeros(n)
            dp[j] = h[j]
            jac[:, j] = (defect(lamv + dp) - defect(lamv - dp)) / (2.0 * h[j])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        trial = lamv + step
        try:
            rt = defect(trial)
        except (BilliardError, ValueError):
            break
        if float(np.max(np.abs(rt))) >= best_norm:
            break
        lamv, r = trial, rt
        best_norm = float(np.max(np.abs(rt)))
        best = lamv.copy()
    return CausticParams(tuple(best), lam.ctype)


def find_spt(cls: SptClass, ell: Ellipsoid, w: WindingNumbers | None = None, *,
             branch: int = 0, lam: CausticParams | None = None,
             polish: bool = True) -> Trajectory:
    """Construct and verify a symmetric periodic trajectory of the class.

    The trajectory carries its passing report; a failed verification
    raises VerificationFailed with the report.
    """
    if ell.n != cls.dim - 1:
        raise ValueError("class dimension does not match the ellipsoid")
    w = w or cls.minimal_winding
    if len(w.m) != cls.dim:
        raise ValueError(f"winding {w.m} has {len(w.m)} numbers; class {cls.class_id} needs {cls.dim}")
    if not cls.compatible_winding(w):
        raise FeasibilityError(
            f"winding {w.m} (delta {vertex_delta_of_kind(w)}) incompatible "
            f"with class {cls.class_id} (delta {cls.delta})")
    if lam is None:
        lam = invert_frequency(w.target(), cls.ctype, ell)
    vertex = _seed_vertex_of(cls)
    if polish:
        lam = _polish_lambda(vertex, lam, ell, w.period, branch)
    qs, ps = _build_orbit(vertex, lam, ell, w.period, branch)
    traj = Trajectory(ellipsoid=ell, caustic=lam, winding=w,
                      impacts=qs, velocities=ps,
                      class_id=cls.class_id, branch=branch)
    traj.report = verify_trajectory(traj)
    if not traj.report.passed:
        raise VerificationFailed(
            f"class {cls.class_id}: " + "; ".join(traj.report.failures), traj.report)
    return traj


@dataclass
class AtlasResult:
    trajectories: list[Trajectory]
    failures: list[tuple[str, str]]
    #: class id -> [(axes, "ErrorName: message")] of each shape that failed,
    #: in the order tried (empty for a class built on its first shape)
    rejected: dict[str, list[tuple[tuple[float, ...], str]]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.failures


def minimal_atlas(ell2d: Ellipsoid = STOCK_ELLIPSOID_2D,
                  ell_flat: Ellipsoid = STOCK_ELLIPSOIDS_3D[0],
                  ell_thin: Ellipsoid = STOCK_ELLIPSOIDS_3D[2], *,
                  extra_shapes: tuple[Ellipsoid, ...] = ATLAS_FALLBACK_SHAPES) -> AtlasResult:
    """One verified minimal trajectory per class (12 in 2D, 112 in 3D).

    Flat shapes serve the EH1/H1H1 classes and thin ("segment-like")
    shapes the EH2/H1H2 ones; when the frequency map misses the target on
    the preferred shape, the other supplied shapes are tried in order
    (by default the stretched shapes, then the stock ones; see
    ``ATLAS_FALLBACK_SHAPES``).  A shape is rejected when its inversion
    fails, after ``invert_frequency``'s rescue from the scan's other local
    minima too, or when verification fails; ``rejected`` records each
    such shape with its error.  Per-class failures are collected, never
    raised.
    """
    trajectories: list[Trajectory] = []
    failures: list[tuple[str, str]] = []
    rejected: dict[str, list[tuple[tuple[float, ...], str]]] = {}
    # (axes, ctype, winding) -> caustic parameters, or the failed inversion's
    # exception: many classes share a key, and a repeated miss is re-raised.
    lam_cache: dict[tuple, CausticParams | BilliardError] = {}

    def inverted(shape: Ellipsoid, cls: SptClass, w: WindingNumbers) -> CausticParams:
        key = (shape.axes, cls.ctype, w.m)
        if key not in lam_cache:
            try:
                lam_cache[key] = invert_frequency(w.target(), cls.ctype, shape)
            except _INVERSION_FAILURES as exc:
                lam_cache[key] = exc.with_traceback(None)   # frames not kept alive
        if isinstance(lam_cache[key], BilliardError):
            raise lam_cache[key]
        return lam_cache[key]

    def shapes_for(cls: SptClass) -> list[Ellipsoid]:
        if cls.dim == 2:
            return [ell2d]
        primary = [ell_flat, ell_thin] if cls.ctype in ("EH1", "H1H1") else [ell_thin, ell_flat]
        rest = [e for e in extra_shapes if e not in primary]
        return primary + rest

    for n in (1, 2):
        for cls in enumerate_classes(n):
            w = cls.minimal_winding
            last_err = None
            misses = rejected[cls.class_id] = []
            for shape in shapes_for(cls):
                try:
                    traj = find_spt(cls, shape, w, lam=inverted(shape, cls, w))
                    trajectories.append(traj)
                    last_err = None
                    break
                except _INVERSION_FAILURES + (VerificationFailed, FeasibilityError) as exc:
                    last_err = exc
                    misses.append((shape.axes, f"{type(exc).__name__}: {exc}"))
            if last_err is not None:
                failures.append((cls.class_id, str(last_err)))
    return AtlasResult(trajectories, failures, rejected)
