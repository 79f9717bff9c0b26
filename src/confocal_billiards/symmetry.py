"""Symmetry sets, cuboid vertexes, and closed-form seed points.

Every symmetric trajectory passes, in elliptic coordinates, through a
vertex of the cuboid of oscillation intervals.  A vertex determines its
reversor: the reflection flips exactly the coordinates whose squared
semiaxis appears among the vertex values, and the family is tilde when
the first value is 0 (the vertex is an impact point) and hat otherwise
(the vertex is a chord midpoint).

Each vertex also carries a closed-form seed: a phase point on the fixed
set of its reversor whose line is tangent to all prescribed caustics.
There are 2^{n+1} sign branches per vertex; the branch index sets the
free signs, and signs forced by outwardness are derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .dynamics import PhasePoint, Reflection, Reversor, nonempty_reversors
from .errors import BranchOutOfRange, DegenerateOrbit, FeasibilityError
from .geometry import (
    CausticParams,
    Cuboid,
    Ellipsoid,
    caustic_type,
    cuboid,
    elliptic_to_cartesian,
)


@dataclass(frozen=True)
class CuboidVertex:
    """One of the 2^{n+1} vertexes: bit i picks the high endpoint of I_i."""

    mask: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mask", tuple(int(b) for b in self.mask))

    @property
    def dim(self) -> int:
        return len(self.mask)

    def values(self, box: Cuboid) -> tuple[float, ...]:
        return box.vertex_values(self.mask)

    def kinds(self, ctype: str) -> tuple[str, ...]:
        """Breakpoint kinds of the vertex values (see ``CausticType.kinds``)."""
        kinds = caustic_type(ctype).kinds
        return tuple(kinds[2 * i + b] for i, b in enumerate(self.mask))


def all_vertexes(dim: int) -> list[CuboidVertex]:
    return [CuboidVertex(tuple((k >> i) & 1 for i in range(dim)))
            for k in range(2 ** dim)]


def _classify_kinds(kinds: tuple[str, ...]) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """(family, axis indices, caustic indices), all indices 0-based."""
    family = "tilde" if kinds[0] == "0" else "hat"
    axes = tuple(int(k[1:]) - 1 for k in kinds if k.startswith("A"))
    lams = tuple(int(k[1:]) - 1 for k in kinds if k.startswith("L"))
    return family, axes, lams


def _ctype_of(lam_or_ctype) -> str:
    return getattr(lam_or_ctype, "ctype", lam_or_ctype)


def reversor_of_vertex(v: CuboidVertex, lam_or_ctype) -> tuple[Reversor, int | None]:
    """Reversor of a vertex plus the index of its in-vertex caustic.

    The second entry is the 1-based index of the unique caustic parameter
    among the vertex values (None when zero or both appear); for H1H1 it
    is the inner/outer tag (1 = outer hyperboloid, 2 = inner).  Cached
    per (vertex, caustic type).
    """
    return _vertex_reversor(v, _ctype_of(lam_or_ctype))


@cache
def _vertex_reversor(v: CuboidVertex, ctype: str) -> tuple[Reversor, int | None]:
    family, axes, lams = _classify_kinds(v.kinds(ctype))
    side = lams[0] + 1 if len(lams) == 1 else None
    return Reversor(family, Reflection.flipping(axes, v.dim)), side


def vertex_of_reversor(r: Reversor, lam_or_ctype, side: int | None = None) -> CuboidVertex:
    """Vertex associated to a reversor for the given caustic type.

    For H1H1 the tilde-axis and hat-axis reversors own two vertexes each;
    ``side`` (1 = outer caustic, 2 = inner) disambiguates.
    """
    ctype = _ctype_of(lam_or_ctype)
    matches = []
    for v in all_vertexes(r.sigma.dim):
        rv, sv = reversor_of_vertex(v, ctype)
        if rv == r and (side is None or sv == side):
            matches.append(v)
    if not matches:
        detail = f" with side {side}" if side is not None else ""
        raise FeasibilityError(f"reversor {r.label} cannot occur for type {ctype}{detail}")
    if len(matches) > 1:
        raise FeasibilityError(
            f"reversor {r.label} is ambiguous for type {ctype}; pass side=1 (outer) or 2 (inner)")
    return matches[0]


def feasible_reversors(ctype: str, n: int) -> set[Reversor]:
    """Reversors realizable by trajectories of the given caustic type."""
    if caustic_type(ctype).n != n:
        raise ValueError(f"caustic type {ctype!r} invalid for n={n}")
    return {reversor_of_vertex(v, ctype)[0] for v in all_vertexes(n + 1)}


def forbidden_reversors(ctype: str, n: int) -> set[Reversor]:
    return set(nonempty_reversors(n + 1)) - feasible_reversors(ctype, n)


# --------------------------------------------------------------------------
# Membership predicates
# --------------------------------------------------------------------------

def symmetry_set_residuals(r: Reversor, Q, P, ell: Ellipsoid) -> np.ndarray:
    """How far each phase point (rows of Q, P) is from Fix(r).

    Each residual is a max of defining residuals.

    Tilde family: q fixed by sigma and p normal to the symmetry section.
    Hat family: p antisymmetric under sigma and the line through (q, p)
    meeting the sigma-fixed subspace.  The two empty fixed sets come out
    naturally as infinite residuals.
    """
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    sig = r.sigma.arr
    q_minus = 0.5 * (Q - sig * Q)
    p_plus = 0.5 * (P + sig * P)
    with np.errstate(divide="ignore", invalid="ignore"):
        if r.family == "tilde":
            nrm = ell.normal(Q)
            n_plus = 0.5 * (nrm + sig * nrm)
            size = np.linalg.norm(n_plus, axis=1)
            n_hat = n_plus / size[:, None]
            res_p = p_plus - np.einsum("ij,ij->i", p_plus, n_hat)[:, None] * n_hat
            out = np.maximum(np.max(np.abs(q_minus), axis=1), np.max(np.abs(res_p), axis=1))
            empty = size == 0.0
        else:
            p_minus = 0.5 * (P - sig * P)
            size2 = np.einsum("ij,ij->i", p_minus, p_minus)
            t = -np.einsum("ij,ij->i", q_minus, p_minus) / size2
            res_line = q_minus + t[:, None] * p_minus
            out = np.maximum(np.max(np.abs(p_plus), axis=1), np.max(np.abs(res_line), axis=1))
            empty = size2 == 0.0
    out[empty] = math.inf
    return out


def symmetry_set_residual(r: Reversor, m: PhasePoint, ell: Ellipsoid) -> float:
    """``symmetry_set_residuals`` of one phase point."""
    return float(symmetry_set_residuals(r, [m.q], [m.p], ell)[0])


def symmetry_set_members(r: Reversor, Q, P, ell: Ellipsoid, tol: float = 1e-10) -> np.ndarray:
    """Indices of the phase points (rows of Q, P) in Fix(r), within tol (scale-normalized)."""
    return np.flatnonzero(symmetry_set_residuals(r, Q, P, ell) <= tol * max(1.0, ell.axes[-1]))


def symmetry_set_contains(r: Reversor, m: PhasePoint, ell: Ellipsoid,
                          tol: float = 1e-10) -> bool:
    """Membership in Fix(r) within tol (scale-normalized by the top axis)."""
    return symmetry_set_members(r, [m.q], [m.p], ell, tol).size > 0


# --------------------------------------------------------------------------
# Seed points
# --------------------------------------------------------------------------

def _branch_signs(branch: int, slots: int) -> list[float]:
    if not (0 <= branch < 2 ** slots):
        raise BranchOutOfRange(f"branch {branch} outside [0, {2 ** slots})")
    return [-1.0 if (branch >> k) & 1 else 1.0 for k in range(slots)]


def seed_point_at_vertex(v: CuboidVertex, lam: CausticParams, ell: Ellipsoid,
                         branch: int = 0) -> PhasePoint:
    """Phase point in Fix(reversor of v) whose line is tangent to all caustics.

    ``branch`` selects among the 2^{n+1} sign choices; free q-signs come
    first (ascending coordinate), then free p-signs.  Signs dictated by
    outwardness are derived, never selectable.
    """
    family, axes, lam_in = _classify_kinds(v.kinds(lam.ctype))
    a = ell.a
    lams = np.array(lam.lambdas)
    signs = _branch_signs(branch, ell.dim)
    box = cuboid(lam, ell)
    if family == "tilde":
        if len(axes) == 0:
            q = elliptic_to_cartesian(v.values(box), ell, signs=signs)
            p = (q / a) * math.sqrt(float(np.prod(a) / np.prod(lams)))
            return PhasePoint(tuple(q), tuple(p))
        if len(axes) == 1:
            return _seed_tilde_axis(axes[0], lam_in, lams, a, signs)
        if len(axes) == 2 and ell.dim == 3:
            return _seed_tilde_axis_pair(axes, lams, a, signs)
    else:
        if len(axes) == ell.dim:
            return _seed_hat_central(lams, a, signs)
        if len(axes) == 1:
            return _seed_hat_axis(axes[0], lams, a, signs)
        if len(axes) == 2 and ell.dim == 3:
            return _seed_hat_axis_pair(axes, lam_in, lams, a, signs)
    raise FeasibilityError(f"no seed construction for vertex {v.mask} of type {lam.ctype}")


def seed_point(r: Reversor, lam: CausticParams, ell: Ellipsoid,
               branch: int = 0, side: int | None = None) -> PhasePoint:
    """Seed on Fix(r) tangent to the caustics of lam (FeasibilityError if none)."""
    v = vertex_of_reversor(r, lam.ctype, side)
    return seed_point_at_vertex(v, lam, ell, branch)


def _seed_tilde_axis(l: int, lam_in: tuple[int, ...], lams: np.ndarray,
                     a: np.ndarray, signs: list[float]) -> PhasePoint:
    """Impact on the section by plane l, velocity normal to the section."""
    dim = len(a)
    others = [j for j in range(dim) if j != l]
    lam_out = [lams[i] for i in range(len(lams)) if i not in lam_in]
    assert len(lam_out) == 1
    lk = lam_out[0]
    lam_in_vals = [lams[i] for i in lam_in]
    q = np.zeros(dim)
    slot = 0
    for m in others:
        rest = [j for j in others if j != m]
        num = a[m] * np.prod([a[m] - lv for lv in lam_in_vals])
        den = np.prod([a[m] - a[j] for j in rest]) if rest else 1.0
        q[m] = signs[slot] * math.sqrt(num / den)
        slot += 1
    nu = math.sqrt(lk / (np.prod(a) * np.prod(lam_in_vals)))
    p = np.zeros(dim)
    p[l] = signs[slot] * math.sqrt((a[l] - lk) / a[l])
    for m in others:
        rest = [j for j in others if j != m]
        p[m] = nu * np.prod([a[j] for j in rest]) * q[m]
    return PhasePoint(tuple(q), tuple(p))


def _seed_tilde_axis_pair(axes_pair, lams: np.ndarray, a: np.ndarray,
                          signs: list[float]) -> PhasePoint:
    """Impact at an end of the untouched axis (3D only)."""
    m, n = axes_pair
    l = [j for j in range(3) if j not in (m, n)][0]
    q = np.zeros(3)
    q[l] = signs[0] * math.sqrt(a[l])
    p = np.zeros(3)
    p[l] = math.copysign(math.sqrt(lams[0] * lams[1] / (a[m] * a[n])), q[l])
    p[m] = signs[1] * math.sqrt((a[m] - lams[0]) * (a[m] - lams[1]) / (a[m] * (a[m] - a[n])))
    p[n] = signs[2] * math.sqrt((a[n] - lams[0]) * (a[n] - lams[1]) / (a[n] * (a[n] - a[m])))
    return PhasePoint(tuple(q), tuple(p))


def _seed_hat_axis(l: int, lams: np.ndarray, a: np.ndarray,
                   signs: list[float]) -> PhasePoint:
    """Chord orthogonal to plane l through a point of all caustics."""
    dim = len(a)
    others = [j for j in range(dim) if j != l]
    q = np.zeros(dim)
    p = np.zeros(dim)
    slot = 0
    for m in others:
        rest = [j for j in others if j != m]
        num = np.prod([a[m] - lv for lv in lams])
        den = np.prod([a[m] - a[j] for j in rest]) if rest else 1.0
        q[m] = signs[slot] * math.sqrt(num / den)
        slot += 1
    p[l] = signs[slot]
    q[l] = math.copysign(
        math.sqrt(a[l] * np.prod(lams) / np.prod([a[j] for j in others])), p[l])
    return PhasePoint(tuple(q), tuple(p))


def _seed_hat_axis_pair(axes_pair, lam_in: tuple[int, ...], lams: np.ndarray,
                        a: np.ndarray, signs: list[float]) -> PhasePoint:
    """Chord meeting the untouched axis orthogonally (3D only).

    The caustic between a_m and a_n fixes the direction; the other one
    (the in-vertex caustic) fixes where the chord crosses the axis.
    """
    m, n = axes_pair
    l = [j for j in range(3) if j not in (m, n)][0]
    assert len(lam_in) == 1
    lam_vertex = lams[lam_in[0]]
    lam_tang = lams[1 - lam_in[0]]
    p = np.zeros(3)
    q = np.zeros(3)
    q[l] = signs[0] * math.sqrt(a[l] - lam_vertex)
    p[m] = signs[1] * math.sqrt((a[m] - lam_tang) / (a[m] - a[n]))
    p[n] = signs[2] * math.sqrt((a[n] - lam_tang) / (a[n] - a[m]))
    scale = math.sqrt(a[m] * a[n] * lam_vertex / (a[l] * lam_tang))
    q[m] = scale * p[m]
    q[n] = scale * p[n]
    return PhasePoint(tuple(q), tuple(p))


def _seed_hat_central(lams: np.ndarray, a: np.ndarray, signs: list[float]) -> PhasePoint:
    """Chord through the center along a common asymptotic direction."""
    dim = len(a)
    p = np.zeros(dim)
    for l in range(dim):
        rest = [j for j in range(dim) if j != l]
        num = np.prod([a[l] - lv for lv in lams])
        den = np.prod([a[l] - a[j] for j in rest])
        p[l] = signs[l] * math.sqrt(num / den)
    q = math.sqrt(float(np.prod(a) / np.prod(lams))) * p
    return PhasePoint(tuple(q), tuple(p))


def classify_symmetric_point(m: PhasePoint, ell: Ellipsoid,
                             tol: float = 1e-10) -> Reversor | None:
    """The unique nonempty fixed set containing m, or None.

    Points on two different symmetry sets belong to hyperplane-confined
    or 2-periodic orbits, whose classification is undefined; they raise
    DegenerateOrbit instead of being assigned a set.
    """
    hits = [r for r in nonempty_reversors(ell.dim)
            if symmetry_set_contains(r, m, ell, tol)]
    if len(hits) > 1:
        raise DegenerateOrbit(
            f"phase point lies on {len(hits)} symmetry sets "
            f"({', '.join(r.key for r in hits)}); orbit is degenerate")
    return hits[0] if hits else None


# --------------------------------------------------------------------------
# Random fixed-set points (membership-independent construction)
# --------------------------------------------------------------------------

def random_fix_point(r: Reversor, ell: Ellipsoid, rng: np.random.Generator) -> PhasePoint:
    """Random phase point on Fix(r), built from the geometric description.

    Independent of the caustic machinery, so it exercises the membership
    predicates and algebraic identities without circularity.
    """
    if r.is_empty_set:
        raise FeasibilityError(f"{r.label} has an empty fixed set")
    a = ell.a
    dim = ell.dim
    flipped = set(r.sigma.flipped)
    if r.family == "tilde":
        v = rng.normal(size=dim)
        for j in flipped:
            v[j] = 0.0
        q = ell.surface_point(v)
        nrm = ell.normal(q)
        p = (abs(rng.normal()) + 0.2) * nrm / np.linalg.norm(nrm)
        for j in flipped:
            p[j] += rng.normal()
        return PhasePoint(tuple(q), tuple(p / np.linalg.norm(p)))
    y = rng.normal(size=dim)
    for j in flipped:
        y[j] = 0.0
    norm = math.sqrt(float(y @ (y / a))) if np.any(y) else 0.0
    if norm > 0.0:
        y *= 0.5 * rng.uniform(0.1, 0.9) / norm
    w = np.zeros(dim)
    idx = sorted(flipped)
    w[idx] = rng.normal(size=len(idx))
    p = w / np.linalg.norm(w)
    # exit intersection of the line y + t p with the ellipsoid
    c2 = float(p @ (p / a))
    c1 = 2.0 * float(y @ (p / a))
    c0 = float(y @ (y / a)) - 1.0
    t = (-c1 + math.sqrt(c1 * c1 - 4.0 * c2 * c0)) / (2.0 * c2)
    q = y + t * p
    return PhasePoint(tuple(q), tuple(p))
