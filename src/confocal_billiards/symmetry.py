"""Symmetry sets, cuboid vertexes, and closed-form seed points.

Every symmetric trajectory passes, in elliptic coordinates, through a
vertex of the cuboid of oscillation intervals.  A vertex determines its
reversor: the reflection flips exactly the coordinates whose squared
semiaxis appears among the vertex values, and the family is tilde when
the first value is 0 (the vertex is an impact point) and hat otherwise
(the vertex is a chord midpoint).

Each vertex also carries a closed-form seed: a phase point on the fixed
set of its reversor whose line is tangent to all prescribed caustics.
One formula serves every vertex in every dimension (Jacobi/Chasles;
Moser 1980).  At the vertex values mu the point is
x = ``elliptic_to_cartesian(mu)`` and the direction has, in the frame
e_i ~ x / (a - mu_i) (the unit vector of axis j where mu_i = a_j), the
components p_i^2 = prod_k (mu_i - lam_k) / prod_{j != i} (mu_i - mu_j).
The impact is x itself at a tilde vertex and the exit of the line
x + t p at a hat vertex.  There are 2^{n+1} sign branches per vertex:
bit k of the branch index sets the k-th free sign, the q-signs of the
nonzero coordinates of x first, then the p-signs of the axis
components, each in ascending coordinate order; the other signs are
forced (p_0 points outward).
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


@cache
def reversor_of_vertex(v: CuboidVertex, ctype: str) -> tuple[Reversor, str]:
    """Reversor of a vertex for the caustic type ``ctype``, plus its o/i tag.

    The tag has one letter per oscillation interval bounded by two
    caustics (two caustic parameters between the same pair of axes, as in
    H1H1): o when the vertex takes the lower (outer) one, i the upper
    (inner).  Vertexes with one reversor differ only in their tags; the
    tag is empty for types without such intervals.  Cached per (vertex,
    caustic type).
    """
    kinds = v.kinds(ctype)
    family = "tilde" if kinds[0] == "0" else "hat"
    axes = [int(k[1:]) - 1 for k in kinds if k.startswith("A")]
    tag = "".join("oi"[b] for b, (lo, hi) in zip(v.mask, caustic_type(ctype).intervals)
                  if lo[0] == hi[0] == "L")
    return Reversor(family, Reflection.flipping(axes, v.dim)), tag


def vertex_of_reversor(r: Reversor, ctype: str, side: str | None = None) -> CuboidVertex:
    """Vertex associated to a reversor for the caustic type ``ctype``.

    Where a reversor owns several vertexes (H1H1 and its relatives),
    ``side``, the o/i tag of ``reversor_of_vertex``, picks one.
    """
    matches = []
    for v in all_vertexes(r.sigma.dim):
        rv, tag = reversor_of_vertex(v, ctype)
        if rv == r and (side is None or tag == side):
            matches.append(v)
    if not matches:
        detail = f" with side {side!r}" if side is not None else ""
        raise FeasibilityError(f"reversor {r.label} cannot occur for type {ctype}{detail}")
    if len(matches) > 1:
        raise FeasibilityError(
            f"reversor {r.label} is ambiguous for type {ctype}; pass side, one of "
            + ", ".join(repr(reversor_of_vertex(v, ctype)[1]) for v in matches))
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

    One closed form for every vertex and dimension, evaluated at the exact
    vertex values mu (a component at a caustic value is then exactly 0):
    the point x = ``elliptic_to_cartesian(mu)``, the direction
    p = sum_i s_i sqrt(p_i^2) e_i with
    p_i^2 = prod_k (mu_i - lam_k) / prod_{j != i} (mu_i - mu_j), where e_i
    is the unit vector of axis j if mu_i = a_j and e_i ~ x / (a - mu_i),
    s_i = +1, otherwise.  The impact is x at a tilde vertex (mu_0 = 0) and
    the forward exit of the line x + t p at a hat vertex.

    ``branch`` selects among the 2^{n+1} sign choices: bit k sets the k-th
    free sign, the q-signs of the coordinates x_j not fixed to 0 by an
    axis value first (ascending j), then the p-signs of the axis
    components (ascending j).  The other signs are forced.
    """
    mu = v.values(cuboid(lam, ell))
    a = ell.axes
    signs = iter(_branch_signs(branch, ell.dim))
    axis = [a.index(m) if m in a else None for m in mu]
    x = elliptic_to_cartesian(
        mu, ell, [1.0 if j in axis else next(signs) for j in range(ell.dim)]).tolist()
    p = [0.0] * ell.dim
    for m, j in zip(mu, axis):
        size = math.sqrt(math.prod(m - l for l in lam.lambdas)
                         / math.prod(m - o for o in mu if o != m))
        if j is not None:
            p[j] = next(signs) * size
        elif size:
            e = [xk / (ak - m) for xk, ak in zip(x, a)]
            c = size / math.hypot(*e)
            p = [pk + c * ek for pk, ek in zip(p, e)]
    norm = math.hypot(*p)
    p = [pk / norm for pk in p]
    if mu[0] == 0.0:
        return PhasePoint(tuple(x), tuple(p))
    c2 = sum(pk * pk / ak for pk, ak in zip(p, a))
    c1 = sum(xk * pk / ak for xk, pk, ak in zip(x, p, a))
    c0 = sum(xk * xk / ak for xk, ak in zip(x, a)) - 1.0
    t = (math.sqrt(c1 * c1 - c2 * c0) - c1) / c2    # c2 t^2 + 2 c1 t + c0 = 0, t > 0
    return PhasePoint(tuple(xk + t * pk for xk, pk in zip(x, p)), tuple(p))


def seed_point(r: Reversor, lam: CausticParams, ell: Ellipsoid,
               branch: int = 0, side: str | None = None) -> PhasePoint:
    """Seed on Fix(r) tangent to the caustics of lam (FeasibilityError if none)."""
    v = vertex_of_reversor(r, lam.ctype, side)
    return seed_point_at_vertex(v, lam, ell, branch)


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
