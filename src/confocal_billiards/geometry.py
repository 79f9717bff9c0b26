"""Ellipsoid geometry, confocal quadrics, and Jacobi elliptic coordinates.

The ellipsoid is ``<Dq, q> = 1`` with ``D = diag(1/a_1, ..., 1/a_{n+1})``
and strictly increasing squared semiaxes ``a_1 < ... < a_{n+1}``.  Its
confocal family is ``Q_mu = {q : <D_mu q, q> = 1}`` with
``D_mu = diag(1/(a_j - mu))``.  Every generic point has n+1 elliptic
coordinates (the mu for which it lies on Q_mu) and every generic line is
tangent to exactly n nonsingular members of the family, its caustic
parameters.

Conventions: coordinate j pairs with axis a_j, so in 2D the first
coordinate runs along the *short* axis.  Caustic types are "E"/"H" for
n=1 and "EH1"/"H1H1"/"EH2"/"H1H2" for n=2, named after the quadric kind
of each caustic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import (
    NegativeRadicand,
    NonGenericPoint,
    NonTransverse,
    SingularLine,
    UnsupportedDimension,
)

CAUSTIC_TYPES = {1: ("E", "H"), 2: ("EH1", "H1H1", "EH2", "H1H2")}


@dataclass(frozen=True)
class Ellipsoid:
    """Nondegenerate ellipsoid given by its squared semiaxes, ascending."""

    axes: tuple[float, ...]

    def __post_init__(self):
        axes = tuple(float(a) for a in self.axes)
        if len(axes) < 2:
            raise ValueError("need at least two axes")
        if not (0.0 < axes[0] and all(a < b < math.inf for a, b in zip(axes, axes[1:]))):
            raise ValueError("axes must be finite, positive and strictly increasing")
        object.__setattr__(self, "axes", axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def n(self) -> int:
        """Number of caustics of a nonsingular trajectory."""
        return self.dim - 1

    @cached_property
    def a(self) -> np.ndarray:
        arr = np.array(self.axes)
        arr.setflags(write=False)
        return arr

    def normal(self, q) -> np.ndarray:
        """Unnormalized outward normal D q at a surface point."""
        return np.asarray(q, dtype=float) / self.a

    def constraint(self, q) -> float:
        """<Dq, q> - 1, zero on the surface."""
        q = np.asarray(q, dtype=float)
        return float(q @ (q / self.a) - 1.0)

    def project(self, q) -> np.ndarray:
        """Shift q along Dq back onto the surface (drift control)."""
        q = np.asarray(q, dtype=float)
        g = q / self.a
        c2 = float(g @ (g / self.a))
        c1 = 2.0 * float(g @ g)
        c0 = float(q @ g) - 1.0
        disc = c1 * c1 - 4.0 * c2 * c0
        t = 2.0 * c0 / (c1 + math.sqrt(max(disc, 0.0)))
        return q - t * g

    def surface_point(self, direction) -> np.ndarray:
        """Intersection of the ray along ``direction`` with the surface."""
        v = np.asarray(direction, dtype=float)
        s = math.sqrt(float(v @ (v / self.a)))
        if s == 0.0:
            raise ValueError("zero direction")
        return v / s


def caustic_type_of(lambdas, ell: Ellipsoid) -> str:
    """Classify which component of the nonsingular caustic space lam is in."""
    a = ell.axes
    lams = tuple(float(v) for v in lambdas)
    if len(lams) != ell.n:
        raise ValueError(f"expected {ell.n} caustic parameters, got {len(lams)}")
    if ell.n == 1:
        return "E" if lams[0] < a[0] else "H"
    if ell.n == 2:
        first = "E" if lams[0] < a[0] else "H1"
        second = "H1" if lams[1] < a[1] else "H2"
        if first == "E":
            return "EH1" if second == "H1" else "EH2"
        return "H1H1" if second == "H1" else "H1H2"
    raise UnsupportedDimension("caustic types catalogued only for n <= 2")


def caustic_component_bounds(ctype: str, ell: Ellipsoid) -> tuple[tuple[float, float], ...]:
    """Open interval (lo, hi) for each caustic parameter of the component.

    For H1H1 both intervals coincide and the extra ordering constraint
    ``lambda_1 < lambda_2`` applies.
    """
    a = ell.axes
    table = {
        "E": (1, ((0.0, 0),)),
        "H": (1, ((0, 1),)),
        "EH1": (2, ((0.0, 0), (0, 1))),
        "H1H1": (2, ((0, 1), (0, 1))),
        "EH2": (2, ((0.0, 0), (1, 2))),
        "H1H2": (2, ((0, 1), (1, 2))),
    }
    if ctype not in table:
        raise ValueError(f"unknown caustic type {ctype!r}")
    n, spec = table[ctype]
    if ell.n != n:
        raise ValueError(f"caustic type {ctype!r} incompatible with n={ell.n}")
    return tuple((lo if isinstance(lo, float) else a[lo], a[hi]) for lo, hi in spec)


@dataclass(frozen=True)
class CausticParams:
    """Caustic parameters lambda_1 < ... < lambda_n with their type tag."""

    lambdas: tuple[float, ...]
    ctype: str

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))

    @classmethod
    def from_values(cls, lambdas, ell: Ellipsoid, tol: float = 1e-12) -> "CausticParams":
        lams = tuple(float(v) for v in lambdas)
        scale = ell.axes[-1]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise SingularLine(f"caustic parameters not strictly increasing: {lams}")
        if lams[0] <= tol * scale:
            raise NonTransverse(f"lambda_1 = {lams[0]} not positive")
        for v in lams:
            if min(abs(v - aj) for aj in ell.axes) < tol * scale:
                raise SingularLine(f"caustic parameter {v} collides with an axis")
        for v, (lo, hi) in zip(lams, _interleaving_bounds(ell)):
            if not (lo < v < hi):
                raise SingularLine(f"caustic parameter {v} outside ({lo}, {hi})")
        return cls(lams, caustic_type_of(lams, ell))


def _interleaving_bounds(ell: Ellipsoid):
    """lambda_i lies in (a_{i-1}, a_{i+1}) with a_0 = 0."""
    a = (0.0,) + ell.axes
    return [(a[i - 1], a[i + 1]) for i in range(1, ell.n + 1)]


@dataclass(frozen=True)
class EllipticPoint:
    """Jacobi elliptic coordinates mu_0 <= ... <= mu_n plus octant signs."""

    coords: tuple[float, ...]
    octant: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Cuboid:
    """Product of the oscillation intervals confining a trajectory.

    ``breakpoints`` is (c_0=0, c_1, ..., c_{2n+1}); interval i is
    [c_{2i}, c_{2i+1}].
    """

    breakpoints: tuple[float, ...]

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        c = self.breakpoints
        return tuple((c[2 * i], c[2 * i + 1]) for i in range(len(c) // 2))

    def vertex_values(self, mask) -> tuple[float, ...]:
        """Elliptic coordinates of the vertex selected by per-interval bits."""
        return tuple(iv[b] for iv, b in zip(self.intervals, mask))

    def contains(self, coords, tol: float = 0.0) -> bool:
        return all(lo - tol <= v <= hi + tol
                   for v, (lo, hi) in zip(coords, self.intervals))

    def excursion(self, coords) -> float:
        """Largest breach of the interval bounds (0 when inside).

        ``coords`` is one point or a stack of points, one per row.
        """
        lo, hi = np.array(self.intervals).T
        c = np.asarray(coords, dtype=float)
        return float(np.max(np.maximum(lo - c, c - hi), initial=0.0))


def cuboid(lam: CausticParams, ell: Ellipsoid) -> Cuboid:
    vals = sorted(ell.axes + lam.lambdas)
    if any(b - a <= 0 for a, b in zip(vals, vals[1:])):
        raise SingularLine("axes and caustic parameters must be pairwise distinct")
    return Cuboid((0.0,) + tuple(vals))


# --------------------------------------------------------------------------
# Cartesian <-> elliptic coordinates
# --------------------------------------------------------------------------

def elliptic_coords(Q, ell: Ellipsoid, *, collision_tol: float = 1e-12):
    """Elliptic coordinates of a stack of points, (mu[N, d] ascending, ok[N]).

    The coordinates of x are the eigenvalues of ``diag(a) - x x^T``, since
    ``det(diag(a) - x x^T - mu I) = prod_j (a_j - mu) (1 - sum_j x_j^2/(a_j - mu))``
    (rank-one update, Golub 1973), so one batched ``eigvalsh`` call gives
    every row.  The matrix is built from |x|: the coordinates depend on x^2
    only, and sign flips then give bit-identical rows.  Components within
    ``1e-12 * a_max`` of a hyperplane are snapped onto it and the limit
    root a_j is returned exactly; the other roots get one Newton step on
    ``F(mu) = sum_j x_j^2/(a_j - mu) - 1``.  ``ok`` is False where two
    roots collide within ``collision_tol * a_max`` (the point sits next to
    a focal conic, where the coordinates are not defined).
    """
    a = ell.a
    scale = float(a[-1])
    X = np.abs(np.asarray(Q, dtype=float))
    if X.ndim != 2 or X.shape[1] != ell.dim:
        raise ValueError(f"points must have shape (N, {ell.dim})")
    X[X < 1e-12 * scale] = 0.0
    mu = np.linalg.eigvalsh(np.diag(a) - X[:, :, None] * X[:, None, :])
    zero = X == 0.0
    for j in np.flatnonzero(zero.any(axis=0)):
        on = np.flatnonzero(zero[:, j])
        mu[on, np.argmin(np.abs(mu[on] - a[j]), axis=1)] = a[j]
    D = a - mu[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        T = (X * X)[:, None, :] / D     # 0/0 = nan keeps snapped roots as they are
        step = (T.sum(axis=2) - 1.0) / (T / D).sum(axis=2)
    # a root hugging a pole can land an ulp on its far side, from where the
    # Newton step jumps across the pole: keep the eigenvalue there
    reach = np.min(np.abs(D), axis=2, where=~zero[:, None, :], initial=np.inf)
    polish = np.abs(step) < reach
    mu[polish] -= step[polish]
    mu.sort(axis=1)
    # such roots can also break mu_0 <= a_1 <= mu_1 <= ... <= a_d by an ulp
    np.minimum(mu, a, out=mu)
    np.maximum(mu[:, 1:], a[:-1], out=mu[:, 1:])
    ok = np.all(np.diff(mu, axis=1) >= collision_tol * scale, axis=1)
    return mu, ok


def cartesian_to_elliptic(q, ell: Ellipsoid, *, collision_tol: float = 1e-12) -> EllipticPoint:
    """Elliptic coordinates of a point: the roots of <D_mu q, q> = 1.

    Coordinates within ``1e-12 * a_max`` of a hyperplane are snapped onto
    it and the limit root a_j is returned exactly.  Raises NonGenericPoint
    when two roots collide within ``collision_tol`` (the point sits next
    to a focal conic, where the coordinates are not defined).
    """
    x = np.asarray(q, dtype=float)
    if x.shape != (ell.dim,):
        raise ValueError(f"point must have dimension {ell.dim}")
    mu, ok = elliptic_coords(x[None], ell, collision_tol=collision_tol)
    if not ok[0]:
        raise NonGenericPoint(f"colliding elliptic coordinates at {q}")
    # 0 in the mask reports that q lies on that coordinate hyperplane
    snap = 1e-12 * ell.axes[-1]
    octant = tuple(0 if abs(v) < snap else (-1 if v < 0 else 1) for v in x)
    return EllipticPoint(tuple(mu[0]), octant)


def elliptic_to_cartesian(mu, ell: Ellipsoid, signs=None, *, tol: float = 1e-9) -> np.ndarray:
    """Cartesian point with the given elliptic coordinates and octant signs.

    Each squared coordinate is the standard product formula
    ``x_j^2 = prod_i (a_j - mu_i) / prod_{i != j} (a_j - a_i)``.
    Raises NegativeRadicand when the interleaving inequalities are
    violated beyond ``tol`` (relative to a_max).
    """
    a = ell.a
    m = np.asarray(mu, dtype=float)
    if m.shape != (ell.dim,):
        raise ValueError(f"expected {ell.dim} elliptic coordinates")
    if signs is None:
        signs = np.ones(ell.dim)
    s = np.sign(np.asarray(signs, dtype=float))
    s[s == 0.0] = 1.0
    scale = float(a[-1])
    x = np.empty(ell.dim)
    for j in range(ell.dim):
        num = np.prod(a[j] - m)
        den = np.prod(a[j] - np.delete(a, j))
        x2 = num / den
        if x2 < -tol * scale:
            raise NegativeRadicand(f"x_{j + 1}^2 = {x2} < 0; corrupted elliptic point")
        x[j] = s[j] * math.sqrt(max(x2, 0.0))
    return x


# --------------------------------------------------------------------------
# Caustic parameters of a line
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _axis_cofactor_polys(axes: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(P_j)_j with P_j(t) = prod_{k != j}(a_k - t), and P(t) = prod_k (a_k - t).

    One pair per ellipsoid, shared between calls, hence read-only.
    """
    a = np.array(axes)
    d = len(a)
    sign = (-1.0) ** (d - 1)
    pj = np.array([np.poly(np.delete(a, j)) * sign for j in range(d)])
    pall = np.poly(a) * (-1.0) ** d
    for arr in (pj, pall):
        arr.setflags(write=False)
    return pj, pall


def tangency_polynomial(q, p, ell: Ellipsoid) -> np.ndarray:
    """Coefficients (highest degree first) of T(t) = prod_i (lambda_i - t).

    T is the tangency discriminant of the line q + <p> against the
    confocal family, cleared of its poles at the axes; its roots are the
    caustic parameters.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    pj, pall = _axis_cofactor_polys(ell.axes)
    A = (p * p) @ pj
    B = 2.0 * (q * p) @ pj
    C = np.concatenate([[0.0], (q * q) @ pj]) - pall
    g = np.polymul(B, B) / 4.0
    ac = np.polymul(A, C)
    top = np.zeros(max(len(g), len(ac)))
    top[-len(g):] += g
    top[-len(ac):] -= ac
    # long division by P, numpy.polydiv's loop without its trimming of the
    # remainder's leading near-zeros (all below the threshold checked here)
    n = len(pall) - 1
    t_poly = np.zeros(max(len(top) - n, 1))
    rem = top.copy()
    scale = 1.0 / pall[0]
    for k in range(len(top) - n):
        t_poly[k] = scale * rem[k]
        rem[k:k + n + 1] -= t_poly[k] * pall
    # remainder is zero in exact arithmetic; keep it as a sanity residual
    if np.max(np.abs(rem)) > 1e-6 * max(1.0, np.max(np.abs(top))):
        raise SingularLine("tangency discriminant does not factor; degenerate line")
    return t_poly


def line_tangency_residual(q, p, lam_value: float, ell: Ellipsoid) -> float:
    """Minimized value over t of <D_lam (q + t p), q + t p> - 1."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    d = ell.a - lam_value
    alpha = float(p @ (p / d))
    beta = float(q @ (p / d))
    gamma = float(q @ (q / d) - 1.0)
    if alpha == 0.0:
        return abs(gamma) if beta == 0.0 else 0.0
    return abs(gamma - beta * beta / alpha)


def caustic_params_of_line(q, p, ell: Ellipsoid, *, tol: float = 1e-12) -> CausticParams:
    """Caustic parameters of the line through q with direction p.

    The n roots of the cleared tangency discriminant are found via its
    companion matrix and polished with Newton steps.  Invariant under
    replacing (q, p) by any other point/direction of the same line.
    """
    t_poly = tangency_polynomial(q, p, ell)
    roots = np.roots(t_poly)
    scale = ell.axes[-1]
    if np.any(np.abs(roots.imag) > 1e-7 * scale):
        raise SingularLine(f"complex tangency roots {roots}")
    lams = np.sort(roots.real)
    dpoly = np.polyder(t_poly)
    for i, v in enumerate(lams):
        for _ in range(12):
            fv = np.polyval(t_poly, v)
            dv = np.polyval(dpoly, v)
            if dv == 0.0:
                break
            step = fv / dv
            v -= step
            if abs(step) < 1e-16 * scale:
                break
        lams[i] = v
    if lams[0] < tol * scale:
        raise NonTransverse(f"line misses or grazes the ellipsoid (lambda_1 = {lams[0]})")
    return CausticParams.from_values(lams, ell, tol=tol)


# --------------------------------------------------------------------------
# Tangent directions from a surface point
# --------------------------------------------------------------------------

def tangent_directions(q, lam: CausticParams, ell: Ellipsoid) -> list[np.ndarray]:
    """Outward unit directions at q in Q tangent to every caustic of lam.

    Closed form (Jacobi/Chasles; Moser 1980, "Geometry of quadrics and
    spectral theory"): at a point with elliptic coordinates mu, a line
    tangent to the caustics lam has, in the orthonormal frame
    ``e_i ~ grad mu_i``, the components

        p_i^2 = prod_k (mu_i - lam_k) / prod_{j != i} (mu_i - mu_j).

    e_0 is the outward normal, so p_0 > 0; the other n signs are free,
    giving up to 2^n lines (two in 2D, four in 3D).  Where mu_i equals an
    axis a_j (q on the hyperplane x_j = 0), e_i is the unit vector of axis
    j.  Empty when some p_i^2 < 0, that is when q lies outside the band of
    the surface reached by trajectories with these caustics, or when q
    sits next to a focal conic.
    """
    q = np.asarray(q, dtype=float)
    mu, ok = elliptic_coords(q[None], ell)
    mu = mu[0]
    if not ok[0]:
        return []
    gaps = mu[:, None] - mu
    np.fill_diagonal(gaps, 1.0)
    p2 = np.prod(mu[:, None] - np.array(lam.lambdas), axis=1) / np.prod(gaps, axis=1)
    if np.any(p2 < 0.0):
        return []
    axis = mu[:, None] == ell.a
    with np.errstate(divide="ignore", invalid="ignore"):
        frame = np.where(axis.any(axis=1)[:, None], axis, q / (ell.a - mu[:, None]))
    frame /= np.linalg.norm(frame, axis=1)[:, None]
    signs = np.array([(1.0,) + s for s in product((1.0, -1.0), repeat=ell.n)])
    out = []
    nq = ell.normal(q)
    for p in (signs * np.sqrt(p2)) @ frame:
        p = p / np.linalg.norm(p)
        w = float(nq @ p)
        if abs(w) < 1e-10:
            continue
        p = p if w > 0 else -p
        if not any(np.linalg.norm(p - o) < 1e-8 for o in out):
            out.append(p)
    return out
