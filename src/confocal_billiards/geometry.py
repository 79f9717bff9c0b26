"""Ellipsoid geometry, confocal quadrics, and Jacobi elliptic coordinates.

The ellipsoid is ``<Dq, q> = 1`` with ``D = diag(1/a_1, ..., 1/a_{n+1})``
and strictly increasing squared semiaxes ``a_1 < ... < a_{n+1}``.  Its
confocal family is ``Q_mu = {q : <D_mu q, q> = 1}`` with
``D_mu = diag(1/(a_j - mu))``.  Every generic point has n+1 elliptic
coordinates (the mu for which it lies on Q_mu) and every generic line is
tangent to exactly n nonsingular members of the family, its caustic
parameters.

Conventions: coordinate j pairs with axis a_j, so in 2D the first
coordinate runs along the *short* axis.  Caustic types come from the
interleaving rule of ``caustic_type``: "E"/"H" for n=1,
"EH1"/"H1H1"/"EH2"/"H1H2" for n=2, "EH1H2"/"H1H1H2"/... for n=3, named
after the quadric kind of each caustic.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import product

import numpy as np

from .errors import (
    NegativeRadicand,
    NonGenericPoint,
    NonTransverse,
    SingularLine,
    UnsupportedDimension,
)


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


@dataclass(frozen=True)
class CausticType:
    """One component of the nonsingular caustic space (see ``caustic_type``).

    ``lows[i]`` indexes the lower bound of lambda_{i+1} in (0, a_1, ...,
    a_{n+1}); ``kinds`` are the cuboid's breakpoints, ascending: "0",
    "A<j>" a squared semiaxis, "L<i>" a caustic parameter (1-based).
    """

    name: str
    lows: tuple[int, ...]
    kinds: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.lows)

    @cached_property
    def intervals(self) -> tuple[tuple[str, str], ...]:
        """(low, high) breakpoint kinds of each oscillation interval."""
        return tuple(zip(self.kinds[0::2], self.kinds[1::2]))


def _type_name(above) -> str:
    """E below a_1, H<j> between a_j and a_{j+1}; the index dropped for n = 1."""
    name = "".join(f"H{i + b}" if i + b else "E" for i, b in enumerate(above))
    return name if len(above) > 1 else name.rstrip("1")


@cache
def caustic_type(ctype: str) -> CausticType:
    """The component named ctype, from the interleaving rule (ValueError if none).

    lambda_i lies below or above a_i, inside (a_{i-1}, a_{i+1}) with
    a_0 = 0, so n caustics give 2^n types.
    """
    tokens = re.findall(r"E|H\d*", ctype)
    above = [tok in ("H", f"H{i + 1}") for i, tok in enumerate(tokens)]
    if not tokens or _type_name(above) != ctype:
        raise ValueError(f"unknown caustic type {ctype!r}")
    lows = tuple(i + b for i, b in enumerate(above))
    kinds = ["0"]
    for j in range(len(lows) + 1):
        kinds += [f"L{i + 1}" for i, lo in enumerate(lows) if lo == j] + [f"A{j + 1}"]
    return CausticType(ctype, lows, tuple(kinds))


@cache
def caustic_types(n: int) -> tuple[str, ...]:
    """The 2^n types of n caustics; bit i of the index puts lambda_{i+1} above a_{i+1}."""
    if n < 1:
        raise UnsupportedDimension("need n >= 1")
    return tuple(_type_name([k >> i & 1 for i in range(n)]) for k in range(2 ** n))


def caustic_type_of(lambdas, ell: Ellipsoid) -> str:
    """Classify which component of the nonsingular caustic space lam is in."""
    lams = tuple(float(v) for v in lambdas)
    if len(lams) != ell.n:
        raise ValueError(f"expected {ell.n} caustic parameters, got {len(lams)}")
    return _type_name([not v < a for v, a in zip(lams, ell.axes)])


def caustic_component_bounds(ctype: str, ell: Ellipsoid) -> tuple[tuple[float, float], ...]:
    """Open interval (lo, hi) for each caustic parameter of the component.

    Where two intervals coincide (H1H1) the extra ordering constraint
    ``lambda_i < lambda_{i+1}`` applies.
    """
    t = caustic_type(ctype)
    if ell.n != t.n:
        raise ValueError(f"caustic type {ctype!r} incompatible with n={ell.n}")
    a = (0.0,) + ell.axes
    return tuple((a[lo], a[lo + 1]) for lo in t.lows)


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
        for broken, (exc, why) in zip(_caustic_faults(lams, ell, tol), _CAUSTIC_RULES):
            if broken:
                raise exc(f"{why}: {lams}")
        return cls(lams, caustic_type_of(lams, ell))


#: What caustic parameters must be, in the order they are checked: one
#: (exception, message) per flag of ``_caustic_faults``.
_CAUSTIC_RULES = (
    (SingularLine, "caustic parameters not strictly increasing"),
    (NonTransverse, "lambda_1 not positive"),
    (SingularLine, "a caustic parameter collides with an axis"),
    (SingularLine, "a caustic parameter outside its interleaving interval"),
)


def _caustic_faults(lams, ell: Ellipsoid, tol: float) -> tuple:
    """Which of ``_CAUSTIC_RULES`` the caustic parameters lams break.

    lams holds lambda_1, ..., lambda_n, each a float or an array over
    many rows (a transposed (N, n) array), and the flags are bools or
    bool arrays to match.  lambda_i must lie in (a_{i-1}, a_{i+1}),
    a_0 = 0; a NaN breaks that rule.
    """
    eps = tol * ell.axes[-1]
    a = (0.0,) + ell.axes
    return (_any(b <= c for c, b in zip(lams, lams[1:])),
            lams[0] <= eps,
            _any(abs(v - aj) < eps for v in lams for aj in ell.axes),
            _any(((lo < v) & (v < hi)) ^ True for v, lo, hi in zip(lams, a, a[2:])))


def _any(flags):
    return reduce(operator.or_, flags, False)


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
    A coordinate that is 0 comes out as +0.0 whatever its sign.  Raises
    NegativeRadicand when the interleaving inequalities are violated
    beyond ``tol`` (relative to a_max).
    """
    if np.shape(mu) != (ell.dim,):
        raise ValueError(f"expected {ell.dim} elliptic coordinates")
    a = ell.axes
    m = [float(v) for v in mu]
    s = [1.0] * ell.dim if signs is None else [-1.0 if v < 0.0 else 1.0 for v in signs]
    x = []
    for j, aj in enumerate(a):
        x2 = math.prod(aj - v for v in m) / math.prod(aj - ai for ai in a if ai != aj)
        if x2 < -tol * a[-1]:
            raise NegativeRadicand(f"x_{j + 1}^2 = {x2} < 0; corrupted elliptic point")
        x.append(s[j] * math.sqrt(x2) if x2 > 0.0 else 0.0)
    return np.array(x)


# --------------------------------------------------------------------------
# Caustic parameters of a line
# --------------------------------------------------------------------------

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


def caustic_params_of_lines(Q, Pdir, ell: Ellipsoid, *, tol: float = 1e-12) -> np.ndarray:
    """Caustic parameters of a stack of lines q + t p, (lambda[N, n] ascending).

    With U an orthonormal basis of the plane p^perp, the line is tangent
    to Q_lambda exactly when the secular equation
    ``y^T (U^T diag(a) U - lambda)^{-1} y = 1`` holds for y = U^T q (the
    rank-one update of ``elliptic_coords`` on the line's projection along
    p; Chasles, see Moser 1980; Golub 1973), so its n roots are the
    eigenvalues of ``U^T (diag(a) - q q^T) U``, one batched ``eigvalsh``
    call for every row.  U is the Householder reflection sending p to
    +-e_d without its last column, so no spurious zero eigenvalue sits
    next to a small lambda_1.  Invariant under replacing (q, p) by any
    other point/direction of the same line.

    Raises what ``caustic_params_of_line`` raises for the first row that
    is not a regular line: NonTransverse when lambda_1 < tol * a_max,
    SingularLine when two parameters coincide, one meets an axis (the
    line lies in a coordinate hyperplane) or one leaves its interleaving
    interval.
    """
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(Pdir, dtype=float)
    P = P / np.linalg.norm(P, axis=1)[:, None]
    d = ell.dim
    v = P.copy()
    v[:, -1] += np.where(P[:, -1] < 0.0, -1.0, 1.0)
    U = np.eye(d)[:, :-1] - (2.0 / np.einsum("kj,kj->k", v, v))[:, None, None] \
        * v[:, :, None] * v[:, None, :-1]
    y = np.einsum("kji,kj->ki", U, Q)
    lams = np.linalg.eigvalsh(np.einsum("kji,j,kjl->kil", U, ell.a, U) - y[:, :, None] * y[:, None, :])
    for row in lams[_any(_caustic_faults(lams.T, ell, tol))]:
        _checked_caustic_params(row, ell, tol)      # raises for this row
    return lams


def _checked_caustic_params(lams, ell: Ellipsoid, tol: float) -> CausticParams:
    if lams[0] < tol * ell.axes[-1]:
        raise NonTransverse(f"line misses or grazes the ellipsoid (lambda_1 = {lams[0]})")
    return CausticParams.from_values(lams, ell, tol=tol)


def caustic_params_of_line(q, p, ell: Ellipsoid, *, tol: float = 1e-12) -> CausticParams:
    """Caustic parameters of the line through q with direction p.

    ``caustic_params_of_lines`` on a stack of one line.
    """
    lams = caustic_params_of_lines(np.asarray(q, dtype=float)[None],
                                   np.asarray(p, dtype=float)[None], ell, tol=tol)
    return _checked_caustic_params(lams[0], ell, tol)


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
