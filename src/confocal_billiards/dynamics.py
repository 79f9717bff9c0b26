"""The billiard map, its symmetries and reversors, and the dual map.

Phase points are (q, p) with q an impact point on the ellipsoid and p the
unit velocity directed outward at q.  The map and all involutions are
closed-form:

    f(q, p)  = (q', p'),  p' = p + nu(q, p) Dq,   q' = q + mu(q, p') p'
    r~(q, p) = (q, -p - nu(q, p) Dq)              (velocity reversal)
    r^(q, p) = (q + mu(q, p) p, -p)               (previous impact)
    g(q, p)  = (C p', -C^{-1} q),  C = D^{-1/2}   (positions <-> velocities)

with nu = -2<Dq,p>/<Dq,Dq> and mu = -2<Dq,v>/<Dv,v>.  Composing r~ or r^
with a coordinate reflection sigma gives the 2^{n+2} reversors; g squares
to -f and exchanges tilde fixed sets with hat fixed sets of the opposite
reflection.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DegenerateImpact
from .geometry import Ellipsoid

_TANGENT_TOL = 1e-13
#: Surface and unit-speed residuals the bounce kernel leaves uncorrected.
_SURFACE_EPS = 4.0 * 2.0 ** -52


@dataclass(frozen=True)
class PhasePoint:
    """Impact point q on the ellipsoid plus outward unit velocity p."""

    q: tuple[float, ...]
    p: tuple[float, ...]

    @property
    def q_arr(self) -> np.ndarray:
        return np.array(self.q)

    @property
    def p_arr(self) -> np.ndarray:
        return np.array(self.p)


@dataclass(frozen=True)
class Reflection:
    """Diagonal reflection sigma = diag(signs), signs in {-1, +1}."""

    signs: tuple[int, ...]

    def __post_init__(self):
        signs = tuple(1 if s > 0 else -1 for s in self.signs)
        object.__setattr__(self, "signs", signs)

    @classmethod
    def identity(cls, dim: int) -> "Reflection":
        return cls((1,) * dim)

    @classmethod
    def central(cls, dim: int) -> "Reflection":
        return cls((-1,) * dim)

    @classmethod
    def flipping(cls, flipped, dim: int) -> "Reflection":
        return cls(tuple(-1 if j in set(flipped) else 1 for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.signs)

    @property
    def flipped(self) -> tuple[int, ...]:
        """0-based indices of the coordinates the reflection negates."""
        return tuple(j for j, s in enumerate(self.signs) if s < 0)

    @property
    def arr(self) -> np.ndarray:
        return np.array(self.signs, dtype=float)

    def __neg__(self) -> "Reflection":
        return Reflection(tuple(-s for s in self.signs))

    def apply(self, v) -> np.ndarray:
        return self.arr * np.asarray(v, dtype=float)


def all_reflections(dim: int) -> list[Reflection]:
    return [Reflection(s) for s in product((1, -1), repeat=dim)]


_2D_NAMES = {(): "", (1,): "x", (0,): "y", (0, 1): "xy"}


@dataclass(frozen=True)
class Reversor:
    """One of the involutions factoring the billiard map.

    family "tilde" reverses the velocity at the same impact point, then
    reflects by sigma; family "hat" jumps to the previous impact, negates
    the velocity, then reflects.  hat(sigma) = f o tilde(sigma).
    """

    family: str
    sigma: Reflection

    def __post_init__(self):
        if self.family not in ("tilde", "hat"):
            raise ValueError(f"unknown reversor family {self.family!r}")

    @property
    def is_empty_set(self) -> bool:
        """True for the two reversors whose fixed set is empty."""
        flips = len(self.sigma.flipped)
        if self.family == "tilde":
            return flips == self.sigma.dim
        return flips == 0

    @property
    def _flips(self) -> str:
        """The flipped axes: 1-based digits, or in 2D 'x', 'y', 'xy'."""
        flipped = self.sigma.flipped
        return _2D_NAMES[flipped] if self.sigma.dim == 2 else "".join(str(j + 1) for j in flipped)

    @property
    def label(self) -> str:
        """Display name, e.g. 'R_2', 'f.R_13' (2D: 'R_x', 'f.R_xy')."""
        flips = self._flips
        base = "R_" + flips if flips else "R"
        return base if self.family == "tilde" else "f." + base

    @property
    def key(self) -> str:
        """Compact ASCII identifier, e.g. 'R2', 'fR13', 'Rx', 'fRxy'."""
        return ("R" if self.family == "tilde" else "fR") + self._flips


def reversor_from_key(key: str, dim: int) -> Reversor:
    for fam in ("tilde", "hat"):
        for sigma in all_reflections(dim):
            r = Reversor(fam, sigma)
            if r.key == key:
                return r
    raise ValueError(f"unknown reversor key {key!r} for dim {dim}")


def all_reversors(dim: int) -> list[Reversor]:
    """All 2^{dim+1} reversors, the two with empty fixed sets included."""
    out = []
    for fam in ("tilde", "hat"):
        out.extend(Reversor(fam, s) for s in all_reflections(dim))
    return out


def nonempty_reversors(dim: int) -> list[Reversor]:
    return [r for r in all_reversors(dim) if not r.is_empty_set]


# --------------------------------------------------------------------------
# Maps (array-level kernels plus PhasePoint wrappers)
# --------------------------------------------------------------------------

#: The bounce loop, one template for every dimension.  ``#`` stands for a
#: coordinate index: a statement holding it is repeated for each
#: coordinate, ``{+ e}`` is the sum of e over the coordinates, left to
#: right as numpy sums a row, and ``{, e}`` is their tuple.  ``G = Q/A``
#: is computed once per impact and serves the next bounce's reflection.
_BOUNCE_LOOP = """
def loop(q, p, a, steps, qapp, papp):
    A# = a[#]
    Q# = q[#]
    P# = p[#]
    G# = Q# / A#
    for _ in range(steps):
        gp = {+ G# * P#}
        if -tol < gp < tol:
            q = {, Q#}
            raise DegenerateImpact(f"tangential impact at {q}")
        nu = -2.0 * gp / {+ G# * G#}
        P# = P# + nu * G#
        mu = -2.0 * {+ G# * P#} / {+ P# * (P# / A#)}
        Q# = Q# + mu * P#
        G# = Q# / A#
        c0 = {+ Q# * G#} - 1.0
        if not -eps < c0 < eps:
            c2 = {+ G# * (G# / A#)}
            c1 = 2.0 * {+ G# * G#}
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc < 0.0:
                disc = 0.0
            t = 2.0 * c0 / (c1 + sqrt(disc))
            Q# = Q# - t * G#
            G# = Q# / A#
        s = {+ P# * P#}
        if not -eps < s - 1.0 < eps:
            s = sqrt(s)
            P# = P# / s
        qapp(Q#)
        papp(P#)
"""


@lru_cache(maxsize=None)
def _bounce_loop(d: int, velocities: bool = True):
    """``_BOUNCE_LOOP`` written out for dimension d and compiled, once per d.

    Without ``velocities`` the velocity appends are left out.
    """
    def each(text: str, sep: str) -> str:
        return sep.join(text.replace("#", str(j)) for j in range(d))

    lines = []
    for line in _BOUNCE_LOOP.splitlines():
        if not velocities and line.lstrip().startswith("papp("):
            continue
        line = re.sub(r"\{([+,]) (.*?)\}", lambda m: (
            f"({each(m[2], ' + ')})" if m[1] == "+" else each(m[2], ", ")), line)
        if "#" in line:
            body = line.lstrip()
            line = line[:len(line) - len(body)] + each(body, "; ")
        lines.append(line)
    namespace = {"sqrt": math.sqrt, "tol": _TANGENT_TOL, "eps": _SURFACE_EPS,
                 "DegenerateImpact": DegenerateImpact}
    exec(compile("\n".join(lines), f"<bounce loop, d={d}>", "exec"), namespace)
    return namespace["loop"]


def _start(q, p, a, steps: int) -> tuple[array, array]:
    """Validated start row: ``array("d")`` copies of q and p."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    qbuf, pbuf = array("d", q), array("d", p)
    d = len(a)
    if len(qbuf) != d or len(pbuf) != d:
        raise ValueError(f"q and p must have {d} coordinates")
    if not all(map(math.isfinite, qbuf + pbuf)):
        raise ValueError(f"non-finite start q={tuple(qbuf)}, p={tuple(pbuf)}")
    return qbuf, pbuf


def _orbit(q, p, a, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Impacts and velocities of ``steps`` bounces from (q, p), rows 0..steps.

    The one bounce kernel.  Each bounce raises DegenerateImpact on a
    tangential impact and corrects drift: an impact whose residual
    ``c0 = <q, Dq> - 1`` lies outside +-_SURFACE_EPS is shifted along Dq
    back onto the surface (the root of ``<D(q - t Dq), q - t Dq> = 1``
    nearest 0), and a velocity whose ``|p|^2 - 1`` lies outside
    +-_SURFACE_EPS is renormalized; the advance keeps ``<q, Dq>`` to
    rounding, so most bounces need neither.  The loop runs on Python
    floats with every coordinate in its own local: at d <= 4, numpy's
    per-call overhead and even a Python loop over the coordinates cost
    more than the arithmetic.  A bounce appends its coordinates to two
    flat ``array("d")`` buffers seeded with the start row, and calls
    nothing but ``sqrt`` and those appends.  The results are writable,
    C-ordered float64 views of shape (steps + 1, d) on the buffers, with
    no copy.  Negative ``steps``, a start of the wrong length and a
    non-finite start raise ValueError.
    """
    qbuf, pbuf = _start(q, p, a, steps)
    _bounce_loop(len(a))(qbuf.tolist(), pbuf.tolist(), [float(v) for v in a], steps,
                         qbuf.append, pbuf.append)
    return np.frombuffer(qbuf).reshape(-1, len(a)), np.frombuffer(pbuf).reshape(-1, len(a))


def _impacts(q, p, a, steps: int) -> np.ndarray:
    """The impacts of ``_orbit``, bit for bit, from a loop that keeps no velocities."""
    qbuf, pbuf = _start(q, p, a, steps)
    _bounce_loop(len(a), False)(qbuf.tolist(), pbuf.tolist(), [float(v) for v in a], steps,
                                qbuf.append, None)
    return np.frombuffer(qbuf).reshape(-1, len(a))


def billiard_map(m: PhasePoint, ell: Ellipsoid) -> PhasePoint:
    """One bounce: reflect the velocity, advance to the next impact."""
    qs, ps = _orbit(m.q, m.p, ell.a, 1)
    return PhasePoint(tuple(qs[1]), tuple(ps[1]))


def billiard_map_inverse(m: PhasePoint, ell: Ellipsoid) -> PhasePoint:
    """Inverse bounce, computed as r~ o f o r~."""
    r = Reversor("tilde", Reflection.identity(ell.dim))
    return apply_reversor(r, billiard_map(apply_reversor(r, m, ell), ell), ell)


def apply_symmetry(s: Reflection, m: PhasePoint) -> PhasePoint:
    return PhasePoint(tuple(s.apply(m.q_arr)), tuple(s.apply(m.p_arr)))


def apply_reversor(r: Reversor, m: PhasePoint, ell: Ellipsoid) -> PhasePoint:
    q, p = m.q_arr, m.p_arr
    a = ell.a
    g = q / a
    if r.family == "tilde":
        nu = -2.0 * float(g @ p) / float(g @ g)
        q2, p2 = q, -p - nu * g
    else:
        mu = -2.0 * float(g @ p) / float(p @ (p / a))
        q2, p2 = q + mu * p, -p
    sig = r.sigma.arr
    return PhasePoint(tuple(sig * q2), tuple(sig * p2))


def dual_map(m: PhasePoint, ell: Ellipsoid) -> PhasePoint:
    """The square root of -f; exchanges the roles of positions and velocities."""
    q, p = m.q_arr, m.p_arr
    a = ell.a
    c = np.sqrt(a)
    g = q / a
    nu = -2.0 * float(g @ p) / float(g @ g)
    p1 = p + nu * g
    return PhasePoint(tuple(c * p1), tuple(-q / c))


def iterate_orbit(m: PhasePoint, ell: Ellipsoid, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Impact and velocity sequences of f^0(m), ..., f^steps(m), drift-corrected by ``_orbit``."""
    return _orbit(m.q, m.p, ell.a, steps)
