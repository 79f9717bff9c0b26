"""Rotation number, frequency map, empirical winding rates, and inversion.

Trajectories sharing caustics lam are periodic exactly when the
frequencies are rational with the winding numbers as numerators:

    omega(lam) = (m_1, ..., m_n) / 2 m_0      (for n = 1 the rotation number rho)

for every n >= 1.  It is built from period integrals J_k(i) of
s^k / sqrt(P(s)) over the oscillation intervals I_i, where P(s) is the
degree-(2n+1) polynomial with the axes and caustic parameters as roots.
Along any chord the elliptic coordinates obey the Abel-sum identities

    sum_i (-1)^i eps_i mu_i^k dmu_i / sqrt(P(mu_i)) = 0,   k < n,

so integrating over one period ties the winding numbers to the J_k(i)
by an n x n linear system; that system *defines* omega here.  The
binding correctness contract is agreement with the empirical estimator,
which counts actual turning points of the elliptic coordinates along a
numerically iterated orbit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .dynamics import PhasePoint, _impacts
from .errors import (
    NoSolutionInComponent,
    QuadratureNotConverged,
    SingularCaustic,
    UnsupportedDimension,
)
from .geometry import (
    _SINGULAR_TOL,
    CausticParams,
    Ellipsoid,
    cartesian_to_elliptic,
    caustic_component_bounds,
    caustic_type,
    cuboid,
    elliptic_coords,
    elliptic_to_cartesian,
    tangent_directions,
)
from .quadrature import _BASE_LEVEL, period_integrals
from .symmetry import all_vertexes, reversor_of_vertex, seed_point_at_vertex

_TOL_ENV = "CONFOCAL_QUAD_TOL"
#: Share of a chord by which ``count_turning_events`` shifts its window back.
_EDGE_FRAC = 1e-6


def _quad_tol(tol: float | None) -> float:
    if tol is not None:
        return tol
    raw = os.environ.get(_TOL_ENV, "1e-12")
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ValueError(f"{_TOL_ENV}={raw!r}: need a finite number > 0")
    return value


@dataclass(frozen=True)
class WindingNumbers:
    """Oscillation counts (m_0, ..., m_n); m_0 is the period."""

    m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        if any(v < 1 for v in self.m):
            raise ValueError("winding numbers must be positive")

    @property
    def period(self) -> int:
        return self.m[0]

    @property
    def kind(self) -> tuple[str, ...]:
        """Per-entry parity tag: o = odd, t = twice odd, f = multiple of 4."""
        return tuple("o" if v % 2 else ("t" if v % 4 else "f") for v in self.m)

    @property
    def monotone(self) -> bool:
        """The (checked, unproven) ordering 2 <= m_n < ... < m_1 < m_0."""
        return self.m[-1] >= 2 and all(b < a for a, b in zip(self.m, self.m[1:]))

    def target(self) -> tuple[float, ...]:
        """The rational frequency vector (m_1, ..., m_n) / 2 m_0."""
        return tuple(v / (2.0 * self.m[0]) for v in self.m[1:])


def even_required(ctype: str) -> tuple[bool, ...]:
    """Which winding numbers are forced even for this caustic type.

    m_i must be even whenever the interval I_i has a squared semiaxis as
    an endpoint (those touches are hyperplane crossings, which pair up);
    this depends only on the caustic type.
    """
    return tuple("A" in (lo[0], hi[0]) for lo, hi in caustic_type(ctype).intervals)


def parity_violations(w: WindingNumbers, ctype: str) -> list[str]:
    """Empty when w satisfies the evenness and not-all-multiples-of-4 rules."""
    out = []
    for i, need_even in enumerate(even_required(ctype)):
        if need_even and w.m[i] % 2:
            out.append(f"m_{i} = {w.m[i]} must be even for type {ctype}")
    if all(v % 4 == 0 for v in w.m):
        out.append("winding numbers cannot all be multiples of four")
    return out


@dataclass(frozen=True)
class FrequencyValue:
    """Frequency vector (length n) plus a quadrature/counting error estimate."""

    omega: tuple[float, ...]
    error: float


# --------------------------------------------------------------------------
# Quadrature route
# --------------------------------------------------------------------------

def _check_nonsingular(lams: np.ndarray, ell: Ellipsoid):
    """Raise SingularCaustic if any row of lams (N, n) is near 0, an axis or its neighbour.

    Near means within ``_SINGULAR_TOL * a_max``.
    """
    eps = _SINGULAR_TOL * ell.axes[-1]
    sing = np.array((0.0,) + ell.axes)
    near = np.min(np.abs(lams[:, :, None] - sing), axis=2) < eps
    if np.any(near):
        raise SingularCaustic(
            f"caustic parameter {lams[near][0]} within {_SINGULAR_TOL} of a singular value")
    if ell.n > 1 and np.any(lams[:, 1:] - lams[:, :-1] < eps):
        raise SingularCaustic("coinciding caustic parameters")


def _omega_rows(lams, ell: Ellipsoid, tol: float,
                max_level: int = 9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequencies of many caustic parameter rows, (omega[N, n], err[N], converged[N]).

    All n+1 intervals of every row go into one ``period_integrals`` call,
    interval by interval (I_0 of every row, then I_1, ...), so that the
    roots below an interval are the same along each run of N rows; then,
    with J_k(I_i) the integral of s^k/sqrt(P) over interval I_i, each row
    solves  sum_{i=1..n} (-1)^(i+1) J_k(I_i) omega_i = J_k(I_0)/2  for k < n.
    ``max_level`` goes to ``period_integrals``.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1, ell.n)
    _check_nonsingular(lams, ell)
    N, n1 = len(lams), ell.dim
    roots = np.sort(np.concatenate([np.broadcast_to(ell.a, (N, n1)), lams], axis=1), axis=1)
    breaks = np.concatenate([np.zeros((N, 1)), roots], axis=1)
    vals, err, ok = period_integrals(breaks[:, 0::2].T.ravel(), breaks[:, 1::2].T.ravel(),
                                     np.tile(roots, (n1, 1)), range(ell.n), tol=tol,
                                     max_level=max_level)
    J = vals.reshape(n1, N, ell.n).swapaxes(0, 1)   # J[row, interval, power]
    signs = np.where(np.arange(1, n1) % 2, 1.0, -1.0)
    mat = np.swapaxes(J[:, 1:, :], 1, 2) * signs    # mat[row, k, i]
    omega = np.linalg.solve(mat, 0.5 * J[:, 0, :, None])[..., 0]
    return (omega, np.maximum(err.reshape(n1, N).max(axis=0), tol),
            ok.reshape(n1, N).all(axis=0))


def _converged_omega(lams, ell: Ellipsoid, tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """``_omega_rows`` that raises QuadratureNotConverged for any unconverged row."""
    lams = np.asarray(lams, dtype=float).reshape(-1, ell.n)
    omega, err, ok = _omega_rows(lams, ell, _quad_tol(tol))
    if not ok.all():
        bad = int(np.argmin(ok))
        raise QuadratureNotConverged(
            f"period integrals for caustic parameters {tuple(lams[bad].tolist())} on "
            f"{ell.axes} missed the tolerance (change {err[bad]:.3e} at the finest level)")
    return omega, err


def frequencies(lam: CausticParams, ell: Ellipsoid, tol: float | None = None) -> FrequencyValue:
    """omega(lam) for any n from the n x n period-integral system."""
    omega, err = _converged_omega([lam.lambdas], ell, tol)
    return FrequencyValue(tuple(float(v) for v in omega[0]), float(err[0]))


def rotation_number(lam: CausticParams, ell: Ellipsoid, tol: float | None = None) -> FrequencyValue:
    """rho(lam) for n = 1: half the ratio of the two period integrals."""
    if ell.n != 1:
        raise UnsupportedDimension("rotation number is the n=1 frequency")
    return frequencies(lam, ell, tol)


def frequency_map(lam: CausticParams, ell: Ellipsoid, tol: float | None = None) -> FrequencyValue:
    """omega(lam) for n = 2 from the 2x2 period-integral system."""
    if ell.n != 2:
        raise UnsupportedDimension("frequency map implemented for n=2")
    return frequencies(lam, ell, tol)


# --------------------------------------------------------------------------
# Empirical route (turning-point counting along iterated orbits)
# --------------------------------------------------------------------------

def count_turning_events(impacts: np.ndarray, lam: CausticParams, ell: Ellipsoid, *,
                         closed: bool = False) -> tuple[np.ndarray, dict[str, int]]:
    """Turning points of each elliptic coordinate along the chord sequence.

    Counts, per oscillation interval, the touches of its endpoints: an
    impact for the 0 face, a tangency parameter for caustic values, a
    hyperplane crossing for axis values.  Each chord counts events with
    parameter in [-e T, (1-e) T), e = _EDGE_FRAC: consecutive chords share
    endpoints exactly, so these windows tile the orbit and events sitting
    at a chord boundary (vertex seeds) are counted exactly once even
    under roundoff.  ``closed`` snaps the last impact onto the first.

    Returns the counts per interval and the same events itemized by
    breakpoint, in ascending order: ``face_0`` (impacts), ``caustic_i``
    (tangencies with the caustic lambda_i) and ``plane_j`` (crossings of
    x_j = 0).
    """
    a = ell.a
    if closed:
        impacts = impacts.copy()
        impacts[-1] = impacts[0]
    q0 = impacts[:-1]
    d = impacts[1:] - q0
    T = np.linalg.norm(d, axis=1)
    d = d / T[:, None]
    counts = np.zeros(ell.dim, dtype=np.int64)
    counts[0] = len(q0)             # one impact per chord
    events = {"face_0": len(q0)}
    for i, interval in enumerate(cuboid(lam, ell).intervals):
        for v in interval:
            if v == 0.0:
                continue
            dv = a - v
            if v in lam.lambdas:
                # Chords asymptotic to the caustic quadric have A = 0 and no
                # touch on the segment; there |A| is pure cancellation noise,
                # so the guard must be relative to the term magnitudes.
                A = np.einsum("j,kj,kj->k", 1.0 / dv, d, d)
                A_abs = np.einsum("j,kj,kj->k", 1.0 / np.abs(dv), d, d)
                B = np.einsum("j,kj,kj->k", 1.0 / dv, q0, d)
                with np.errstate(divide="ignore", invalid="ignore"):
                    tstar = np.where(np.abs(A) > 1e-9 * A_abs, -B / A, np.inf)
                key = f"caustic_{lam.lambdas.index(v) + 1}"
            else:
                j = int(np.argmin(np.abs(dv)))
                with np.errstate(divide="ignore", invalid="ignore"):
                    tstar = np.where(np.abs(d[:, j]) > 1e-12, -q0[:, j] / d[:, j], np.inf)
                key = f"plane_{j + 1}"
            events[key] = int(np.count_nonzero(
                (tstar >= -_EDGE_FRAC * T) & (tstar < (1.0 - _EDGE_FRAC) * T)))
            counts[i] += events[key]
    return counts, events


def count_windings(impacts: np.ndarray, lam: CausticParams, ell: Ellipsoid) -> tuple[int, ...]:
    """Integer winding numbers of a closed impact sequence (first = last)."""
    counts, _ = count_turning_events(impacts, lam, ell, closed=True)
    if np.any(counts % 2):
        raise ValueError(f"odd turning-point counts {counts}; orbit not closed?")
    return tuple(int(c) // 2 for c in counts)


def default_tangent_start(lam: CausticParams, ell: Ellipsoid,
                          rng: np.random.Generator | None = None) -> PhasePoint:
    """Phase point tangent to the caustics: a fixed vertex seed, or a random one.

    With ``rng`` unset, the seed at the tilde vertex of the first reversor
    key.  Otherwise the start is drawn in closed form: elliptic
    coordinates mu_0 = 0 (the surface) and mu_i uniform on the
    oscillation intervals I_i of ``cuboid``, random octant signs, and one
    of the ``tangent_directions`` there, picked at random.  Only the
    caustic values are read, not the type tag.  Raises
    NoSolutionInComponent when that point has no tangent direction.
    """
    if rng is None:
        # the tilde vertex (mask[0] = 0) of the first reversor key, outer
        # tag first: a reversor's vertexes differ only in their tag bits
        v = min((v for v in all_vertexes(ell.dim) if not v.mask[0]),
                key=lambda v: (reversor_of_vertex(v, lam.ctype)[0].key, v.mask))
        return seed_point_at_vertex(v, lam, ell)
    box = cuboid(lam, ell)
    mu = [0.0] + [rng.uniform(lo, hi) for lo, hi in box.intervals[1:]]
    q = elliptic_to_cartesian(mu, ell, rng.choice((-1.0, 1.0), ell.dim))
    dirs = tangent_directions(q, lam, ell)
    if not dirs:
        raise NoSolutionInComponent(f"found no tangent line for {lam}")
    return PhasePoint(tuple(q), tuple(dirs[int(rng.integers(len(dirs)))]))


def sample_elliptic_path(impacts: np.ndarray, ell: Ellipsoid,
                         samples_per_chord: int = 64) -> np.ndarray:
    """Elliptic coordinates sampled along each chord (far endpoints skipped).

    Samples falling inside the focal-conic rejection zone are dropped
    rather than aborting the sweep.
    """
    q0, q1 = impacts[:-1, None, :], impacts[1:, None, :]
    t = (np.arange(samples_per_chord) / samples_per_chord)[:, None]
    mu, ok = elliptic_coords((q0 + t * (q1 - q0)).reshape(-1, ell.dim), ell)
    return mu[ok]


def empirical_frequency_batch(lams, ell: Ellipsoid, bounces: int,
                              starts=None,
                              rng: np.random.Generator | None = None) -> list[FrequencyValue]:
    """Event-counting estimates for many caustic parameters on one ellipsoid.

    Each orbit is iterated by the bounce kernel from its start (a tangent
    start per caustic when ``starts`` is unset), through the kernel's
    impacts-only loop since the events need no velocities, and its
    turning events are counted exactly; the error bound is 2 / bounces.
    """
    lams = list(lams)
    if starts is None:
        starts = [default_tangent_start(lam, ell, rng) for lam in lams]
    out = []
    for lam, start in zip(lams, starts, strict=True):
        impacts = _impacts(start.q, start.p, ell.a, bounces)
        counts, _ = count_turning_events(impacts, lam, ell)
        om = counts[1:] / (2.0 * counts[0])
        out.append(FrequencyValue(tuple(float(v) for v in om), 2.0 / bounces))
    return out


def empirical_frequency(lam: CausticParams, ell: Ellipsoid, bounces: int = 2000) -> FrequencyValue:
    """Event-counting estimate from the orbit of ``default_tangent_start``.

    ``empirical_frequency_batch`` for one caustic from the vertex seed;
    the error decays like O(1/bounces).
    """
    return empirical_frequency_batch([lam], ell, bounces, [default_tangent_start(lam, ell)])[0]


# --------------------------------------------------------------------------
# Inversion
# --------------------------------------------------------------------------

def _edge_clustered_grid(lo: float, hi: float, per_edge: int = 14) -> np.ndarray:
    """Grid on (lo, hi) clustered geometrically toward both endpoints.

    The frequencies vary logarithmically near the singular edges, so the
    scan must resolve offsets spanning many decades.
    """
    width = hi - lo
    offs = width * np.geomspace(1e-7, 0.45, per_edge)
    # the halves are disjoint (lo + 0.45 w < hi - 0.45 w) and each ascends
    return np.concatenate([lo + offs, (hi - offs)[::-1]])


def invert_frequency(target, ctype: str, ell: Ellipsoid,
                     tol_omega: float = 1e-10) -> CausticParams:
    """Caustic parameters in the given component with the given frequencies.

    n = 1: bracketed bisection/secant on rho.  n >= 2: the product of the
    per-axis edge-clustered grids (ordered where two caustics share an
    interval) is ranked by residual, every row at quadrature level 4 and,
    in full, only the rows that within their level-4 error could rank
    among the six best (see ``_scan_norms``); damped finite-difference
    Newton runs from the best point and, when that stalls, from the next
    five in lock-step, each full step in one batch with its Jacobian
    stencil; the first to converge wins.  When all six stall, Newton
    runs once more from the scan's other local minima (``_local_minima``),
    ordered like the starts, in one lock-step batch: there a start that
    meets an unconverged point counts as stalled, the first to converge
    wins, and if none does, NoSolutionInComponent names the six starts'
    best residual.  An inversion that succeeds from the six never reaches
    this rescue.  Iterates stay 1e-9 inside.  The period integrals use
    the tolerance of ``CONFOCAL_QUAD_TOL`` (default 1e-12).

    The grid and its level-4 rows do not depend on the target, so the
    last n >= 2 inversion's are kept, read-only, and reused when the
    next one has the same type, axes and tolerance (``_grid_scan``): a
    sweep of targets on one component pays for that pass once.  Only
    one scan is held, at most about 40 KB for n = 2 and 1.4 MB for
    n = 3; the result is the same bits either way.
    """
    target = tuple(float(t) for t in (target if hasattr(target, "__len__") else (target,)))
    bounds = caustic_component_bounds(ctype, ell)
    if len(target) != len(bounds):
        raise ValueError(f"target length {len(target)} != n = {len(bounds)}")
    if ell.n == 1:
        return _invert_1d(target[0], ctype, ell, tol_omega)
    return _invert_nd(np.array(target), ctype, ell, tol_omega)


def _invert_1d(target: float, ctype: str, ell: Ellipsoid, tol_omega: float) -> CausticParams:
    tol = _quad_tol(None)
    lo, hi = caustic_component_bounds(ctype, ell)[0]
    margin = 1e-9 * ell.axes[-1]
    lo, hi = lo + margin, hi - margin

    def f(x):
        return rotation_number(CausticParams((x,), ctype), ell, tol).omega[0] - target

    grid = _edge_clustered_grid(lo, hi, 17)
    vals = _converged_omega(grid, ell, tol)[0][:, 0] - target
    idx = None
    for k in range(len(grid) - 1):
        if vals[k] == 0.0 or vals[k] * vals[k + 1] < 0.0:
            idx = k
            break
    if idx is None:
        raise NoSolutionInComponent(
            f"rho never reaches {target} on component {ctype} of {ell.axes}")
    a_x, b_x = grid[idx], grid[idx + 1]
    fa, fb = vals[idx], vals[idx + 1]
    x = a_x
    for _ in range(200):
        # secant proposal, bisection safeguard
        x_sec = b_x - fb * (b_x - a_x) / (fb - fa) if fb != fa else 0.5 * (a_x + b_x)
        x = x_sec if (a_x < x_sec < b_x) else 0.5 * (a_x + b_x)
        fx = f(x)
        if abs(fx) <= tol_omega:
            return CausticParams((x,), ctype)
        if fa * fx <= 0.0:
            b_x, fb = x, fx
        else:
            a_x, fa = x, fx
        if b_x - a_x < 1e-16 * ell.axes[-1]:
            break
    raise NoSolutionInComponent(f"bisection stalled at rho residual {fx}")


def _invert_nd(target: np.ndarray, ctype: str, ell: Ellipsoid, tol_omega: float) -> CausticParams:
    tol = _quad_tol(None)
    bounds = np.array(caustic_component_bounds(ctype, ell))
    margin = 1e-9 * ell.axes[-1]
    # caustics i and i+1 in one axis interval (H1H1); by the interleaving
    # rule no third caustic shares it, so these pairs never chain
    shared = np.flatnonzero((bounds[1:] == bounds[:-1]).all(axis=1))
    lo_in, hi_in = bounds[:, 0] + margin, bounds[:, 1] - margin

    def clip(lams):
        lams = np.minimum(np.maximum(lams, lo_in), hi_in)
        for i in shared:
            l1, l2 = lams[..., i], lams[..., i + 1]
            close = l2 - l1 < margin
            if close.any():
                mid = 0.5 * (l1[close] + l2[close])
                l1[close], l2[close] = mid - 0.5 * margin, mid + 0.5 * margin
        return lams

    def resid_rows(lams):
        omega, _, ok = _omega_rows(lams, ell, tol)
        return omega - target, ok

    grid, cells, shape, level4 = _grid_scan(ctype, ell, bounds, shared, margin, tol)
    norms = _scan_norms(grid, target, ell, tol, level4)
    order = np.lexsort((*grid.T[::-1], norms))[:6]      # by norm, then x1, x2, ...
    if not order.size or norms[order[0]] > 0.45:
        raise NoSolutionInComponent(
            f"grid scan found no candidate for omega={tuple(target)} on {ctype}")

    # the best start almost always converges, so the other five run only
    # when it does not; the first to converge wins, as one by one
    best_norm = math.inf
    for batch in (order[:1], order[1:]):
        lams, nrms, stuck = _newton(resid_rows, clip, grid[batch], bounds, tol_omega)
        for lam, nrm, point in zip(lams, nrms, stuck):
            if point is not None:
                _converged_omega(point, ell, tol)       # raises QuadratureNotConverged
            if nrm <= tol_omega:
                return CausticParams(tuple(lam), ctype)
            best_norm = min(best_norm, nrm)

    # every start stalled: Newton from the scan's other local minima, in
    # one lock-step batch, where a start that meets an unconverged point
    # counts as stalled; the first to converge wins
    rescue = _local_minima(norms, cells, shape)
    rescue = rescue[~np.isin(rescue, order)]
    if rescue.size:
        rescue = rescue[np.lexsort((*grid[rescue].T[::-1], norms[rescue]))]
        lams, nrms, _ = _newton(resid_rows, clip, grid[rescue], bounds, tol_omega)
        for lam, nrm in zip(lams, nrms):
            if nrm <= tol_omega:
                return CausticParams(tuple(lam), ctype)
    raise NoSolutionInComponent(
        f"Newton stalled at |omega - target| = {best_norm} for {ctype} on {ell.axes}")


#: The last ``_grid_scan``: ((ctype, axes, tol), grid, cells, shape,
#: (omega, err, final)), or None.  Replaced whole, never changed in place.
_LAST_SCAN = None


def _grid_scan(ctype: str, ell: Ellipsoid, bounds, shared, margin: float, tol: float):
    """The scan grid of a component and its rows at quadrature level 4.

    Returns (grid, cells, shape, (omega, err, final)): the product of the
    per-axis edge-clustered grids as rows, each row's cell in that
    product of the given shape (the ordered filter drops the rows with
    x_{i+1} <= x_i + margin of each shared pair i), and ``_omega_rows``
    of the grid at level ``_BASE_LEVEL + 1``.  None of it depends on the
    target, so the last call's result is kept, read-only, and returned
    again for the same (ctype, axes, tol); a call with another key
    computes it afresh and replaces it.  The name is read once and
    assigned whole, so concurrent callers at worst recompute.
    """
    global _LAST_SCAN
    key = (ctype, ell.axes, tol)
    scan = _LAST_SCAN
    if scan is None or scan[0] != key:
        mesh = np.meshgrid(*(_edge_clustered_grid(lo, hi) for lo, hi in bounds), indexing="ij")
        grid = np.column_stack([x.ravel() for x in mesh])
        cells = np.arange(len(grid))        # each row's cell in the product grid
        for i in shared:
            keep = ~(grid[:, i + 1] <= grid[:, i] + margin)
            grid, cells = grid[keep], cells[keep]
        level4 = _omega_rows(grid, ell, tol, max_level=_BASE_LEVEL + 1)
        for arr in (grid, cells) + level4:
            arr.setflags(write=False)
        scan = (key, grid, cells, mesh[0].shape, level4)
        _LAST_SCAN = scan
    return scan[1:]


def _scan_norms(grid, target, ell: Ellipsoid, tol: float, level4=None) -> np.ndarray:
    """Residual norms of the scan grid, exact wherever they can rank among six.

    Every row goes to level ``_BASE_LEVEL + 1``, the first with an error
    estimate; a row converged there is final, bit for bit.  Any other row
    keeps its norm at that level, bounded by its own ``err``, the change
    of its period integrals from the level before: the tanh-sinh error
    falls double-exponentially with the level, so that change exceeds
    the level's own error in omega by orders of magnitude (the tests pin
    a factor of 1e3 on every atlas shape).  With tau the sixth-smallest
    norm, each such row whose norm minus its bound is at most tau plus
    the largest bound among those six is converged in full, from the
    base level, until no row qualifies.  Then the six smallest norms are
    exact, and every row left at level 4 lies, with its bound, above
    them, so a sort of the norms starts with the same six rows as a sort
    of the exact ones.  A row that misses the tolerance at the finest
    level gets an infinite norm.  ``level4`` is the grid's level-4
    (omega, err, final), when already known; it is read, not changed.
    """
    if level4 is None:
        level4 = _omega_rows(grid, ell, tol, max_level=_BASE_LEVEL + 1)
    omega, err, final = level4
    final = final.copy()
    norms = np.max(np.abs(omega - target), axis=1)
    bound = np.where(final, 0.0, err)
    while True:
        six = np.argpartition(norms, 5)[:6]
        cutoff = norms[six].max() + bound[six].max()
        redo = np.flatnonzero(~final & ~(norms - bound > cutoff))     # NaN norms too
        if not redo.size:
            return norms
        omega, _, ok = _omega_rows(grid[redo], ell, tol)
        norms[redo] = np.where(ok, np.max(np.abs(omega - target), axis=1), math.inf)
        final[redo], bound[redo] = True, 0.0


def _local_minima(norms, cells, shape) -> np.ndarray:
    """Scan rows whose finite norm is at most that of each grid neighbour.

    ``cells`` places each row in the product grid of the given shape; a
    row's neighbours are the 3^n - 1 cells around it, and a cell without
    a row (dropped by the ordered filter) or outside the grid counts as
    +inf.  Returns row indices, ascending.
    """
    full = np.full(shape, math.inf)
    full.flat[cells] = norms
    padded = np.pad(full, 1, constant_values=math.inf)
    is_min = np.isfinite(full)
    for off in product((-1, 0, 1), repeat=len(shape)):
        if any(off):
            is_min &= full <= padded[tuple(slice(1 + o, 1 + o + k) for o, k in zip(off, shape))]
    return np.flatnonzero(is_min.flat[cells])


#: Central-difference step of a Newton Jacobian, in logistic coordinates.
_JAC_H = 1e-5
#: Step fractions of the line search: the full step, then nine halvings.
_DAMPING = 0.5 ** np.arange(10)


def _newton(resid_rows, clip, lam0, bounds, tol_omega):
    """Damped Newton in logistic coordinates of each component interval.

    The frequencies vary logarithmically near the interval edges; the
    logistic substitution makes the map roughly affine there, so Newton
    can approach solutions sitting 1e-5 from an edge.

    ``lam0`` is a stack of starts (K, n), run in lock-step, and ``bounds``
    the (n, 2) component intervals.  ``resid_rows`` evaluates many points
    in one batch, with a per-row converged flag.  The starts go in one
    batch with their Jacobian stencils (the 2n central-difference points
    +-h e_j around each).  Each iteration makes one batch of the stencils
    of the starts whose last step was damped, one of the full steps with
    the stencils they need next, and one of the nine damped steps of the
    starts whose full step did not improve.  Each start takes the first
    step that improves and reads a stencil only where a one-by-one search
    would evaluate it.  A start stops when it converges; when no step
    improves (its iterate stays as it was, so a retry would repeat the
    same Jacobian and the same search); when its Jacobian is singular;
    after 60 iterations; or where a one-by-one search would have met an
    unconverged point.  The starts after the first that converged stop
    too: a one-by-one search would not have reached them.

    Returns the last iterate (K, n) and residual norm of every start, and
    for each start that unconverged point, or None.
    """
    n = len(bounds)
    offsets = np.array([sign * _JAC_H * e for e in np.eye(n) for sign in (1.0, -1.0)])
    stencil = np.vstack([np.zeros(n), offsets])       # a point, then its Jacobian stencil
    los, widths = bounds[:, 0], bounds[:, 1] - bounds[:, 0]

    def to_lam(s):
        return clip(los + widths / (1.0 + np.exp(-s)))

    def norms(r, ok):
        return np.where(ok, np.max(np.abs(r), axis=-1), math.inf)

    def batch(s_pts, deltas):
        # every point is clipped 1e-9 a_max inside the component, so a
        # stencil that goes unused still cannot trip _check_nonsingular,
        # whose guard is 1e-12 a_max
        pts = to_lam(s_pts[:, None] + deltas)
        rr, okk = resid_rows(pts.reshape(-1, n))
        return pts, rr.reshape(pts.shape), okk.reshape(pts.shape[:2])

    u = np.clip((lam0 - los) / widths, 1e-12, 1.0 - 1e-12)
    s = np.log(u / (1.0 - u))
    pts, rr, okk = batch(s, stencil)
    r, ok, jac_pts, jac_r, jac_ok = rr[:, 0], okk[:, 0], pts[:, 1:], rr[:, 1:], okk[:, 1:]
    nrm = norms(r, ok)
    stuck = [None if good else to_lam(s[k]) for k, good in enumerate(ok)]
    running, has_jac = ok.copy(), np.ones(len(s), dtype=bool)
    for _ in range(60):
        converged = nrm <= tol_omega
        running &= ~converged
        if converged.any():
            running[np.argmax(converged) + 1:] = False
        act = np.flatnonzero(running)
        if not act.size:
            break
        fresh = act[~has_jac[act]]
        if fresh.size:
            jac_pts[fresh], jac_r[fresh], jac_ok[fresh] = batch(s[fresh], offsets)
        pts, rp, ok = jac_pts[act], jac_r[act], jac_ok[act]
        jac = np.swapaxes(rp[:, 0::2] - rp[:, 1::2], 1, 2) / (2.0 * _JAC_H)
        good = ok.all(axis=1)
        for k in np.flatnonzero(~good):
            stuck[act[k]] = pts[k, np.argmin(ok[k])]
        step = np.zeros((len(act), n))
        for k in np.flatnonzero(good):
            try:
                step[k] = np.linalg.solve(jac[k], -r[act[k]])
            except np.linalg.LinAlgError:
                good[k] = False
        running[act[~good]] = False
        act, step = act[good], np.clip(step[good], -8.0, 8.0)
        if not act.size:
            continue
        cands = s[act, None] + _DAMPING[:, None] * step[:, None]
        lam_c = to_lam(cands)
        pts_c, rcs, okc = batch(cands[:, 0], stencil)
        rc, ok = rcs[:, 0], okc[:, 0]
        nc = norms(rc, ok)
        take = nc < nrm[act]
        kept = act[take]
        s[kept], r[kept], nrm[kept] = cands[take, 0], rc[take], nc[take]
        has_jac[act] = take
        jac_pts[kept], jac_r[kept], jac_ok[kept] = pts_c[take, 1:], rcs[take, 1:], okc[take, 1:]
        for k in np.flatnonzero(~ok):
            stuck[act[k]], running[act[k]] = lam_c[k, 0], False
        damp = np.flatnonzero(ok & ~take)
        if not damp.size:
            continue
        rest, ok_rest = resid_rows(lam_c[damp, 1:].reshape(-1, n))
        rest, ok_rest = rest.reshape(-1, 9, n), ok_rest.reshape(-1, 9)
        n_rest = norms(rest, ok_rest)
        for j, k in enumerate(damp):
            i = act[k]
            better = np.flatnonzero(n_rest[j] < nrm[i])
            first = better[0] if better.size else 9
            if not ok_rest[j, :first].all():
                stuck[i], running[i] = lam_c[k, 1 + np.argmin(ok_rest[j])], False
            elif not better.size:
                running[i] = False
            else:
                s[i], r[i], nrm[i] = cands[k, 1 + first], rest[j, first], n_rest[j, first]
    return to_lam(s), [float(v) for v in nrm], stuck
