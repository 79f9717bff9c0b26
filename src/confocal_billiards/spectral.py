"""Rotation number, frequency map, empirical winding rates, and inversion.

Trajectories sharing caustics lam are periodic exactly when the
frequencies are rational with the winding numbers as numerators:

    n = 1:  rho(lam)  = m_1 / 2 m_0
    n = 2:  omega(lam) = (m_1, m_2) / 2 m_0

Both are built from period integrals J_k(i) of s^k / sqrt(P(s)) over the
oscillation intervals I_i, where P(s) is the degree-(2n+1) polynomial
with the axes and caustic parameters as roots.  Along any chord the
elliptic coordinates obey the Abel-sum identities

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

import numpy as np

from .dynamics import PhasePoint, _step_arrays
from .errors import (
    BilliardError,
    NoSolutionInComponent,
    QuadratureNotConverged,
    SingularCaustic,
    UnsupportedDimension,
)
from .geometry import (
    CausticParams,
    Ellipsoid,
    cartesian_to_elliptic,
    caustic_component_bounds,
    cuboid,
    elliptic_coords,
    tangent_directions,
)
from .quadrature import period_integrals
from .symmetry import feasible_reversors, seed_point

_TOL_ENV = "CONFOCAL_QUAD_TOL"


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
    from .symmetry import _BREAKPOINT_KINDS
    kinds = _BREAKPOINT_KINDS[ctype]
    out = []
    for i in range(len(kinds) // 2):
        out.append(kinds[2 * i].startswith("A") or kinds[2 * i + 1].startswith("A"))
    return tuple(out)


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

def _check_nonsingular(lams: np.ndarray, ell: Ellipsoid, tol: float = 1e-12):
    """Raise SingularCaustic if any row of lams (N, n) is near a singular value."""
    scale = ell.axes[-1]
    sing = np.array((0.0,) + ell.axes)
    near = np.min(np.abs(lams[:, :, None] - sing), axis=2) < tol * scale
    if np.any(near):
        raise SingularCaustic(f"caustic parameter {lams[near][0]} within {tol} of a singular value")
    if ell.n >= 2 and np.any(lams[:, 1] - lams[:, 0] < tol * scale):
        raise SingularCaustic("coinciding caustic parameters")


def _omega_rows(lams, ell: Ellipsoid, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequencies of many caustic parameter rows, (omega[N, n], err[N], converged[N]).

    All n+1 intervals of every row go into one ``period_integrals`` call;
    then, with J_k(I_i) the integral of s^k/sqrt(P) over interval I_i,
    each row solves  sum_{i=1..n} (-1)^(i+1) J_k(I_i) omega_i = J_k(I_0)/2
    for k < n.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1, ell.n)
    _check_nonsingular(lams, ell)
    N, n1 = len(lams), ell.dim
    roots = np.sort(np.concatenate([np.broadcast_to(ell.a, (N, n1)), lams], axis=1), axis=1)
    breaks = np.concatenate([np.zeros((N, 1)), roots], axis=1)
    vals, err, ok = period_integrals(breaks[:, 0::2].ravel(), breaks[:, 1::2].ravel(),
                                     np.repeat(roots, n1, axis=0), range(ell.n), tol=tol)
    J = vals.reshape(N, n1, ell.n)                  # J[row, interval, power]
    signs = np.where(np.arange(1, n1) % 2, 1.0, -1.0)
    mat = np.swapaxes(J[:, 1:, :], 1, 2) * signs    # mat[row, k, i]
    omega = np.linalg.solve(mat, 0.5 * J[:, 0, :, None])[..., 0]
    return (omega, np.maximum(err.reshape(N, n1).max(axis=1), tol),
            ok.reshape(N, n1).all(axis=1))


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


def _frequency_value(lam: CausticParams, ell: Ellipsoid, tol: float | None) -> FrequencyValue:
    omega, err = _converged_omega([lam.lambdas], ell, tol)
    return FrequencyValue(tuple(float(v) for v in omega[0]), float(err[0]))


def rotation_number(lam: CausticParams, ell: Ellipsoid, tol: float | None = None) -> FrequencyValue:
    """rho(lam) for n = 1: half the ratio of the two period integrals."""
    if ell.n != 1:
        raise UnsupportedDimension("rotation number is the n=1 frequency")
    return _frequency_value(lam, ell, tol)


def frequency_map(lam: CausticParams, ell: Ellipsoid, tol: float | None = None) -> FrequencyValue:
    """omega(lam) for n = 2 from the 2x2 period-integral system."""
    if ell.n != 2:
        raise UnsupportedDimension("frequency map implemented for n=2")
    return _frequency_value(lam, ell, tol)


def frequencies(lam: CausticParams, ell: Ellipsoid, tol: float | None = None) -> FrequencyValue:
    return rotation_number(lam, ell, tol) if ell.n == 1 else frequency_map(lam, ell, tol)


# --------------------------------------------------------------------------
# Empirical route (turning-point counting along iterated orbits)
# --------------------------------------------------------------------------

def _breakpoint_events(lam: CausticParams, ell: Ellipsoid):
    """(value, interval index, caustic?) for every breakpoint except 0."""
    box = cuboid(lam, ell)
    lamset = set(lam.lambdas)
    out = []
    for i, (alpha, beta) in enumerate(box.intervals):
        for v in (alpha, beta):
            if v != 0.0:
                out.append((v, i, v in lamset))
    return out, box


def count_turning_events(impacts: np.ndarray, lam: CausticParams,
                         ell: Ellipsoid, *, closed: bool = False,
                         edge_frac: float = 1e-6) -> np.ndarray:
    """Turning points of each elliptic coordinate along the chord sequence.

    Counts, per oscillation interval, the touches of its endpoints: an
    impact for the 0 face, a tangency parameter for caustic values, a
    hyperplane crossing for axis values.  Each chord counts events with
    parameter in [-e T, (1-e) T), e = edge_frac: consecutive chords share
    endpoints exactly, so these windows tile the orbit and events sitting
    at a chord boundary (vertex seeds) are counted exactly once even
    under roundoff.  ``closed`` snaps the last impact onto the first.
    """
    a = ell.a
    events_list, _ = _breakpoint_events(lam, ell)
    counts = np.zeros(ell.dim, dtype=np.int64)
    if closed:
        impacts = impacts.copy()
        impacts[-1] = impacts[0]
    q0 = impacts[:-1]
    q1 = impacts[1:]
    d = q1 - q0
    T = np.linalg.norm(d, axis=1)
    d = d / T[:, None]
    counts[0] += len(q0)            # one impact per chord
    for v, i, is_caustic in events_list:
        dv = a - v
        if is_caustic:
            # Chords asymptotic to the caustic quadric have A = 0 and no
            # touch on the segment; there |A| is pure cancellation noise,
            # so the guard must be relative to the term magnitudes.
            A = np.einsum("j,kj,kj->k", 1.0 / dv, d, d)
            A_abs = np.einsum("j,kj,kj->k", 1.0 / np.abs(dv), d, d)
            B = np.einsum("j,kj,kj->k", 1.0 / dv, q0, d)
            with np.errstate(divide="ignore", invalid="ignore"):
                tstar = np.where(np.abs(A) > 1e-9 * A_abs, -B / A, np.inf)
        else:
            j = int(np.argmin(np.abs(a - v)))
            with np.errstate(divide="ignore", invalid="ignore"):
                tstar = np.where(np.abs(d[:, j]) > 1e-12, -q0[:, j] / d[:, j], np.inf)
        counts[i] += int(np.count_nonzero(
            (tstar >= -edge_frac * T) & (tstar < (1.0 - edge_frac) * T)))
    return counts


def count_windings(impacts: np.ndarray, lam: CausticParams, ell: Ellipsoid) -> tuple[int, ...]:
    """Integer winding numbers of a closed impact sequence (first = last)."""
    counts = count_turning_events(impacts, lam, ell, closed=True)
    if np.any(counts % 2):
        raise ValueError(f"odd turning-point counts {counts}; orbit not closed?")
    return tuple(int(c) // 2 for c in counts)


def default_tangent_start(lam: CausticParams, ell: Ellipsoid,
                          rng: np.random.Generator | None = None) -> PhasePoint:
    """Deterministic (or randomized) phase point tangent to the caustics."""
    if rng is None:
        for r in sorted(feasible_reversors(lam.ctype, ell.n), key=lambda r: r.key):
            if r.family != "tilde":
                continue
            try:
                return seed_point(r, lam, ell, branch=0)
            except (BilliardError, ValueError):
                try:
                    return seed_point(r, lam, ell, branch=0, side=1)
                except (BilliardError, ValueError):
                    continue
        raise NoSolutionInComponent(f"no tilde seed available for {lam}")
    for _ in range(500):
        q = ell.surface_point(rng.normal(size=ell.dim))
        dirs = tangent_directions(q, lam, ell)
        if dirs:
            return PhasePoint(tuple(q), tuple(dirs[int(rng.integers(len(dirs)))]))
    raise NoSolutionInComponent(f"found no tangent line for {lam}")


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


def _count_oscillations_sampled(series: np.ndarray, closed: bool) -> float:
    """Half the number of sign changes of the discrete derivative."""
    diffs = np.diff(series)
    if closed:
        diffs = np.append(diffs, series[0] - series[-1])
    diffs = diffs[np.abs(diffs) > 1e-13]
    if len(diffs) < 2:
        return 0.0
    sign_changes = int(np.count_nonzero(np.diff(np.sign(diffs)) != 0))
    if closed and np.sign(diffs[0]) != np.sign(diffs[-1]):
        sign_changes += 1
    return 0.5 * sign_changes


def _step_batch(Q: np.ndarray, P: np.ndarray, a: np.ndarray):
    """Vectorized bounce for a batch of phase points (rows)."""
    G = Q / a
    nu = -2.0 * np.sum(G * P, axis=1) / np.sum(G * G, axis=1)
    P1 = P + nu[:, None] * G
    mu = -2.0 * np.sum(G * P1, axis=1) / np.sum(P1 * (P1 / a), axis=1)
    Q1 = Q + mu[:, None] * P1
    G1 = Q1 / a
    c2 = np.sum(G1 * (G1 / a), axis=1)
    c1 = 2.0 * np.sum(G1 * G1, axis=1)
    c0 = np.sum(Q1 * G1, axis=1) - 1.0
    disc = np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0)
    Q1 = Q1 - (2.0 * c0 / (c1 + np.sqrt(disc)))[:, None] * G1
    P1 = P1 / np.linalg.norm(P1, axis=1)[:, None]
    return Q1, P1


def empirical_frequency_batch(lams, ell: Ellipsoid, bounces: int,
                              starts=None,
                              rng: np.random.Generator | None = None) -> list[FrequencyValue]:
    """Event-counting estimates for many caustic parameters at once.

    All orbits live on the same ellipsoid and are iterated in lockstep,
    which keeps the long-orbit oracle comparisons affordable.
    """
    lams = list(lams)
    if starts is None:
        starts = [default_tangent_start(lam, ell, rng) for lam in lams]
    B = len(lams)
    Q = np.array([s.q for s in starts])
    P = np.array([s.p for s in starts])
    impacts = np.empty((bounces + 1, B, ell.dim))
    impacts[0] = Q
    a = ell.a
    for k in range(1, bounces + 1):
        Q, P = _step_batch(Q, P, a)
        impacts[k] = Q
    out = []
    for b, lam in enumerate(lams):
        counts = count_turning_events(impacts[:, b], lam, ell)
        om = counts[1:] / (2.0 * counts[0])
        out.append(FrequencyValue(tuple(float(v) for v in om), 2.0 / bounces))
    return out


def empirical_frequency(lam: CausticParams, ell: Ellipsoid, bounces: int = 2000,
                        samples_per_chord: int | None = None,
                        start: PhasePoint | None = None,
                        rng: np.random.Generator | None = None) -> FrequencyValue:
    """Frequency estimate from an iterated orbit tangent to the caustics.

    With ``samples_per_chord`` unset, turning points are located exactly
    from per-chord tangency/crossing events; otherwise the elliptic
    coordinates are sampled along each chord and local extrema of the
    discrete series are counted (slower, kept as an independent route).
    Error decays like O(1/bounces).
    """
    if start is None:
        start = default_tangent_start(lam, ell, rng)
    q, p = start.q_arr, start.p_arr
    a = ell.a
    impacts = np.empty((bounces + 1, ell.dim))
    impacts[0] = q
    for k in range(1, bounces + 1):
        q, p = _step_arrays(q, p, a)
        impacts[k] = q
    if samples_per_chord is None:
        counts = count_turning_events(impacts, lam, ell)
        om = counts[1:] / (2.0 * counts[0])
    else:
        path = sample_elliptic_path(impacts, ell, samples_per_chord)
        osc = np.array([_count_oscillations_sampled(path[:, i], closed=False)
                        for i in range(1, ell.dim)])
        om = osc / (2.0 * bounces)
    return FrequencyValue(tuple(float(v) for v in om), 2.0 / bounces)


# --------------------------------------------------------------------------
# Inversion
# --------------------------------------------------------------------------

_SCAN_BLOCK = 96     # grid points per batched frequency evaluation


def _edge_clustered_grid(lo: float, hi: float, per_edge: int = 14) -> np.ndarray:
    """Grid on (lo, hi) clustered geometrically toward both endpoints.

    The frequencies vary logarithmically near the singular edges, so the
    scan must resolve offsets spanning many decades.
    """
    width = hi - lo
    offs = width * np.geomspace(1e-7, 0.45, per_edge)
    return np.unique(np.concatenate([lo + offs, hi - offs]))


def invert_frequency(target, ctype: str, ell: Ellipsoid,
                     tol_omega: float = 1e-10, quad_tol: float | None = None) -> CausticParams:
    """Caustic parameters in the given component with the given frequencies.

    n = 1: bracketed bisection/secant on rho.  n = 2: edge-clustered grid
    scan followed by damped finite-difference Newton, with a shrinking-box
    bisection fallback; iterates are clipped 1e-9 inside the component.
    """
    target = tuple(float(t) for t in (target if hasattr(target, "__len__") else (target,)))
    bounds = caustic_component_bounds(ctype, ell)
    if len(target) != len(bounds):
        raise ValueError(f"target length {len(target)} != n = {len(bounds)}")
    if ell.n == 1:
        return _invert_1d(target[0], ctype, ell, tol_omega, quad_tol)
    if ell.n == 2:
        return _invert_2d(np.array(target), ctype, ell, tol_omega, quad_tol)
    raise UnsupportedDimension("inversion implemented for n <= 2")


def _invert_1d(target: float, ctype: str, ell: Ellipsoid,
               tol_omega: float, quad_tol: float | None) -> CausticParams:
    lo, hi = caustic_component_bounds(ctype, ell)[0]
    margin = 1e-9 * ell.axes[-1]
    lo, hi = lo + margin, hi - margin

    def f(x):
        return rotation_number(CausticParams((x,), ctype), ell, quad_tol).omega[0] - target

    grid = _edge_clustered_grid(lo, hi, 17)
    vals = _converged_omega(grid, ell, quad_tol)[0][:, 0] - target
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
    if abs(f(x)) <= tol_omega:
        return CausticParams((x,), ctype)
    raise NoSolutionInComponent(f"bisection stalled at rho residual {f(x)}")


def _invert_2d(target: np.ndarray, ctype: str, ell: Ellipsoid,
               tol_omega: float, quad_tol: float | None) -> CausticParams:
    (lo1, hi1), (lo2, hi2) = caustic_component_bounds(ctype, ell)
    margin = 1e-9 * ell.axes[-1]
    ordered = ctype == "H1H1"

    def clip(lam):
        l1 = min(max(lam[0], lo1 + margin), hi1 - margin)
        l2 = min(max(lam[1], lo2 + margin), hi2 - margin)
        if ordered and l2 - l1 < margin:
            mid = 0.5 * (l1 + l2)
            l1, l2 = mid - 0.5 * margin, mid + 0.5 * margin
        return np.array([l1, l2])

    def resid(lam):
        lamP = CausticParams((lam[0], lam[1]), ctype)
        return np.array(frequency_map(lamP, ell, quad_tol).omega) - target

    def resid_rows(lams):
        omega, _, ok = _omega_rows(lams, ell, tol)
        return omega - target, ok

    g1 = _edge_clustered_grid(lo1, hi1)
    g2 = _edge_clustered_grid(lo2, hi2)
    grid = np.array([(x1, x2) for x1 in g1 for x2 in g2
                     if not (ordered and x2 <= x1 + margin)]).reshape(-1, 2)
    tol = _quad_tol(quad_tol)
    scored = []
    for k in range(0, len(grid), _SCAN_BLOCK):
        block = grid[k:k + _SCAN_BLOCK]
        omega, _, ok = _omega_rows(block, ell, tol)
        norms = np.where(ok, np.max(np.abs(omega - target), axis=1), math.inf)
        scored += zip(norms.tolist(), block[:, 0].tolist(), block[:, 1].tolist())
    scored.sort()
    if not scored or scored[0][0] > 0.45:
        raise NoSolutionInComponent(
            f"grid scan found no candidate for omega={tuple(target)} on {ctype}")

    best_norm = math.inf
    for start_norm, x1, x2 in scored[:6]:
        lam, nrm = _newton_2d(resid, resid_rows, clip, np.array([x1, x2]),
                              (lo1, hi1), (lo2, hi2), tol_omega)
        if nrm <= tol_omega:
            return CausticParams((lam[0], lam[1]), ctype)
        best_norm = min(best_norm, nrm)
    raise NoSolutionInComponent(
        f"Newton stalled at |omega - target| = {best_norm} for {ctype} on {ell.axes}")


def _newton_2d(resid, resid_rows, clip, lam0, b1, b2, tol_omega):
    """Damped Newton in logistic coordinates of each component interval.

    The frequencies vary logarithmically near the interval edges; the
    logistic substitution makes the map roughly affine there, so Newton
    can approach solutions sitting 1e-5 from an edge.

    ``resid`` evaluates one point; ``resid_rows`` many in one batch, with
    a per-row converged flag.  The four central-difference points of a
    Jacobian go in one batch.  The line search tries the full step alone
    and, when it does not improve, the nine damped steps in one batch;
    it takes the first that improves, as a one-by-one search would, and
    raises where that search would have met an unconverged point.  A step
    that improves nothing leaves the iterate as it was, so any retry would
    repeat the same Jacobian and the same search: Newton stops there.
    """
    los = np.array([b1[0], b2[0]])
    widths = np.array([b1[1] - b1[0], b2[1] - b2[0]])

    def to_s(lam):
        u = np.clip((lam - los) / widths, 1e-12, 1.0 - 1e-12)
        return np.log(u / (1.0 - u))

    def to_lam(s):
        return clip(los + widths / (1.0 + np.exp(-s)))

    s = to_s(lam0)
    r = resid(to_lam(s))
    nrm = float(np.max(np.abs(r)))
    for _ in range(60):
        if nrm <= tol_omega:
            break
        h = 1e-5
        pts = np.array([to_lam(s + sign * h * e) for e in np.eye(2) for sign in (1.0, -1.0)])
        rp, ok = resid_rows(pts)
        if not ok.all():
            resid(pts[np.argmin(ok)])       # raises QuadratureNotConverged
        jac = np.column_stack([rp[0] - rp[1], rp[2] - rp[3]]) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        step = np.clip(step, -8.0, 8.0)
        cands = s + 0.5 ** np.arange(10)[:, None] * step
        rc = resid(to_lam(cands[0]))[None]
        ok = np.ones(1, dtype=bool)
        if not float(np.max(np.abs(rc))) < nrm:
            rest, ok_rest = resid_rows(np.array([to_lam(c) for c in cands[1:]]))
            rc, ok = np.vstack([rc, rest]), np.concatenate([ok, ok_rest])
        norms = np.where(ok, np.max(np.abs(rc), axis=1), math.inf)
        better = np.flatnonzero(norms < nrm)
        first = better[0] if better.size else len(norms)
        if not ok[:first].all():
            resid(to_lam(cands[np.argmin(ok)]))     # raises QuadratureNotConverged
        if not better.size:
            break
        s, r, nrm = cands[first], rc[first], float(norms[first])
    return to_lam(s), nrm
