"""Double-exponential quadrature for the hyperelliptic period integrals.

The integrands are s^k / sqrt(P(s)) over an interval whose endpoints are
(near-)roots of P, so they carry inverse-square-root endpoint
singularities.  The tanh-sinh substitution kills those, and the node
offsets from the endpoints are propagated exactly so the integrand can
be evaluated without catastrophic cancellation even when another root of
P sits 1e-5 outside the interval.

The levels are nested (Takahasi & Mori 1974; Bailey, Jeyabalan & Li
2005): level L+1 halves the step, so its even nodes are those of level L
and only the odd ones are new, ``S_{L+1} = S_L / 2 + h_{L+1} sum_new``.
One call integrates a whole stack of intervals; each row stops at its
own first converged level.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_T_MAX = 4.0
_BASE_LEVEL = 3
_CHUNK = 4096       # elements per (rows x nodes) temporary


@lru_cache(maxsize=None)
def _nodes(level: int) -> tuple[np.ndarray, ...]:
    """Nodes new at this level: abscissae x, weights, stable 1+x and 1-x.

    The base level has every node on [-T_MAX, T_MAX]; a finer level only
    the odd-index ones.  The arrays are shared, hence read-only.
    """
    h = 2.0 ** (-level)
    K = int(_T_MAX / h)
    k = np.arange(-K, K + 1) if level == _BASE_LEVEL else np.arange(-K + 1, K, 2)
    t = k * h
    u = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(u)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    e = np.exp(-2.0 * np.abs(u))
    delta = 2.0 * e / (1.0 + e)
    out = (x, w, np.where(x < 0.0, delta, 1.0 + x), np.where(x > 0.0, delta, 1.0 - x))
    for arr in out:
        arr.setflags(write=False)
    return out


def _run_edges(below) -> list[int]:
    """0, every row where the side pattern of the roots changes, and N."""
    change = np.flatnonzero(np.any(below[1:] != below[:-1], axis=1)) + 1
    return [0, *change.tolist(), len(below)]


def _node_sums(level, mid, r, off, below, powers) -> np.ndarray:
    """r * sum_j w_j s_j^k / sqrt(|P(s_j)|) over the level's new nodes, per row.

    The factor of root j is ``off_j + dl`` for a root below the interval
    and ``off_j + dr`` above it.  Rows come in runs that share the side
    of every root; a chunk stays inside one run and takes each side as a
    whole.  Where the runs are shorter than the chunks (one row's
    intervals, a Jacobian batch), one pass picks each element's side.
    The product runs over j = 0..R-1 in order, and the powers of s are
    ascending, each one more multiply by s.
    """
    x, w, dleft, dright = _nodes(level)
    n_rows, n_roots = off.shape
    out = np.empty((n_rows, len(powers)))
    step = max(1, _CHUNK // len(x))
    runs = [(0, n_rows, None)]          # sides picked per element
    if n_rows > step:
        edges = _run_edges(below)
        if len(edges) - 1 <= -(-n_rows // step):
            runs = [(a, b, below[a].tolist()) for a, b in zip(edges, edges[1:])]
    for first, stop, sides in runs:
        for start in range(first, stop, step):
            sl = slice(start, min(start + step, stop))
            rr = r[sl, None]
            dl = rr * dleft if sides is None or any(sides) else None
            dr = rr * dright if sides is None or not all(sides) else None
            if sides is None:
                fac = np.where(below[sl, :, None], dl[:, None], dr[:, None])
                fac += off[sl, :, None]
                prod = fac[:, 0].copy()
                for j in range(1, n_roots):
                    prod *= fac[:, j]
            else:
                prod = off[sl, 0, None] + (dl if sides[0] else dr)
                tmp = np.empty_like(prod)
                for j in range(1, n_roots):
                    prod *= np.add(off[sl, j, None], dl if sides[j] else dr, out=tmp)
            term = np.divide(w, np.sqrt(prod, out=prod), out=prod)
            if powers[-1] > 0:
                s = rr * x
                s += mid[sl, None]
            k_term = 0
            for c, k in enumerate(powers):
                for _ in range(k - k_term):
                    term = term * s
                k_term = k
                out[sl, c] = np.add.reduce(term, axis=1)
    return r[:, None] * out


def period_integrals(alpha, beta, roots, powers, tol: float = 1e-12,
                     max_level: int = 9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrals of s^k / sqrt(|P(s)|) over [alpha_i, beta_i], row by row.

    ``alpha`` and ``beta`` have shape (N,) and ``roots`` (N, R): row i
    holds all roots of its P, which must be positive on the open interval
    with every root outside it (interval endpoints allowed), and
    ``powers`` are ascending.  Rows with the same roots below their
    interval are cheapest kept together.  Returns
    ``(vals[N, len(powers)], err[N], converged[N])``; a row converges at
    the first level where the change from the previous level satisfies
    ``err <= tol * max(1, max|vals|)``, and an unconverged row keeps the
    values of ``max_level``.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    roots = np.asarray(roots, dtype=float)
    powers = tuple(powers)
    if any(b < a for a, b in zip(powers, powers[1:])):
        raise ValueError("powers must be ascending")
    if np.any((roots > alpha[:, None]) & (roots < beta[:, None])):
        raise ValueError("a root lies strictly inside an integration interval")
    r = 0.5 * (beta - alpha)
    mid = 0.5 * (beta + alpha)
    below = roots <= alpha[:, None]
    off = np.where(below, alpha[:, None] - roots, roots - beta[:, None])     # >= 0
    vals = _node_sums(_BASE_LEVEL, mid, r, off, below, powers)
    err = np.full(len(alpha), math.inf)
    active = np.arange(len(alpha))
    for level in range(_BASE_LEVEL + 1, max_level + 1):
        if not active.size:
            break
        prev = vals[active]
        new = 0.5 * prev + _node_sums(level, mid[active], r[active], off[active],
                                      below[active], powers)
        e = np.max(np.abs(new - prev), axis=1)
        vals[active], err[active] = new, e
        active = active[~(e <= tol * np.maximum(1.0, np.max(np.abs(new), axis=1)))]
    converged = np.ones(len(alpha), dtype=bool)
    converged[active] = False
    return vals, err, converged
