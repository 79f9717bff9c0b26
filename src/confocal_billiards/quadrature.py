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


def _node_sums(level, mid, r, off, below, powers) -> np.ndarray:
    """r * sum_j w_j s_j^k / sqrt(|P(s_j)|) over the level's new nodes, per row."""
    x, w, dleft, dright = _nodes(level)
    out = np.empty((len(mid), len(powers)))
    step = max(1, _CHUNK // len(x))
    for start in range(0, len(mid), step):
        sl = slice(start, start + step)
        rr = r[sl, None]
        s = mid[sl, None] + rr * x
        dl, dr = rr * dleft, rr * dright
        prod = np.ones_like(s)
        for j in range(off.shape[1]):
            prod *= off[sl, j, None] + np.where(below[sl, j, None], dl, dr)
        base = w / np.sqrt(prod)
        for c, k in enumerate(powers):
            out[sl, c] = np.sum(base * s ** k, axis=1)
    return r[:, None] * out


def period_integrals(alpha, beta, roots, powers, tol: float = 1e-12,
                     max_level: int = 9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrals of s^k / sqrt(|P(s)|) over [alpha_i, beta_i], row by row.

    ``alpha`` and ``beta`` have shape (N,) and ``roots`` (N, R): row i
    holds all roots of its P, which must be positive on the open interval
    with every root outside it (interval endpoints allowed).  Returns
    ``(vals[N, len(powers)], err[N], converged[N])``; a row converges at
    the first level where the change from the previous level satisfies
    ``err <= tol * max(1, max|vals|)``, and an unconverged row keeps the
    values of ``max_level``.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    roots = np.asarray(roots, dtype=float)
    powers = tuple(powers)
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
