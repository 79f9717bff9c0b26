import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import confocal_billiards
from confocal_billiards import (
    CausticParams,
    Ellipsoid,
    NoSolutionInComponent,
    PhasePoint,
    QuadratureNotConverged,
    STOCK_ELLIPSOIDS_3D,
    SingularCaustic,
    WindingNumbers,
    count_windings,
    cuboid,
    even_required,
    frequency_map,
    invert_frequency,
    iterate_orbit,
    parity_violations,
    rotation_number,
    seed_point,
    tangent_directions,
)
from confocal_billiards import quadrature, spectral
from confocal_billiards.dynamics import reversor_from_key
from confocal_billiards.engine import ATLAS_FALLBACK_SHAPES
from confocal_billiards.geometry import (
    caustic_component_bounds,
    caustic_params_of_line,
    caustic_types,
)
from confocal_billiards.spectral import (
    default_tangent_start,
    empirical_frequency_batch,
    sample_elliptic_path,
)


def test_winding_kinds_and_parity():
    w = WindingNumbers((10, 6, 2))
    assert w.kind == ("t", "t", "t")
    assert WindingNumbers((5, 4, 2)).kind == ("o", "f", "t")
    assert WindingNumbers((8, 6, 4)).kind == ("f", "t", "f")
    assert w.monotone and not WindingNumbers((4, 4, 2)).monotone
    assert even_required("EH1") == (False, True, True)
    assert even_required("H1H1") == (True, False, True)
    assert even_required("H1H2") == (True, True, True)
    assert even_required("E") == (False, True)
    assert even_required("H") == (True, True)
    assert parity_violations(WindingNumbers((5, 4, 2)), "EH1") == []
    assert parity_violations(WindingNumbers((5, 3, 2)), "EH1")
    assert parity_violations(WindingNumbers((8, 4, 4)), "H1H2")  # all mult of 4


def test_rotation_number_triangle(ell2d):
    lam = invert_frequency((2 / 6,), "E", ell2d)
    m = seed_point(reversor_from_key("Rx", 2), lam, ell2d)
    qs, ps = iterate_orbit(m, ell2d, 3)
    assert np.max(np.abs(qs[-1] - qs[0])) < 1e-8
    assert np.max(np.abs(ps[-1] - ps[0])) < 1e-8


def test_rotation_number_singular_rejection(ell2d):
    for bad in (0.16, 1.0, 1e-15):
        with pytest.raises((SingularCaustic, Exception)):
            rotation_number(CausticParams((bad,), "E" if bad < 0.16 else "H"), ell2d)


def test_every_consecutive_caustic_pair_must_stay_apart():
    ell = Ellipsoid((0.1, 0.3, 0.6, 1.0))
    good = (0.2, 0.25, 0.45)
    spectral._check_nonsingular(np.array([good]), ell)
    for bad in ((0.2, 0.2 + 5e-13, 0.45), (0.2, 0.4, 0.4 + 5e-13)):
        with pytest.raises(SingularCaustic, match="coinciding"):
            spectral._omega_rows([good, bad], ell, 1e-12)


def test_h_periodic_orbits_have_even_period(ell2d):
    # solving rho = m1/2m0 with odd m0 inside H must fail the parity rules
    assert parity_violations(WindingNumbers((5, 2)), "H")
    # and a sample periodic H orbit has even period
    lam = invert_frequency((2 / 8,), "H", ell2d)
    m = default_tangent_start(lam, ell2d)
    qs, _ = iterate_orbit(m, ell2d, 4)
    assert np.max(np.abs(qs[-1] - qs[0])) < 1e-7


def test_rho_monotone_per_component(ell2d):
    for ctype, (lo, hi) in (("E", (0.0, 0.16)), ("H", (0.16, 1.0))):
        grid = np.linspace(lo + 1e-4, hi - 1e-4, 25)
        vals = [rotation_number(CausticParams((x,), ctype), ell2d).omega[0] for x in grid]
        diffs = np.diff(vals)
        assert np.all(diffs > 0) or np.all(diffs < 0)


def test_quadrature_convergence(ell_mid):
    lam = [(0.2, 0.6)]
    coarse, coarse_err, coarse_ok = spectral._omega_rows(lam, ell_mid, 1e-8)
    fine, _, fine_ok = spectral._omega_rows(lam, ell_mid, 1e-14)
    assert coarse_ok.all() and fine_ok.all()
    assert np.max(np.abs(coarse - fine)) <= max(coarse_err[0], 1e-12)


GOLDEN_FREQ = [
    # axes, lambdas, expected omega
    ((0.13, 0.8, 1.0), (0.130077, 0.648376), (0.375, 0.25)),
    ((0.2, 0.3969, 1.0), (0.199523, 0.762965), (0.4, 0.2)),
    ((0.25, 0.49, 1.0), (0.231635, 0.260266), (0.4, 0.2)),
]


@pytest.mark.parametrize("axes,lams,target", GOLDEN_FREQ)
def test_frequency_map_published_rows(axes, lams, target):
    ell = Ellipsoid(axes)
    lam = CausticParams.from_values(lams, ell)
    om = frequency_map(lam, ell).omega
    assert max(abs(a - b) for a, b in zip(om, target)) < 1e-4


def test_invert_published_rows(ell_mid, ell_thin):
    lam = invert_frequency((3 / 8, 2 / 8), "H1H1", ell_mid)
    assert np.max(np.abs(np.array(lam.lambdas) - (0.130077, 0.648376))) < 1e-5
    lam = invert_frequency((4 / 12, 2 / 12), "H1H2", ell_thin)
    assert np.max(np.abs(np.array(lam.lambdas) - (0.133273, 0.967756))) < 1e-5
    lam = invert_frequency((4 / 12, 2 / 12), "EH1", ell_mid)
    assert np.max(np.abs(np.array(lam.lambdas) - (0.126231, 0.403278))) < 1e-5


def test_inversion_residual(ell_flat):
    target = (0.3, 0.1)
    lam = invert_frequency(target, "H1H1", ell_flat)
    om = frequency_map(lam, ell_flat).omega
    assert max(abs(a - b) for a, b in zip(om, target)) <= 1e-10


def test_stalled_1d_inversion_reports_its_last_residual(monkeypatch, ell2d):
    # a tolerance no residual meets runs the bracket down; the message
    # gives the last residual, and no point is evaluated twice
    target = rotation_number(CausticParams((0.08,), "E"), ell2d).omega[0]
    points = []

    def logging(lam, ell):
        fv = rotation_number(lam, ell)
        points.append((lam.lambdas[0], fv.omega[0]))
        return fv

    monkeypatch.setattr(spectral, "rotation_number", logging)
    monkeypatch.setattr(spectral, "_TOL_OMEGA", -1.0)
    with pytest.raises(NoSolutionInComponent) as exc:
        invert_frequency((target,), "E", ell2d)
    assert len({x for x, _ in points}) == len(points) > 1
    assert str(exc.value) == f"bisection stalled at rho residual {points[-1][1] - target}"


def test_no_solution_raises(ell_unit2d):
    with pytest.raises(NoSolutionInComponent):
        invert_frequency((0.05,), "H", ell_unit2d)   # below the H floor here


def test_empirical_matches_rotation_number(ell2d):
    rng = np.random.default_rng(7)
    for ctype, vals in (("E", np.linspace(0.01, 0.15, 6)),
                        ("H", np.linspace(0.2, 0.95, 6))):
        lams = [CausticParams((v,), ctype) for v in vals]
        ests = empirical_frequency_batch(lams, ell2d, 20_000, rng=rng)
        for lam, est in zip(lams, ests):
            rho = rotation_number(lam, ell2d).omega[0]
            assert abs(rho - est.omega[0]) < 1e-4


def test_empirical_matches_frequency_map(ell_mid):
    rng = np.random.default_rng(11)
    pts = [(0.03, 0.3), (0.06, 0.5), (0.09, 0.7), (0.2, 0.6), (0.3, 0.9)]
    lams = [CausticParams.from_values(v, ell_mid) for v in pts]
    ests = empirical_frequency_batch(lams, ell_mid, 20_000, rng=rng)
    for lam, est in zip(lams, ests):
        om = frequency_map(lam, ell_mid).omega
        assert max(abs(a - b) for a, b in zip(om, est.omega)) < 2.0e-4


def test_frequency_map_matches_event_counting_in_four_dimensions():
    # criterion 7 in R^4: the n x n period-integral system of _omega_rows
    # against turning events counted along orbits tangent to the caustics
    ell = Ellipsoid((0.1, 0.3, 0.6, 1.0))
    rng = np.random.default_rng(4)
    rows = {"EH1H2": (0.4, 0.5, 0.5), "H1H1H2": (0.3, 0.7, 0.5), "EH2H3": (0.5, 0.4, 0.6),
            "H1H2H2": (0.5, 0.3, 0.7), "H1H2H3": (0.6, 0.5, 0.4)}
    lams, starts = [], []
    for ctype, rel in rows.items():
        bounds = caustic_component_bounds(ctype, ell)
        lam = CausticParams.from_values([lo + u * (hi - lo) for u, (lo, hi) in zip(rel, bounds)], ell)
        assert lam.ctype == ctype
        dirs = []
        while not dirs:
            q = ell.surface_point(rng.normal(size=ell.dim))
            dirs = tangent_directions(q, lam, ell)
        lams.append(lam)
        starts.append(PhasePoint(tuple(q), tuple(dirs[0])))
    ests = empirical_frequency_batch(lams, ell, 40_000, starts)
    omega, _, ok = spectral._omega_rows([lam.lambdas for lam in lams], ell, 1e-12)
    assert ok.all()
    assert np.max(np.abs(omega - [est.omega for est in ests])) < 5e-5
    # the n-dimensional scan and Newton invert in R^4 too
    lam = invert_frequency(omega[0], "EH1H2", ell)
    assert np.max(np.abs(np.subtract(lam.lambdas, lams[0].lambdas))) < 1e-8


@pytest.mark.parametrize("axes", [(0.16, 1.0), (0.13, 0.8, 1.0), (0.1, 0.3, 0.6, 1.0)])
def test_random_tangent_starts_touch_the_caustics(axes):
    ell = Ellipsoid(axes)
    for ctype in caustic_types(ell.n):
        bounds = caustic_component_bounds(ctype, ell)
        lam = CausticParams.from_values(
            [lo + (k + 1) / (ell.n + 1) * (hi - lo) for k, (lo, hi) in enumerate(bounds)], ell)
        assert lam.ctype == ctype
        for seed in range(20):
            start = default_tangent_start(lam, ell, np.random.default_rng(seed))
            assert start == default_tangent_start(lam, ell, np.random.default_rng(seed))
            q, p = np.array(start.q), np.array(start.p)
            assert abs(float(q @ (q / ell.a)) - 1.0) <= 1e-12
            assert abs(float(p @ p) - 1.0) <= 1e-12
            assert float(ell.normal(q) @ p) > 0.0
            got = caustic_params_of_line(q, p, ell).lambdas
            assert np.max(np.abs(np.subtract(got, lam.lambdas))) <= 1e-9


def test_orbit_stays_in_cuboid(ell_mid):
    lam = CausticParams.from_values((0.2, 0.6), ell_mid)
    m = default_tangent_start(lam, ell_mid)
    qs, _ = iterate_orbit(m, ell_mid, 200)
    box = cuboid(lam, ell_mid)
    path = sample_elliptic_path(qs, ell_mid, 32)
    worst = max(box.excursion(row) for row in path)
    assert worst < 1e-9


def test_count_windings_golden(ell_mid):
    lam = invert_frequency((3 / 8, 2 / 8), "H1H1", ell_mid)
    m = seed_point(reversor_from_key("R2", 3), lam, ell_mid, side="o")
    qs, _ = iterate_orbit(m, ell_mid, 4)
    assert count_windings(qs, lam, ell_mid) == (4, 3, 2)


# --------------------------------------------------------------------------
# Batched frequency layer
# --------------------------------------------------------------------------

SHAPE_TYPES = [((0.16, 1.0), "E"), ((0.16, 1.0), "H"), ((0.02, 1.0), "H")] + [
    (axes, ctype) for axes in ((0.13, 0.8, 1.0), (0.02, 0.1, 1.0))
    for ctype in ("EH1", "H1H1", "EH2", "H1H2")]
# relative positions in a component: uniform, or 1e-7 from either edge
POSITION = st.one_of(st.floats(1e-4, 1.0 - 1e-4), st.sampled_from([1e-7, 1.0 - 1e-7]))


@st.composite
def caustic_rows(draw):
    axes, ctype = draw(st.sampled_from(SHAPE_TYPES))
    ell = Ellipsoid(axes)
    bounds = caustic_component_bounds(ctype, ell)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = sorted(lo + draw(POSITION) * (hi - lo) for lo, hi in bounds)
        assume(all(b - a > 1e-6 for a, b in zip(row, row[1:])))
        rows.append(row)
    return ell, ctype, np.array(rows)


@settings(max_examples=60)
@given(caustic_rows())
def test_batched_omega_matches_per_row_wrappers(case):
    ell, ctype, rows = case
    omega, err, ok = spectral._omega_rows(rows, ell, 1e-12)
    assert ok.all() and np.all(err >= 1e-12)
    scalar = spectral.rotation_number if ell.n == 1 else spectral.frequency_map
    for row, om in zip(rows, omega):
        ref = scalar(CausticParams(tuple(row), ctype), ell).omega
        assert np.max(np.abs(om - np.array(ref))) <= 1e-12


def _direct_level_sum(alpha, beta, roots, k, level):
    """Non-nested tanh-sinh sum of s^k / sqrt(|P(s)|) at one level."""
    h = 2.0 ** (-level)
    t = np.arange(-int(4.0 / h), int(4.0 / h) + 1) * h
    u = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(u)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    e = np.exp(-2.0 * np.abs(u))
    one_minus_abs = 2.0 * e / (1.0 + e)
    r, mid = 0.5 * (beta - alpha), 0.5 * (beta + alpha)
    dleft = r * np.where(x < 0.0, one_minus_abs, 1.0 + x)
    dright = r * np.where(x > 0.0, one_minus_abs, 1.0 - x)
    prod = np.ones_like(x)
    for root in roots:
        prod *= alpha - root + dleft if root <= alpha else root - beta + dright
    return r * np.sum(w * (mid + r * x) ** k / np.sqrt(prod))


@pytest.mark.parametrize("level", [4, 6, 8])
def test_nested_levels_equal_direct_sum(level):
    # intervals I_0 and I_1 of a caustic pair next to the golden (8,4,2) row
    roots = np.array([0.05, 0.13007682, 0.45741441, 0.95, 1.0])
    alpha = np.array([0.0, 0.13007682])
    beta = np.array([0.05, 0.45741441])
    # a tol no change can meet keeps every row to max_level
    vals, err, ok = quadrature.period_integrals(alpha, beta, np.tile(roots, (2, 1)), (0, 1, 2),
                                                tol=-1.0, max_level=level)
    assert not ok.any() and np.all(np.isfinite(err))
    for i in range(2):
        for c, k in enumerate((0, 1, 2)):
            ref = _direct_level_sum(alpha[i], beta[i], roots, k, level)
            assert abs(vals[i, c] - ref) <= 1e-14 * abs(ref)


def _interval_rows(cases, rng):
    """(alpha, beta, roots) of every interval of seeded caustic rows, row by row."""
    alphas, betas, roots = [], [], []
    for axes, ctypes, count in cases:
        ell = Ellipsoid(axes)
        for _ in range(count):
            bounds = caustic_component_bounds(ctypes[int(rng.integers(len(ctypes)))], ell)
            pos = [rng.choice([1e-7, 1.0 - 1e-7]) if rng.random() < 0.2 else rng.uniform(0.05, 0.95)
                   for _ in bounds]
            lams = sorted(lo + p * (hi - lo) for (lo, hi), p in zip(bounds, pos))
            if np.min(np.diff(lams), initial=1.0) < 1e-6:
                continue                # coinciding caustics: not a valid row
            row = np.sort(np.concatenate([ell.a, lams]))
            breaks = np.concatenate([[0.0], row])
            alphas += breaks[0::2].tolist()
            betas += breaks[1::2].tolist()
            roots += [row] * ell.dim
    return np.array(alphas), np.array(betas), np.array(roots)


def _side_orders(n_rows, dim, rng):
    """Row orders of a row-by-row interval stack with runs of every length."""
    by_interval = [np.arange(i, n_rows, dim) for i in range(dim)]
    ragged, queues = [], [list(q) for q in by_interval]
    while any(queues):
        for q in queues:
            take = int(rng.integers(1, 150))
            ragged += q[:take]
            del q[:take]
    return {"row by row": np.arange(n_rows), "interval by interval": np.concatenate(by_interval),
            "ragged runs": np.array(ragged)}


@pytest.mark.parametrize("max_level", [5, 9])
@pytest.mark.parametrize("cases,powers", [
    ([((0.13, 0.8, 1.0), ("EH1", "H1H1", "EH2", "H1H2"), 80),
      ((0.05, 0.95, 1.0), ("EH1", "EH2"), 50)], (0, 1)),
    ([((0.13, 0.8, 1.0), ("H1H2",), 80)], (0, 1, 2)),
    ([((0.16, 1.0), ("E", "H"), 100)], (0,)),
])
def test_stacked_period_integrals_equal_row_calls(cases, powers, max_level):
    # the kernel takes the roots' sides per run of rows when runs are long
    # and per element when they are short; rows are independent, so a
    # stack in any order gives each row exactly its single-row result
    rng = np.random.default_rng(5)
    alpha, beta, roots = _interval_rows(cases, rng)
    single = [quadrature.period_integrals(alpha[i:i + 1], beta[i:i + 1], roots[i:i + 1],
                                          powers, max_level=max_level) for i in range(len(alpha))]
    vals = np.concatenate([v for v, _, _ in single])
    err = np.concatenate([e for _, e, _ in single])
    ok = np.concatenate([c for _, _, c in single])
    if max_level == 5:
        assert 0 < ok.sum() < len(ok)
    for name, order in _side_orders(len(alpha), roots.shape[1] // 2 + 1, rng).items():
        got = quadrature.period_integrals(alpha[order], beta[order], roots[order], powers,
                                          max_level=max_level)
        assert np.array_equal(got[0], vals[order]), name
        assert np.array_equal(got[1], err[order]), name
        assert np.array_equal(got[2], ok[order]), name


def test_empty_interval_is_refused():
    # a zero-width row has nothing to converge to: refused, like a root inside
    roots = np.array([[0.05, 0.13, 0.45, 0.95, 1.0]])
    with pytest.raises(ValueError, match="empty"):
        quadrature.period_integrals(np.array([0.13]), np.array([0.13]), roots, (0, 1))
    with pytest.raises(ValueError, match="empty"):
        quadrature.period_integrals(np.array([0.0, 0.2]), np.array([0.05, 0.13]),
                                    np.tile(roots, (2, 1)), (0, 1))


def _count_omega_rows(monkeypatch) -> list[tuple[str, int]]:
    """Patch ``spectral._omega_rows`` to log the stage and row count of every call.

    The stage is "level 4" for a call stopped at quadrature level 4,
    "newton" for a call inside ``_newton``, and "full" otherwise.
    """
    calls, inside = [], []
    original, newton = spectral._omega_rows, spectral._newton

    def counting(lams, ell, tol, **kw):
        level4 = kw.get("max_level") == quadrature._BASE_LEVEL + 1
        calls.append(("level 4" if level4 else "newton" if inside else "full", len(lams)))
        return original(lams, ell, tol, **kw)

    def wrapped(*args):
        inside.append(True)
        try:
            return newton(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(spectral, "_omega_rows", counting)
    monkeypatch.setattr(spectral, "_newton", wrapped)
    return calls


def _scan_grid(ctype, ell):
    """The inverter's scan grid: edge-clustered per axis, x1 < x2 for H1H1."""
    (lo1, hi1), (lo2, hi2) = caustic_component_bounds(ctype, ell)
    margin = 1e-9 * ell.axes[-1]
    return np.array([(x1, x2) for x1 in spectral._edge_clustered_grid(lo1, hi1)
                     for x2 in spectral._edge_clustered_grid(lo2, hi2)
                     if ctype != "H1H1" or not x2 <= x1 + margin])


def _scan_norms(target, ctype, ell):
    """``spectral._scan_norms`` of the scan grid, from its level-4 rows."""
    grid = _scan_grid(ctype, ell)
    level4 = spectral._omega_rows(grid, ell, spectral._QUAD_TOL,
                                  max_level=quadrature._BASE_LEVEL + 1)
    return spectral._scan_norms(grid, target, ell, level4)


def test_edge_clustered_grid_is_sorted_without_numpy_ma():
    # np.unique would import numpy.ma on the first inversion of a process
    # (about 1 MB of RSS): the two halves of the grid are already disjoint and
    # ascending, so concatenating them gives the same bits
    for ell in ATLAS_FALLBACK_SHAPES:
        for lo, hi in ((0.0, ell.axes[0]),) + tuple(zip(ell.axes, ell.axes[1:])):
            for per_edge in (14, 17):
                offs = (hi - lo) * np.geomspace(1e-7, 0.45, per_edge)
                grid = spectral._edge_clustered_grid(lo, hi, per_edge)
                assert np.array_equal(grid, np.unique(np.concatenate([lo + offs, hi - offs])))
    src = str(Path(confocal_billiards.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "from confocal_billiards import Ellipsoid, invert_frequency\n"
            "invert_frequency((2 / 6,), 'E', Ellipsoid((0.16, 1.0)))\n"
            "invert_frequency((3 / 8, 2 / 8), 'H1H1', Ellipsoid((0.13, 0.8, 1.0)))\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.strip() == "False"


def _full_scan_starts(omega_rows, target, ctype, ell):
    """The six best (norm, x1, x2) of the grid, every row converged in full."""
    grid = _scan_grid(ctype, ell)
    omega, _, ok = omega_rows(grid, ell, 1e-12)
    norms = np.where(ok, np.max(np.abs(omega - target), axis=1), math.inf)
    return sorted((nrm, x1, x2) for nrm, (x1, x2) in zip(norms.tolist(), grid.tolist()))[:6]


def _logged_starts(monkeypatch, target, ctype, ell):
    """The Newton starts of an inversion, batch by batch; Newton stops at once."""
    batches = []

    def newton(resid_rows, clip, lam0, bounds, tol_omega):
        batches.append([tuple(row) for row in lam0.tolist()])
        return lam0, [math.inf] * len(lam0), [None] * len(lam0)

    monkeypatch.setattr(spectral, "_newton", newton)
    with pytest.raises(NoSolutionInComponent):
        invert_frequency(target, ctype, ell)
    return batches


def _other_local_minima(norms, ctype, ell, six):
    """The scan rows, not among ``six``, whose finite norm is at most every neighbour's.

    A row's neighbours are the up to eight cells around it in the product
    of the per-axis grids; a cell the ordered filter dropped counts as
    +inf.  Sorted as (norm, x1, x2) tuples, like the starts.
    """
    (lo1, hi1), (lo2, hi2) = caustic_component_bounds(ctype, ell)
    g1, g2 = spectral._edge_clustered_grid(lo1, hi1), spectral._edge_clustered_grid(lo2, hi2)
    at = dict(zip(map(tuple, _scan_grid(ctype, ell).tolist()), norms.tolist()))
    out = []
    for i, j in np.ndindex(len(g1), len(g2)):
        x = (float(g1[i]), float(g2[j]))
        if x not in at or x in six or not math.isfinite(at[x]):
            continue
        around = [at.get((float(g1[i + di]), float(g2[j + dj])), math.inf)
                  for di in (-1, 0, 1) for dj in (-1, 0, 1)
                  if (di or dj) and 0 <= i + di < len(g1) and 0 <= j + dj < len(g2)]
        if all(at[x] <= v for v in around):
            out.append((at[x],) + x)
    return [tuple(x) for _, *x in sorted(out)]


def _check_rescue_batches(batches, target, ctype, ell, six):
    """After the starts [1, 5], at most one batch: every other local minimum, in order."""
    norms = _scan_norms(target, ctype, ell)
    rest = _other_local_minima(norms, ctype, ell, set(six))
    assert batches[2:] == ([rest] if rest else [])


@pytest.mark.parametrize("coarse", [False, True])
def test_scan_starts_match_tuple_sort(monkeypatch, coarse):
    # H1H1 grids repeat every x1 for many x2; coarse frequencies make
    # many grid norms tie, so that x1 and then x2 order the starts, as in
    # a sort of (norm, x1, x2) tuples
    ell, ctype = Ellipsoid((0.13, 0.8, 1.0)), "H1H1"
    target = np.array(WindingNumbers((4, 3, 2)).target())
    original = spectral._omega_rows

    def omega_rows(lams, ell, tol, **kw):
        omega, err, ok = original(lams, ell, tol, **kw)
        return (np.round(omega * 4.0) / 4.0 if coarse else omega), err, ok

    monkeypatch.setattr(spectral, "_omega_rows", omega_rows)
    batches = _logged_starts(monkeypatch, target, ctype, ell)
    ref = _full_scan_starts(omega_rows, target, ctype, ell)
    # the best start alone, then the other five in one stack; Newton never
    # converges here, so the scan's other local minima follow
    six = [(x1, x2) for _, x1, x2 in ref]
    assert [len(b) for b in batches[:2]] == [1, 5]
    assert [x for b in batches[:2] for x in b] == six
    _check_rescue_batches(batches, target, ctype, ell, six)
    if coarse:      # one norm and one x1: x2 alone orders these six
        assert len({(nrm, x1) for nrm, x1, _ in ref}) == 1


def test_quadrature_non_convergence_is_reported(monkeypatch, ell_mid, ell2d):
    # a tolerance no change can meet
    monkeypatch.setattr(spectral, "_QUAD_TOL", -1.0)
    with pytest.raises(QuadratureNotConverged):
        frequency_map(CausticParams.from_values((0.2, 0.6), ell_mid), ell_mid)
    with pytest.raises(QuadratureNotConverged):
        rotation_number(CausticParams((0.1,), "E"), ell2d)


GOLDEN_INVERSIONS = [
    ("H1H1", (4, 3, 2), (0.13, 0.8, 1.0)),
    ("EH2", (5, 4, 2), (0.2, 0.3969, 1.0)),
    ("H1H2", (6, 4, 2), (0.13, 0.45, 1.0)),
    ("EH1", (6, 4, 2), (0.13, 0.8, 1.0)),
]
#: Per golden row: the scan grid's size (H1H1 keeps the points with
#: x1 < x2), the most rows the scan may converge in full after level 4,
#: and the most _omega_rows calls Newton may make after it.
GOLDEN_CALLS = {"H1H1": (378, 10, 5), "EH2": (784, 6, 4), "H1H2": (784, 8, 11),
                "EH1": (784, 11, 4)}


@pytest.mark.parametrize("ctype,m,axes", GOLDEN_INVERSIONS)
def test_golden_inversion_scans_in_batches(monkeypatch, ctype, m, axes):
    # the whole grid in one call to level 4, then the few rows that can
    # still rank among the starts in one full call; then each Newton
    # point goes in one call with its Jacobian stencil
    calls = _count_omega_rows(monkeypatch)
    invert_frequency(WindingNumbers(m).target(), ctype, Ellipsoid(axes))
    grid_rows, full_rows, newton_calls = GOLDEN_CALLS[ctype]
    stages = [stage for stage, _ in calls]
    full = [rows for stage, rows in calls if stage == "full"]
    assert calls[0] == ("level 4", grid_rows)
    assert stages == ["level 4"] + ["full"] * len(full) + ["newton"] * (len(calls) - 1 - len(full))
    assert len(full) == 1 and full[0] <= full_rows
    assert 0 < stages.count("newton") <= newton_calls


#: Inversions in a row, each (type, caustic parameters it inverts back to,
#: axes) and whether it finds the previous one's scan: two targets on one
#: key (H1H1 has the ordered filter), another type, another shape, back to
#: the first key (one scan is kept), then two targets of one R^4 type.
SWEEP = [
    ("H1H1", (0.3, 0.5), (0.13, 0.8, 1.0), False),
    ("H1H1", (0.2, 0.6), (0.13, 0.8, 1.0), True),
    ("EH1", (0.05, 0.5), (0.13, 0.8, 1.0), False),
    ("H1H1", (0.2, 0.35), (0.13, 0.45, 1.0), False),
    ("H1H1", (0.3, 0.5), (0.13, 0.8, 1.0), False),
    ("EH1H2", (0.05, 0.2, 0.45), (0.1, 0.3, 0.6, 1.0), False),
    ("EH1H2", (0.03, 0.15, 0.5), (0.1, 0.3, 0.6, 1.0), True),
]


def _sweep_case(ctype, lams, axes):
    ell = Ellipsoid(axes)
    return spectral.frequencies(CausticParams(lams, ctype), ell).omega, ctype, ell


def _cold_outcome(target, ctype, ell):
    spectral._LAST_SCAN = None
    return _inversion_outcome(target, ctype, ell)


def test_scan_reuse_is_bit_identical(monkeypatch):
    # each inversion gives the bits it gives with no scan kept, and only
    # the ones that follow their own key skip the level-4 pass
    cases = [_sweep_case(*case[:3]) for case in SWEEP]
    cold = [_cold_outcome(*case) for case in cases]
    assert all(isinstance(lam, tuple) for lam in cold)
    spectral._LAST_SCAN = None
    calls = _count_omega_rows(monkeypatch)
    for case, want, (*_, reused) in zip(cases, cold, SWEEP):
        del calls[:]
        assert _inversion_outcome(*case) == want
        assert [stage for stage, _ in calls].count("level 4") == (0 if reused else 1)


def test_kept_scan_is_read_only():
    invert_frequency(*_sweep_case(*SWEEP[0][:3]))
    _, grid, cells, _, level4 = spectral._LAST_SCAN
    for arr in (grid, cells) + level4:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]


def test_concurrent_inversions_match_sequential_ones():
    # more threads than cores, switching often, take turns replacing the
    # one kept scan; each gets the lambda of a sequential inversion
    cases = [_sweep_case(*case[:3]) for case in SWEEP[:5]]
    want = [_cold_outcome(*case) for case in cases]
    runs = [[0, 1, 0, 1], [2, 3, 2, 4], [1, 2, 4, 0], [3, 3, 1, 2]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(runs)) as pool:
            futures = [pool.submit(lambda run: [_inversion_outcome(*cases[k]) for k in run], run)
                       for run in runs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [[want[k] for k in run] for run in runs]


@pytest.mark.parametrize("ell", ATLAS_FALLBACK_SHAPES, ids=lambda e: str(e.axes))
def test_level4_scan_error_within_its_bound(ell):
    # a row converged at level 4 has its final bits; any other row is
    # within its bound, the change from level 3 to 4, with room to spare
    for ctype in ("EH1", "H1H1", "EH2", "H1H2"):
        grid = _scan_grid(ctype, ell)
        omega4, err4, ok4 = spectral._omega_rows(grid, ell, 1e-12,
                                                 max_level=quadrature._BASE_LEVEL + 1)
        omega, _, ok = spectral._omega_rows(grid, ell, 1e-12)
        assert ok.all() and 0 < ok4.sum() < len(grid)
        assert np.array_equal(omega4[ok4], omega[ok4])
        dev = np.max(np.abs(omega - omega4), axis=1)[~ok4]
        assert np.all(dev <= 1e-3 * err4[~ok4])


@pytest.mark.parametrize("ctype,m,axes", GOLDEN_INVERSIONS)
def test_inversion_peak_memory(ctype, m, axes):
    # the one-call scan's temporaries stay bounded by quadrature._CHUNK
    target, ell = WindingNumbers(m).target(), Ellipsoid(axes)
    invert_frequency(target, ctype, ell)        # warm: node tables, caches
    tracemalloc.start()
    try:
        invert_frequency(target, ctype, ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


class _Unconverged(Exception):
    """A one-point evaluation met an unconverged quadrature row."""


def _newton_one_point(resid_rows, clip, lam0, bounds, tol_omega):
    """Reference Newton: start after start, every point on its own.

    Stops after the first start that converges or meets an unconverged
    point; the starts after it keep their start point and an infinite
    norm, which the caller never reads.  Same return as
    ``spectral._newton``: the last iterates, their residual norms, and
    each start's unconverged point or None.
    """
    lams, nrms, stuck = np.array(lam0, dtype=float), [math.inf] * len(lam0), [None] * len(lam0)
    for k, lam in enumerate(lam0):
        lams[k], nrms[k], stuck[k] = _one_point_search(resid_rows, clip, lam, bounds, tol_omega)
        if nrms[k] <= tol_omega or stuck[k] is not None:
            break
    return lams, nrms, stuck


def _one_point_search(resid_rows, clip, lam0, bounds, tol_omega):
    """One start, three retries on a stall; stops at an unconverged point."""
    n = len(bounds)
    los = np.array([lo for lo, _ in bounds])
    widths = np.array([hi - lo for lo, hi in bounds])

    def to_lam(s):
        return clip(los + widths / (1.0 + np.exp(-s)))

    def resid(lam):
        r, ok = resid_rows(lam[None])
        if not ok[0]:
            raise _Unconverged(lam)
        return r[0]

    u = np.clip((lam0 - los) / widths, 1e-12, 1.0 - 1e-12)
    s = np.log(u / (1.0 - u))
    try:
        r = resid(to_lam(s))
        nrm = float(np.max(np.abs(r)))
        stall = 0
        for _ in range(60):
            if nrm <= tol_omega:
                break
            h = 1e-5
            jac = np.empty((n, n))
            for j in range(n):
                dp = np.zeros(n)
                dp[j] = h
                jac[:, j] = (resid(to_lam(s + dp)) - resid(to_lam(s - dp))) / (2.0 * h)
            try:
                step = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError:
                break
            step = np.clip(step, -8.0, 8.0)
            damp, improved = 1.0, False
            for _ in range(10):
                cand = s + damp * step
                rc = resid(to_lam(cand))
                nc = float(np.max(np.abs(rc)))
                if nc < nrm:
                    s, r, nrm, improved = cand, rc, nc, True
                    break
                damp *= 0.5
            stall = 0 if improved else stall + 1
            if stall >= 3:
                break
    except _Unconverged as exc:
        return exc.args[0], math.inf, exc.args[0]
    return to_lam(s), nrm, None


def _inversion_outcome(target, ctype, ell):
    try:
        return invert_frequency(target, ctype, ell).lambdas
    except (NoSolutionInComponent, QuadratureNotConverged) as exc:
        return f"{type(exc).__name__}: {exc}"


#: Targets on which the best start stalls and the second converges (seeded
#: freq_invert targets), and one on which all six starts stall.
SECOND_START = (("EH1", (0.25, 0.49, 1.0), (0.28656519457485324, 0.17242543317333667)),
                ("EH2", (0.05, 0.95, 1.0), (0.07172949402987333, 0.06245125888927615)),
                ("H1H2", (0.13, 0.45, 1.0), (0.2260902059620353, 0.12989128694062627)))
ALL_STALL = ("H1H2", (0.13, 0.45, 1.0), WindingNumbers((8, 6, 2)).target())


def _count_newton_calls(monkeypatch, newton) -> list[int]:
    """Install ``newton`` as ``_newton``; log the _omega_rows calls made inside it."""
    calls, inside = [], []
    rows = spectral._omega_rows

    def counting(lams, ell, tol, **kw):
        if inside:
            calls.append(len(lams))
        return rows(lams, ell, tol, **kw)

    def wrapped(*args):
        inside.append(True)
        try:
            return newton(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(spectral, "_omega_rows", counting)
    monkeypatch.setattr(spectral, "_newton", wrapped)
    return calls


def _check_one_point_match(monkeypatch, target, ctype, ell, ratio):
    """Same outcome as the one-point reference, from fewer Newton calls.

    Newton's own _omega_rows calls are counted, not the scan's: no
    single-row call (a point goes with its Jacobian stencil) and
    ``ratio`` x fewer calls in all.
    """
    newton = spectral._newton
    batched_calls = _count_newton_calls(monkeypatch, newton)
    batched = _inversion_outcome(target, ctype, ell)
    one_point_calls = _count_newton_calls(monkeypatch, _newton_one_point)
    assert batched == _inversion_outcome(target, ctype, ell)
    assert 1 not in batched_calls
    assert 0 < ratio * len(batched_calls) < len(one_point_calls)


@pytest.mark.parametrize("ctype,m,axes", [
    ("EH2", (5, 4, 2), (0.2, 0.3969, 1.0)),     # golden row: the first start converges
    ("H1H2", (8, 6, 2), (0.13, 0.45, 1.0)),     # every start stalls
    ("EH2", (8, 4, 2), (0.05, 0.95, 1.0)),      # starts improve, then stall
    # R^4, where the first start converges
    ("EH1H2", (12, 8, 6, 4), (0.1, 0.3, 0.6, 1.0)),
    ("H1H1H2", (12, 8, 6, 4), (0.1, 0.3, 0.6, 1.0)),     # an ordered pair
    ("H1H2H3", (12, 8, 6, 4), (0.1, 0.3, 0.6, 1.0)),
])
def test_batched_newton_matches_one_point_search(monkeypatch, ctype, m, axes):
    # where the best start converges, the saving is its Jacobian (2n
    # points in one call) and line search; stalls also run five in one
    ratio = 5 if len(m) == 4 else 2 if m == (5, 4, 2) else 8
    _check_one_point_match(monkeypatch, WindingNumbers(m).target(), ctype, Ellipsoid(axes), ratio)


@st.composite
def inversion_targets(draw):
    """omega of seeded caustics of a 2D type on a stock shape, some near an edge."""
    ell = draw(st.sampled_from(STOCK_ELLIPSOIDS_3D))
    ctype = draw(st.sampled_from(("EH1", "H1H1", "EH2", "H1H2")))
    bounds = caustic_component_bounds(ctype, ell)
    u = [draw(st.floats(0.05, 0.95)) for _ in bounds]
    if draw(st.booleans()):         # one coordinate 1e-5 to 1e-3 (relative) from an edge
        off = 10.0 ** draw(st.floats(-5.0, -3.0))
        u[draw(st.integers(0, 1))] = off if draw(st.booleans()) else 1.0 - off
    lams = sorted(lo + x * (hi - lo) for (lo, hi), x in zip(bounds, u))
    assume(lams[1] - lams[0] > 1e-3 * (bounds[0][1] - bounds[0][0]))
    return frequency_map(CausticParams(tuple(lams), ctype), ell).omega, ctype, ell


@settings(max_examples=20)
@given(inversion_targets())
def test_speculative_stencils_match_one_point_search(case):
    # the stencils evaluated with each full step change no iterate, stop
    # or reported point: the same lambda bits, or the same stall message
    target, ctype, ell = case
    batched = _inversion_outcome(target, ctype, ell)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_newton", _newton_one_point)
        assert _inversion_outcome(target, ctype, ell) == batched


@settings(max_examples=30)
@given(inversion_targets())
def test_lazy_scan_starts_match_full_scan(case):
    # the grid at level 4 and a few rows in full give the six starts, in
    # order, of a scan that converges every row, and their exact norms
    target, ctype, ell = np.array(case[0]), case[1], case[2]
    with pytest.MonkeyPatch.context() as mp:
        batches = _logged_starts(mp, target, ctype, ell)
    ref = _full_scan_starts(spectral._omega_rows, target, ctype, ell)
    six = [(x1, x2) for _, x1, x2 in ref]
    assert [x for b in batches[:2] for x in b] == six
    norms = _scan_norms(target, ctype, ell)
    assert sorted(norms.tolist())[:6] == [nrm for nrm, _, _ in ref]
    _check_rescue_batches(batches, target, ctype, ell, six)


@pytest.mark.parametrize("case", SECOND_START)
def test_second_start_wins_after_the_best_stalls(monkeypatch, case):
    ctype, axes, target = case
    runs = []
    newton = spectral._newton

    def logging(*args):
        out = newton(*args)
        runs.append(out[1])
        return out

    monkeypatch.setattr(spectral, "_newton", logging)
    invert_frequency(target, ctype, Ellipsoid(axes))
    assert [len(nrms) for nrms in runs] == [1, 5]
    assert runs[0][0] > 1e-10 and runs[1][0] <= 1e-10
    monkeypatch.undo()
    _check_one_point_match(monkeypatch, target, ctype, Ellipsoid(axes), 3)


@pytest.mark.parametrize("case,converges", [(SECOND_START[0], True), (ALL_STALL, False)])
def test_unconverged_point_of_a_later_start(monkeypatch, case, converges):
    # the fourth start's first point misses the quadrature tolerance: an
    # earlier start that converges wins, else the inversion raises there
    ctype, axes, target = case
    ell = Ellipsoid(axes)
    clean = _inversion_outcome(target, ctype, ell)
    rows, newton = spectral._omega_rows, spectral._newton
    poisoned = []

    def omega_rows(lams, ell, tol, **kw):
        omega, err, ok = rows(lams, ell, tol, **kw)
        for lam in poisoned:
            ok = ok & ~np.all(np.abs(np.asarray(lams).reshape(-1, 2) - lam) < 1e-12, axis=1)
        return omega, err, ok

    def poisoning(impl):
        def run(resid_rows, clip, lam0, *args):
            if len(lam0) > 1:
                poisoned.append(lam0[2])
            return impl(resid_rows, clip, lam0, *args)
        return run

    monkeypatch.setattr(spectral, "_omega_rows", omega_rows)
    outcomes = []
    for impl in (newton, _newton_one_point):
        poisoned.clear()
        monkeypatch.setattr(spectral, "_newton", poisoning(impl))
        outcomes.append(_inversion_outcome(target, ctype, ell))
    assert outcomes[0] == outcomes[1]
    if converges:
        assert outcomes[0] == clean
    else:
        assert outcomes[0].startswith("QuadratureNotConverged: period integrals for caustic")


def test_singular_jacobian_stops_only_its_start():
    # a map flat around the first start gives it a singular Jacobian,
    # which fails a whole batched solve; the second start goes on as alone
    root = np.array([0.3, 0.6])

    def resid_rows(lams):
        flat = lams[:, 0] > 0.8
        return np.where(flat[:, None], 0.25, lams - root + 0.1 * (lams - root) ** 2), \
            np.ones(len(lams), dtype=bool)

    def clip(lams):
        return lams

    starts = np.array([[0.9, 0.5], [0.2, 0.5]])
    b = np.array([(0.0, 1.0), (0.0, 1.0)])
    lams, nrms, stuck = spectral._newton(resid_rows, clip, starts, b, 1e-12)
    assert stuck == [None, None]
    assert nrms[0] == 0.25 and np.allclose(lams[0], starts[0], rtol=0.0, atol=1e-15)
    assert nrms[0] == _newton_one_point(resid_rows, clip, starts[:1], b, 1e-12)[1][0]
    alone = spectral._newton(resid_rows, clip, starts[1:], b, 1e-12)
    assert np.array_equal(lams[1], alone[0][0]) and nrms[1] == alone[1][0] <= 1e-12


#: Seeded freq_invert targets on which all six starts stall and another
#: local minimum of the scan converges: EH1 on (0.05, 0.95, 1).
RESCUED = ((0.016316498523874044, 0.17635413370224312),
           (0.01689867903215345, 0.19197526763784312),
           (0.01673541125551715, 0.18180540150727598))


@pytest.mark.parametrize("lams", RESCUED)
def test_rescued_stalls_invert(ell_flat, lams):
    target = frequency_map(CausticParams(lams, "EH1"), ell_flat).omega
    got = invert_frequency(target, "EH1", ell_flat).lambdas
    assert max(abs(a - b) for a, b in zip(got, lams)) < 1e-8


def test_other_local_minimum_converges_after_six_stalls(monkeypatch, ell_flat):
    # the six starts stall; the third batch holds the scan's other local
    # minima, and the first of them to converge gives lambda
    target = frequency_map(CausticParams(RESCUED[0], "EH1"), ell_flat).omega
    runs = []
    newton = spectral._newton

    def logging(resid_rows, clip, lam0, *args):
        out = newton(resid_rows, clip, lam0, *args)
        runs.append(([tuple(x) for x in lam0.tolist()], out[1], out[0]))
        return out

    monkeypatch.setattr(spectral, "_newton", logging)
    lam = invert_frequency(target, "EH1", ell_flat)
    assert [len(starts) for starts, _, _ in runs] == [1, 5, 1]
    assert min(nrm for _, nrms, _ in runs[:2] for nrm in nrms) > 1e-10
    six = [x for starts, _, _ in runs[:2] for x in starts]
    norms = _scan_norms(np.array(target), "EH1", ell_flat)
    assert runs[2][0] == _other_local_minima(norms, "EH1", ell_flat, set(six))
    assert runs[2][1][0] <= 1e-10 and lam.lambdas == tuple(runs[2][2][0])
