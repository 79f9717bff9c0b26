import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confocal_billiards import (
    CausticParams,
    Ellipsoid,
    NoSolutionInComponent,
    QuadratureNotConverged,
    SingularCaustic,
    WindingNumbers,
    count_windings,
    cuboid,
    empirical_frequency,
    even_required,
    frequency_map,
    invert_frequency,
    iterate_orbit,
    parity_violations,
    rotation_number,
    seed_point,
)
from confocal_billiards import quadrature, spectral
from confocal_billiards.dynamics import reversor_from_key
from confocal_billiards.geometry import caustic_component_bounds
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
    lam = CausticParams.from_values((0.2, 0.6), ell_mid)
    coarse = frequency_map(lam, ell_mid, tol=1e-8)
    fine = frequency_map(lam, ell_mid, tol=1e-14)
    assert max(abs(a - b) for a, b in zip(coarse.omega, fine.omega)) <= max(coarse.error, 1e-12)


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


def test_sampled_estimator_agrees_with_event_counting(ell_mid):
    lam = CausticParams.from_values((0.2, 0.6), ell_mid)
    ev = empirical_frequency(lam, ell_mid, bounces=400)
    sampled = empirical_frequency(lam, ell_mid, bounces=400, samples_per_chord=48)
    assert max(abs(a - b) for a, b in zip(ev.omega, sampled.omega)) < 5e-3


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
    m = seed_point(reversor_from_key("R2", 3), lam, ell_mid, side=1)
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


@pytest.mark.parametrize("coarse", [False, True])
def test_scan_starts_match_tuple_sort(monkeypatch, coarse):
    # H1H1 grids repeat every x1 for many x2; coarse frequencies make
    # many grid norms tie, so that x1 and then x2 order the starts, as in
    # a sort of (norm, x1, x2) tuples
    ell, ctype = Ellipsoid((0.13, 0.8, 1.0)), "H1H1"
    target = np.array(WindingNumbers((4, 3, 2)).target())
    original = spectral._omega_rows

    def omega_rows(lams, ell, tol):
        omega, err, ok = original(lams, ell, tol)
        return (np.round(omega * 4.0) / 4.0 if coarse else omega), err, ok

    starts = []

    def newton(resid, resid_rows, clip, lam0, b1, b2, tol_omega):
        starts.append(tuple(lam0.tolist()))
        return lam0, math.inf

    monkeypatch.setattr(spectral, "_omega_rows", omega_rows)
    monkeypatch.setattr(spectral, "_newton_2d", newton)
    with pytest.raises(NoSolutionInComponent):
        invert_frequency(target, ctype, ell)

    (lo1, hi1), (lo2, hi2) = caustic_component_bounds(ctype, ell)
    margin = 1e-9 * ell.axes[-1]
    grid = [(x1, x2) for x1 in spectral._edge_clustered_grid(lo1, hi1)
            for x2 in spectral._edge_clustered_grid(lo2, hi2) if not x2 <= x1 + margin]
    omega, _, ok = omega_rows(np.array(grid), ell, 1e-12)
    norms = np.where(ok, np.max(np.abs(omega - target), axis=1), math.inf)
    ref = sorted((nrm, x1, x2) for nrm, (x1, x2) in zip(norms.tolist(), grid))[:6]
    assert starts == [(x1, x2) for _, x1, x2 in ref]
    if coarse:      # one norm and one x1: x2 alone orders these six
        assert len({(nrm, x1) for nrm, x1, _ in ref}) == 1


def test_quadrature_non_convergence_is_reported(ell_mid, ell2d):
    with pytest.raises(QuadratureNotConverged):
        frequency_map(CausticParams.from_values((0.2, 0.6), ell_mid), ell_mid, tol=-1.0)
    with pytest.raises(QuadratureNotConverged):
        rotation_number(CausticParams((0.1,), "E"), ell2d, tol=-1.0)


@pytest.mark.parametrize("ctype,m,axes", [
    ("H1H1", (4, 3, 2), (0.13, 0.8, 1.0)),
    ("EH2", (5, 4, 2), (0.2, 0.3969, 1.0)),
    ("H1H2", (6, 4, 2), (0.13, 0.45, 1.0)),
    ("EH1", (6, 4, 2), (0.13, 0.8, 1.0)),
])
def test_golden_inversion_scans_in_batches(monkeypatch, ctype, m, axes):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = spectral.frequency_map
    monkeypatch.setattr(spectral, "frequency_map", counting)
    invert_frequency(WindingNumbers(m).target(), ctype, Ellipsoid(axes))
    assert 0 < len(calls) < 100


def _newton_one_point(resid, resid_rows, clip, lam0, b1, b2, tol_omega):
    """Reference Newton: every point on its own, three retries on a stall."""
    los = np.array([b1[0], b2[0]])
    widths = np.array([b1[1] - b1[0], b2[1] - b2[0]])

    def to_lam(s):
        return clip(los + widths / (1.0 + np.exp(-s)))

    u = np.clip((lam0 - los) / widths, 1e-12, 1.0 - 1e-12)
    s = np.log(u / (1.0 - u))
    r = resid(to_lam(s))
    nrm = float(np.max(np.abs(r)))
    stall = 0
    for _ in range(60):
        if nrm <= tol_omega:
            break
        h = 1e-5
        jac = np.empty((2, 2))
        for j in range(2):
            dp = np.zeros(2)
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
    return to_lam(s), nrm


def _inversion_outcome(target, ctype, ell):
    try:
        return invert_frequency(target, ctype, ell).lambdas
    except NoSolutionInComponent as exc:
        return str(exc)


@pytest.mark.parametrize("ctype,m,axes", [
    ("EH2", (5, 4, 2), (0.2, 0.3969, 1.0)),     # golden row: the first start converges
    ("H1H2", (8, 6, 2), (0.13, 0.45, 1.0)),     # every start stalls
    ("EH2", (8, 4, 2), (0.05, 0.95, 1.0)),      # starts improve, then stall
])
def test_batched_newton_matches_one_point_search(monkeypatch, ctype, m, axes):
    ell, target = Ellipsoid(axes), WindingNumbers(m).target()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = spectral.frequency_map
    monkeypatch.setattr(spectral, "frequency_map", counting)
    batched = _inversion_outcome(target, ctype, ell)
    batched_calls = len(calls)
    monkeypatch.setattr(spectral, "_newton_2d", _newton_one_point)
    assert batched == _inversion_outcome(target, ctype, ell)
    # same iterates from far fewer one-point evaluations
    assert 0 < 3 * batched_calls < len(calls) - batched_calls
