import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confocal_billiards import (
    CausticParams,
    Ellipsoid,
    PhasePoint,
    Reflection,
    Reversor,
    all_reflections,
    all_reversors,
    apply_reversor,
    apply_symmetry,
    billiard_map,
    billiard_map_inverse,
    caustic_params_of_line,
    dual_map,
    iterate_orbit,
    nonempty_reversors,
    seed_point,
    tangent_directions,
)
from confocal_billiards.dynamics import _SURFACE_EPS, _impacts, _orbit, reversor_from_key
from confocal_billiards.errors import NoSolutionInComponent
from confocal_billiards.spectral import default_tangent_start
from conftest import random_phase_point


def phase_diff(m1, m2):
    return max(float(np.max(np.abs(m1.q_arr - m2.q_arr))),
               float(np.max(np.abs(m1.p_arr - m2.p_arr))))


def test_two_periodic_chord():
    ell = Ellipsoid((1.0, 2.0))
    m = PhasePoint((0.0, math.sqrt(2.0)), (0.0, 1.0))
    out = billiard_map(m, ell)
    assert out.q_arr == pytest.approx([0.0, -math.sqrt(2.0)], abs=1e-14)
    assert out.p_arr == pytest.approx([0.0, -1.0], abs=1e-14)
    back = billiard_map(out, ell)
    assert phase_diff(back, m) < 1e-14


def test_golden_period_4_closure(ell_mid):
    # the published caustic values carry six decimals; the orbit seeded
    # from them nearly closes, and from the exactly-inverted parameters
    # it closes sharply
    from confocal_billiards import invert_frequency
    lam_pub = CausticParams.from_values((0.130077, 0.648376), ell_mid)
    m = seed_point(reversor_from_key("R2", 3), lam_pub, ell_mid, side="o")
    qs, ps = iterate_orbit(m, ell_mid, 4)
    assert np.max(np.abs(qs[-1] - qs[0])) < 1e-5
    lam = invert_frequency((3 / 8, 2 / 8), "H1H1", ell_mid)
    assert np.max(np.abs(np.array(lam.lambdas) - lam_pub.lambdas)) < 1e-5
    m = seed_point(reversor_from_key("R2", 3), lam, ell_mid, side="o")
    qs, ps = iterate_orbit(m, ell_mid, 4)
    assert np.max(np.abs(qs[-1] - qs[0])) < 1e-8
    assert np.max(np.abs(ps[-1] - ps[0])) < 1e-8


def test_inverse_identity(ell_mid, rng):
    worst = 0.0
    for _ in range(1000):
        q, p = random_phase_point(ell_mid, rng)
        m = PhasePoint(tuple(q), tuple(p))
        back = billiard_map_inverse(billiard_map(m, ell_mid), ell_mid)
        worst = max(worst, phase_diff(back, m))
    assert worst < 1e-12


def test_inverse_preserves_caustics(ell_mid, rng):
    for _ in range(50):
        q, p = random_phase_point(ell_mid, rng)
        m = PhasePoint(tuple(q), tuple(p))
        lam = caustic_params_of_line(m.q_arr, m.p_arr, ell_mid)
        prev = billiard_map_inverse(m, ell_mid)
        lam2 = caustic_params_of_line(prev.q_arr, prev.p_arr, ell_mid)
        assert np.max(np.abs(np.array(lam.lambdas) - lam2.lambdas)) < 1e-10


def test_symmetry_basics(ell_mid, rng):
    ident = Reflection.identity(3)
    central = Reflection.central(3)
    m = PhasePoint((0.0, 0.0, 1.0), (0.0, 0.6, 0.8))
    assert phase_diff(apply_symmetry(ident, m), m) == 0.0
    flipped = apply_symmetry(central, m)
    assert flipped.q == (0.0, 0.0, -1.0) and flipped.p == (0.0, -0.6, -0.8)
    worst = 0.0
    for _ in range(1000):
        q, p = random_phase_point(ell_mid, rng)
        m = PhasePoint(tuple(q), tuple(p))
        for sigma in all_reflections(3):
            lhs = billiard_map(apply_symmetry(sigma, m), ell_mid)
            rhs = apply_symmetry(sigma, billiard_map(m, ell_mid))
            worst = max(worst, phase_diff(lhs, rhs))
    assert worst < 1e-12


def test_reversor_fixes_normal_incidence(ell_mid):
    q = ell_mid.surface_point(np.array([0.3, 0.5, 0.8]))
    n = ell_mid.normal(q)
    m = PhasePoint(tuple(q), tuple(n / np.linalg.norm(n)))
    r = Reversor("tilde", Reflection.identity(3))
    assert phase_diff(apply_reversor(r, m, ell_mid), m) < 1e-14


def test_hat_reversor_antipodal():
    ell = Ellipsoid((1.0, 2.0))
    m = PhasePoint((0.0, math.sqrt(2.0)), (0.0, 1.0))
    r = Reversor("hat", Reflection.identity(2))
    out = apply_reversor(r, m, ell)
    assert out.q_arr == pytest.approx([0.0, -math.sqrt(2.0)], abs=1e-14)
    assert out.p_arr == pytest.approx([0.0, -1.0], abs=1e-14)


def test_reversors_are_involutions(ell_mid, rng):
    worst = 0.0
    for r in all_reversors(3):
        for _ in range(100):
            q, p = random_phase_point(ell_mid, rng)
            m = PhasePoint(tuple(q), tuple(p))
            back = apply_reversor(r, apply_reversor(r, m, ell_mid), ell_mid)
            worst = max(worst, phase_diff(back, m))
    assert worst < 1e-12


def test_factorization(ell_mid, rng):
    worst = 0.0
    for sigma in all_reflections(3):
        r_tilde = Reversor("tilde", sigma)
        r_hat = Reversor("hat", sigma)
        for _ in range(100):
            q, p = random_phase_point(ell_mid, rng)
            m = PhasePoint(tuple(q), tuple(p))
            composed = apply_reversor(r_hat, apply_reversor(r_tilde, m, ell_mid), ell_mid)
            worst = max(worst, phase_diff(composed, billiard_map(m, ell_mid)))
    assert worst < 1e-12


def test_reversibility_identity(ell_mid, rng):
    # f o r o f = r for both families
    worst = 0.0
    for key in ("R", "fR13"):
        r = reversor_from_key(key, 3)
        for _ in range(200):
            q, p = random_phase_point(ell_mid, rng)
            m = PhasePoint(tuple(q), tuple(p))
            lhs = billiard_map(apply_reversor(r, billiard_map(m, ell_mid), ell_mid), ell_mid)
            worst = max(worst, phase_diff(lhs, apply_reversor(r, m, ell_mid)))
    assert worst < 1e-11


def test_dual_map_identities(ell_mid, rng):
    worst_sq = worst_comm = 0.0
    for _ in range(1000):
        q, p = random_phase_point(ell_mid, rng)
        m = PhasePoint(tuple(q), tuple(p))
        g2 = dual_map(dual_map(m, ell_mid), ell_mid)
        minus_f = apply_symmetry(Reflection.central(3), billiard_map(m, ell_mid))
        worst_sq = max(worst_sq, phase_diff(g2, minus_f))
        fg = billiard_map(dual_map(m, ell_mid), ell_mid)
        gf = dual_map(billiard_map(m, ell_mid), ell_mid)
        worst_comm = max(worst_comm, phase_diff(fg, gf))
    assert worst_sq < 1e-12
    assert worst_comm < 1e-12


def test_dual_map_valid_output(ell_mid, rng):
    for _ in range(100):
        q, p = random_phase_point(ell_mid, rng)
        out = dual_map(PhasePoint(tuple(q), tuple(p)), ell_mid)
        assert abs(ell_mid.constraint(out.q_arr)) < 1e-12
        assert abs(np.linalg.norm(out.p_arr) - 1.0) < 1e-13
        assert float(ell_mid.normal(out.q_arr) @ out.p_arr) > 0.0


def test_caustic_invariance_long_orbit(ell_mid, rng):
    lam = CausticParams.from_values((0.2, 0.6), ell_mid)
    q = None
    for _ in range(100):
        cand = ell_mid.surface_point(rng.normal(size=3))
        dirs = tangent_directions(cand, lam, ell_mid)
        if dirs:
            q, p = cand, dirs[0]
            break
    qs, _ = iterate_orbit(PhasePoint(tuple(q), tuple(p)), ell_mid, 120)
    prev = None
    for q0, q1 in zip(qs[:-1], qs[1:]):
        got = np.array(caustic_params_of_line(q0, q1 - q0, ell_mid).lambdas)
        if prev is not None:
            assert np.max(np.abs(got - prev)) < 1e-10
        prev = got


def test_norm_stability_long_run(ell_mid, rng):
    q, p = random_phase_point(ell_mid, rng)
    m = PhasePoint(tuple(q), tuple(p))
    a = ell_mid.a
    worst_p = worst_q = 0.0
    for _ in range(10_000):
        m = billiard_map(m, ell_mid)
        worst_p = max(worst_p, abs(float(np.linalg.norm(m.p_arr)) - 1.0))
        worst_q = max(worst_q, abs(float(m.q_arr @ (m.q_arr / a)) - 1.0))
    assert worst_p < 1e-13
    assert worst_q < 1e-11


def test_reversor_catalog_sizes():
    assert len(all_reversors(3)) == 16
    assert len(nonempty_reversors(3)) == 14
    assert len(nonempty_reversors(2)) == 6
    empty = [r for r in all_reversors(3) if r.is_empty_set]
    assert {r.key for r in empty} == {"fR", "R123"}


# --------------------------------------------------------------------------
# The bounce kernel against the numpy kernels it replaced
# --------------------------------------------------------------------------

def _outside(residual):
    return ~((-_SURFACE_EPS < residual) & (residual < _SURFACE_EPS))


def _step_batch(Q, P, a):
    """Former lockstep kernel: one bounce of every row.

    A row's impact is projected and its velocity renormalized only where
    its residual lies outside the kernel's bound.
    """
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
    Q1 = np.where(_outside(c0)[:, None],
                  Q1 - (2.0 * c0 / (c1 + np.sqrt(disc)))[:, None] * G1, Q1)
    s = np.sum(P1 * P1, axis=1)
    P1 = np.where(_outside(s - 1.0)[:, None], P1 / np.sqrt(s)[:, None], P1)
    return Q1, P1


def _lockstep(Q, P, a, steps):
    """Rows 0..steps of every start under ``_step_batch``: shape (steps + 1, B, d)."""
    ref_q, ref_p = [Q], [P]
    for _ in range(steps):
        Q, P = _step_batch(Q, P, a)
        ref_q.append(Q)
        ref_p.append(P)
    return np.array(ref_q), np.array(ref_p)


def _step_arrays(q, p, a):
    """Former scalar kernel (dot products through BLAS)."""
    g = q / a
    nu = -2.0 * float(g @ p) / float(g @ g)
    p1 = p + nu * g
    mu = -2.0 * float(g @ p1) / float(p1 @ (p1 / a))
    q1 = q + mu * p1
    g = q1 / a
    c2 = float(g @ (g / a))
    c1 = 2.0 * float(g @ g)
    c0 = float(q1 @ g) - 1.0
    t = 2.0 * c0 / (c1 + math.sqrt(max(c1 * c1 - 4.0 * c2 * c0, 0.0)))
    q1 = q1 - t * g
    p1 = p1 / np.linalg.norm(p1)
    return q1, p1


KERNEL_CASES = [((0.16, 1.0), (0.1,)), ((0.13, 0.8, 1.0), (0.130077, 0.648376))]


def _tangent_starts(axes, lams, seed, count):
    """``count`` random starts tangent to the caustics ``lams``, in any dimension."""
    ell = Ellipsoid(axes)
    lam = CausticParams(tuple(lams), "")     # tangent_directions reads the values only
    rng = np.random.default_rng(seed)
    return ell, [default_tangent_start(lam, ell, rng) for _ in range(count)]


@pytest.mark.parametrize("axes, lams", KERNEL_CASES + [((0.1, 0.3, 0.6, 1.0), (0.05, 0.2, 0.5))])
def test_orbit_matches_lockstep_batch_bit_for_bit(axes, lams):
    ell, starts = _tangent_starts(axes, lams, 11, 3)
    Q, P = np.array([s.q for s in starts]), np.array([s.p for s in starts])
    ref_q, ref_p = _lockstep(Q, P, ell.a, 2000)
    for b, s in enumerate(starts):
        qs, ps = _orbit(s.q, s.p, ell.a, 2000)
        assert np.array_equal(qs, ref_q[:, b]) and np.array_equal(ps, ref_p[:, b])


@st.composite
def shapes_and_tangent_starts(draw):
    """A random shape in R^2..R^4 and a start tangent to random caustics.

    Caustic parameter k lies between axes k-1 and k+1 (axis -1 is 0),
    as in every caustic type of the catalogue.
    """
    d = draw(st.integers(2, 4))
    gaps = [draw(st.floats(0.05, 1.0)) for _ in range(d)]
    axes = tuple(np.cumsum(gaps) / np.sum(gaps))
    pad = (0.0,) + axes
    lams = [pad[k] + (pad[k + 2] - pad[k]) * draw(st.floats(0.05, 0.95)) for k in range(d - 1)]
    assume(all(b - a > 1e-3 for a, b in zip(lams, lams[1:])))
    assume(min(abs(v - x) for v in lams for x in axes) > 1e-3)
    try:
        ell, (start,) = _tangent_starts(axes, lams, draw(st.integers(0, 2**32 - 1)), 1)
    except NoSolutionInComponent:
        assume(False)
    return ell, start


@settings(max_examples=60)
@given(shapes_and_tangent_starts())
def test_orbit_matches_lockstep_batch_property(case):
    ell, start = case
    ref_q, ref_p = _lockstep(np.array([start.q]), np.array([start.p]), ell.a, 200)
    qs, ps = _orbit(start.q, start.p, ell.a, 200)
    assert np.array_equal(qs, ref_q[:, 0]) and np.array_equal(ps, ref_p[:, 0])


@pytest.mark.parametrize("steps", [0, 1, 7])
def test_orbit_output_layout(ell_mid, steps):
    _, (start,) = _tangent_starts(ell_mid.axes, (0.2, 0.6), 5, 1)
    for rows, first in zip(_orbit(start.q, start.p, ell_mid.a, steps), (start.q, start.p)):
        assert rows.shape == (steps + 1, 3) and rows.dtype == np.float64
        assert rows.flags.c_contiguous and rows.flags.writeable
        assert tuple(rows[0]) == first


# the ids end in "-True", as when the cases also ran an uncorrected kernel
@pytest.mark.parametrize("axes, lams", KERNEL_CASES,
                         ids=[f"axes{k}-lams{k}-True" for k in range(len(KERNEL_CASES))])
def test_iterate_orbit_steps_match_scalar_kernel(axes, lams):
    # the dot products sum in another order than BLAS: rounding-level only
    ell = Ellipsoid(axes)
    lam = CausticParams.from_values(lams, ell)
    start = default_tangent_start(lam, ell, np.random.default_rng(12))
    qs, ps = iterate_orbit(start, ell, 2000)
    for k in range(2000):
        q1, p1 = _step_arrays(qs[k], ps[k], ell.a)
        assert np.max(np.abs(q1 - qs[k + 1])) <= 1e-12
        assert np.max(np.abs(p1 - ps[k + 1])) <= 1e-12


def test_orbit_raises_on_tangential_impact(ell_mid):
    from confocal_billiards import DegenerateImpact
    q = ell_mid.surface_point(np.array([0.3, 0.5, 0.8]))
    n = ell_mid.normal(q)
    p = np.cross(n, [1.0, 0.0, 0.0])
    with pytest.raises(DegenerateImpact):
        _orbit(q, p / np.linalg.norm(p), ell_mid.a, 5)
    for steps in (-1, -5):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            _orbit(q, n / np.linalg.norm(n), ell_mid.a, steps)
    with pytest.raises(ValueError, match="3 coordinates"):
        _orbit(q[:2], n[:2], ell_mid.a, 1)


@settings(max_examples=30)
@given(shapes_and_tangent_starts())
def test_orbit_stays_on_the_surface_at_unit_speed_property(case):
    ell, start = case
    qs, ps = _orbit(start.q, start.p, ell.a, 2000)
    assert np.all(np.abs(np.sum(qs[1:] * (qs[1:] / ell.a), axis=1) - 1.0) <= _SURFACE_EPS)
    assert np.all(np.abs(np.sum(ps[1:] * ps[1:], axis=1) - 1.0) <= _SURFACE_EPS)


def test_one_bounce_projects_a_start_off_the_surface(ell_mid):
    _, (start,) = _tangent_starts(ell_mid.axes, (0.2, 0.6), 5, 1)
    q = np.array(start.q) * (1.0 + 1e-9)
    p = np.array(start.p) * (1.0 + 1e-9)
    qs, ps = _orbit(q, p, ell_mid.a, 1)
    assert abs(float(qs[0] @ (qs[0] / ell_mid.a)) - 1.0) > 1e-9
    assert abs(float(qs[1] @ (qs[1] / ell_mid.a)) - 1.0) <= _SURFACE_EPS
    assert abs(float(ps[1] @ ps[1]) - 1.0) <= _SURFACE_EPS


@pytest.mark.parametrize("axes, lams", KERNEL_CASES + [((0.1, 0.3, 0.6, 1.0), (0.05, 0.2, 0.5))])
def test_impacts_only_loop_matches_orbit_bit_for_bit(axes, lams):
    ell, starts = _tangent_starts(axes, lams, 3, 2)
    for s in starts:
        qs, _ = _orbit(s.q, s.p, ell.a, 2000)
        assert np.array_equal(_impacts(s.q, s.p, ell.a, 2000), qs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_start_raises(bad):
    ell = Ellipsoid((0.13, 0.8, 1.0))
    for q, p in (((bad, 0.0, 0.0), (0.0, 1.0, 0.0)), ((0.0, 0.0, 1.0), (0.0, bad, 1.0))):
        with pytest.raises(ValueError, match="non-finite start"):
            iterate_orbit(PhasePoint(q, p), ell, 3)
        with pytest.raises(ValueError, match="non-finite start"):
            _impacts(q, p, ell.a, 3)


# --------------------------------------------------------------------------
# Involution properties, near-degenerate axes included
# --------------------------------------------------------------------------

INVOLUTION_AXES = [(0.16, 1.0), (0.13, 0.8, 1.0), (0.02, 0.1, 1.0), (0.05, 0.95, 1.0)]


@st.composite
def phase_points(draw):
    ell = Ellipsoid(draw(st.sampled_from(INVOLUTION_AXES)))
    unit = st.floats(-1.0, 1.0)
    v = np.array([draw(unit) for _ in range(ell.dim)])
    p = np.array([draw(unit) for _ in range(ell.dim)])
    assume(np.linalg.norm(v) > 1e-3 and np.linalg.norm(p) > 1e-3)
    q = ell.surface_point(v)
    n = ell.normal(q) / np.linalg.norm(ell.normal(q))
    p = p / np.linalg.norm(p)
    p = p if n @ p > 0 else -p
    assume(n @ p > 1e-2)        # keep away from grazing chords
    return ell, PhasePoint(tuple(q), tuple(p))


@settings(max_examples=200)
@given(phase_points())
def test_reversors_are_involutions_property(case):
    ell, m = case
    for r in all_reversors(ell.dim):
        back = apply_reversor(r, apply_reversor(r, m, ell), ell)
        assert phase_diff(back, m) < 1e-12


@settings(max_examples=200)
@given(phase_points())
def test_dual_map_squares_to_minus_f_property(case):
    ell, m = case
    g2 = dual_map(dual_map(m, ell), ell)
    minus_f = apply_symmetry(Reflection.central(ell.dim), billiard_map(m, ell))
    assert phase_diff(g2, minus_f) < 1e-12
