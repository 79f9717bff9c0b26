import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confocal_billiards import (
    CausticParams,
    Ellipsoid,
    NegativeRadicand,
    NonGenericPoint,
    NonTransverse,
    SingularLine,
    cartesian_to_elliptic,
    caustic_params_of_line,
    caustic_type_of,
    cuboid,
    elliptic_to_cartesian,
    line_tangency_residual,
    tangent_directions,
)
from confocal_billiards.geometry import (
    caustic_component_bounds,
    caustic_params_of_lines,
    caustic_type,
    caustic_types,
    elliptic_coords,
)
from confocal_billiards.spectral import sample_elliptic_path

# Coordinate convention: axis j pairs with a_j ascending, so in 2D the
# first coordinate runs along the short axis.


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        Ellipsoid((2.0, 1.0))
    with pytest.raises(ValueError):
        Ellipsoid((-1.0, 2.0))
    with pytest.raises(ValueError):
        Ellipsoid((1.0,))
    for bad in ((math.nan, 1.0), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError):
            Ellipsoid(bad)
    ell = Ellipsoid((1, 2))
    assert ell.dim == 2 and ell.n == 1


def test_elliptic_coords_2d_known_values():
    ell = Ellipsoid((1.0, 2.0))
    # interior point on the long axis at distance 0.5
    ep = cartesian_to_elliptic(np.array([0.5, 0.0]), ell)
    assert ep.coords == pytest.approx((0.75, 2.0), abs=1e-13)
    # impact point at the end of the short semiaxis
    ep = cartesian_to_elliptic(np.array([1.0, 0.0]), ell)
    assert ep.coords == pytest.approx((0.0, 2.0), abs=1e-13)


def test_elliptic_to_cartesian_2d_known_values():
    ell = Ellipsoid((1.0, 2.0))
    for signs in [(1, 1), (-1, 1), (1, -1)]:
        q = elliptic_to_cartesian((0.0, 2.0), ell, signs=signs)
        assert abs(q[1]) < 1e-14 and abs(abs(q[0]) - 1.0) < 1e-14
    q = elliptic_to_cartesian((0.75, 2.0), ell, signs=(1, 1))
    assert q == pytest.approx([0.5, 0.0], abs=1e-14)


def test_elliptic_to_cartesian_3d_vertex_row():
    # triple-orthogonal vertex of type H1H2 against the closed form
    ell = Ellipsoid((0.13, 0.45, 1.0))
    lam = (0.133273, 0.967756)
    q = elliptic_to_cartesian((0.0, lam[0], lam[1]), ell)
    a = ell.axes
    for l in range(3):
        m, n = [j for j in range(3) if j != l]
        expected = a[l] * (a[l] - lam[0]) * (a[l] - lam[1]) / ((a[l] - a[m]) * (a[l] - a[n]))
        assert q[l] ** 2 == pytest.approx(expected, rel=1e-12)


def test_membership_residual_oracle_3d(rng):
    # returned roots must satisfy the defining equation directly
    ell = Ellipsoid((0.13, 0.8, 1.0))
    done = 0
    while done < 200:
        q = ell.surface_point(rng.normal(size=3)) * rng.uniform(0.2, 0.99)
        if np.min(np.abs(q)) < 0.02:     # generic = away from the planes
            continue
        done += 1
        mu = cartesian_to_elliptic(q, ell).coords
        for root in mu:
            val = np.sum(q * q / (ell.a - root)) - 1.0
            assert abs(val) < 1e-12


@pytest.mark.parametrize("axes", [(1.0, 2.0), (0.13, 0.8, 1.0), (0.3, 0.7, 1.3, 2.1)])
def test_round_trip_identity(axes, rng):
    # generic interior points: the chart degenerates at the hyperplanes,
    # so stay a little away from them
    ell = Ellipsoid(axes)
    done = 0
    while done < 2500:
        q = ell.surface_point(rng.normal(size=ell.dim)) * rng.uniform(0.05, 0.999)
        if np.min(np.abs(q)) < 1e-3:
            continue
        done += 1
        ep = cartesian_to_elliptic(q, ell)
        back = elliptic_to_cartesian(ep.coords, ell, signs=ep.octant)
        assert np.max(np.abs(back - q)) < 1e-12 * max(1.0, np.max(np.abs(q)))


def test_sign_insensitivity(rng):
    ell = Ellipsoid((0.13, 0.8, 1.0))
    for _ in range(50):
        q = ell.surface_point(rng.normal(size=3)) * rng.uniform(0.2, 0.99)
        ref = cartesian_to_elliptic(q, ell).coords
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    flipped = q * np.array([sx, sy, sz])
                    assert cartesian_to_elliptic(flipped, ell).coords == ref


def test_negative_radicand():
    ell = Ellipsoid((1.0, 2.0))
    with pytest.raises(NegativeRadicand):
        elliptic_to_cartesian((1.5, 1.2), ell)  # interleaving violated


def test_caustic_of_line_2d_tangent_horizontal():
    # chord along the long axis direction touching Q_lam at its top
    ell = Ellipsoid((1.0, 2.0))
    q = np.array([math.sqrt(0.5), 1.0])
    lam = caustic_params_of_line(q, np.array([0.0, 1.0]), ell)
    assert lam.ctype == "E"
    assert lam.lambdas[0] == pytest.approx(0.5, abs=1e-12)


def test_caustic_of_line_2d_singular_axis_chord():
    ell = Ellipsoid((1.0, 2.0))
    with pytest.raises((SingularLine, NonTransverse)):
        caustic_params_of_line(np.array([0.0, math.sqrt(2.0)]),
                               np.array([0.0, 1.0]), ell)


def test_caustic_of_line_3d_seed_round_trip(ell_mid):
    # construct a tangent line from the closed-form seed, then re-extract
    from confocal_billiards import seed_point
    from confocal_billiards.dynamics import reversor_from_key
    lam = CausticParams.from_values((0.130077, 0.648376), ell_mid)
    m = seed_point(reversor_from_key("R2", 3), lam, ell_mid, side="o")
    got = caustic_params_of_line(m.q_arr, m.p_arr, ell_mid)
    assert np.max(np.abs(np.array(got.lambdas) - lam.lambdas)) < 1e-10


def test_line_parameterization_invariance(ell_mid, rng):
    lam = CausticParams.from_values((0.130077, 0.648376), ell_mid)
    for _ in range(40):
        q = ell_mid.surface_point(rng.normal(size=3))
        dirs = tangent_directions(q, lam, ell_mid)
        for p in dirs:
            base = caustic_params_of_line(q, p, ell_mid).lambdas
            s = rng.uniform(-0.4, 0.4)
            moved = caustic_params_of_line(q + s * p, -p, ell_mid).lambdas
            assert np.max(np.abs(np.array(base) - moved)) < 1e-10


def test_tangency_residual(ell_mid, rng):
    lam = CausticParams.from_values((0.2, 0.6), ell_mid)
    found = 0
    for _ in range(60):
        q = ell_mid.surface_point(rng.normal(size=3))
        for p in tangent_directions(q, lam, ell_mid):
            got = caustic_params_of_line(q, p, ell_mid)
            for v in got.lambdas:
                assert line_tangency_residual(q, p, v, ell_mid) < 1e-10
            found += 1
    assert found > 20


def test_caustic_types():
    ell3 = Ellipsoid((0.13, 0.8, 1.0))
    assert caustic_type_of((0.05, 0.5), ell3) == "EH1"
    assert caustic_type_of((0.2, 0.5), ell3) == "H1H1"
    assert caustic_type_of((0.05, 0.9), ell3) == "EH2"
    assert caustic_type_of((0.2, 0.9), ell3) == "H1H2"
    ell2 = Ellipsoid((1.0, 2.0))
    assert caustic_type_of((0.5,), ell2) == "E"
    assert caustic_type_of((1.5,), ell2) == "H"


# The tables that were typed in by hand before ``caustic_type`` derived
# them, kept as the reference for n = 1 and 2: the types in catalogue
# order, each bound as a float or an axis index (0-based), and the
# breakpoint kinds of the cuboid, ascending.
TYPED_CAUSTIC_TYPES = {1: ("E", "H"), 2: ("EH1", "H1H1", "EH2", "H1H2")}
TYPED_BOUNDS = {
    "E": ((0.0, 0),),
    "H": ((0, 1),),
    "EH1": ((0.0, 0), (0, 1)),
    "H1H1": ((0, 1), (0, 1)),
    "EH2": ((0.0, 0), (1, 2)),
    "H1H2": ((0, 1), (1, 2)),
}
TYPED_BREAKPOINT_KINDS = {
    "E": ("0", "L1", "A1", "A2"),
    "H": ("0", "A1", "L1", "A2"),
    "EH1": ("0", "L1", "A1", "L2", "A2", "A3"),
    "H1H1": ("0", "A1", "L1", "L2", "A2", "A3"),
    "EH2": ("0", "L1", "A1", "A2", "L2", "A3"),
    "H1H2": ("0", "A1", "L1", "A2", "L2", "A3"),
}


def test_caustic_type_derivation_reproduces_the_typed_tables():
    for n, names in TYPED_CAUSTIC_TYPES.items():
        ell = Ellipsoid(np.linspace(0.2, 1.0, n + 1))
        a = ell.axes
        assert caustic_types(n) == names
        for name in names:
            t = caustic_type(name)
            assert (t.name, t.n) == (name, n)
            assert t.kinds == TYPED_BREAKPOINT_KINDS[name]
            assert caustic_component_bounds(name, ell) == tuple(
                (lo if isinstance(lo, float) else a[lo], a[hi]) for lo, hi in TYPED_BOUNDS[name])


def test_caustic_types_in_four_dimensions():
    names = caustic_types(3)
    assert names == ("EH1H2", "H1H1H2", "EH2H2", "H1H2H2",
                     "EH1H3", "H1H1H3", "EH2H3", "H1H2H3")
    ell = Ellipsoid((0.1, 0.3, 0.6, 1.0))
    for name in names:
        t = caustic_type(name)
        bounds = caustic_component_bounds(name, ell)
        # lambda_i lies below or above a_i, and never leaves (a_{i-1}, a_{i+1})
        for i, (lo, hi) in enumerate(bounds):
            assert (lo, hi) in (((0.0,) + ell.axes)[i:i + 2], ell.axes[i:i + 2])
        lams = sorted(lo + u * (hi - lo) for u, (lo, hi) in zip((0.3, 0.7, 0.5), bounds))
        assert caustic_type_of(lams, ell) == name
        box = cuboid(CausticParams.from_values(lams, ell), ell)
        value = {"0": 0.0, **{f"A{j + 1}": v for j, v in enumerate(ell.axes)},
                 **{f"L{i + 1}": v for i, v in enumerate(lams)}}
        assert tuple(value[k] for k in t.kinds) == box.breakpoints
    for bad in ("", "H1", "HH", "EH", "EEE", "H1H1H1", "EH1H2x", "n=3"):
        with pytest.raises(ValueError, match="unknown caustic type"):
            caustic_type(bad)
    with pytest.raises(ValueError, match="incompatible with n=2"):
        caustic_component_bounds("EH1H2", Ellipsoid((0.13, 0.8, 1.0)))


def test_caustic_params_validation(ell_mid):
    with pytest.raises(SingularLine):
        CausticParams.from_values((0.13, 0.5), ell_mid)      # hits an axis
    with pytest.raises(SingularLine):
        CausticParams.from_values((0.5, 0.5), ell_mid)       # repeated
    with pytest.raises(NonTransverse):
        CausticParams.from_values((-0.1, 0.5), ell_mid)      # misses Q


def test_cuboid_shapes():
    ell3 = Ellipsoid((0.13, 0.8, 1.0))
    lam = CausticParams.from_values((0.05, 0.5), ell3)       # EH1
    box = cuboid(lam, ell3)
    assert box.intervals == ((0.0, 0.05), (0.13, 0.5), (0.8, 1.0))
    ell2 = Ellipsoid((1.0, 2.0))
    box_e = cuboid(CausticParams.from_values((0.5,), ell2), ell2)
    assert box_e.intervals == ((0.0, 0.5), (1.0, 2.0))
    box_h = cuboid(CausticParams.from_values((1.5,), ell2), ell2)
    assert box_h.intervals == ((0.0, 1.0), (1.5, 2.0))


def test_tangent_directions_counts(ell_mid, rng):
    lam = CausticParams.from_values((0.2, 0.6), ell_mid)
    sizes = set()
    for _ in range(80):
        q = ell_mid.surface_point(rng.normal(size=3))
        dirs = tangent_directions(q, lam, ell_mid)
        sizes.add(len(dirs))
        for p in dirs:
            assert abs(np.linalg.norm(p) - 1.0) < 1e-9
            assert float(ell_mid.normal(q) @ p) > 0.0
    assert max(sizes) == 4  # four tangent lines from generic points in 3D


# Property tests for the batched kernel, near-degenerate axes included.
KERNEL_AXES = [(1.0, 2.0), (0.16, 1.0), (0.13, 0.8, 1.0), (0.02, 0.1, 1.0),
               (0.05, 0.95, 1.0), (0.3, 0.7, 1.3, 2.1)]


@st.composite
def axes_and_points(draw):
    """Ellipsoid plus eight points in a box a bit larger than it."""
    ell = Ellipsoid(draw(st.sampled_from(KERNEL_AXES)))
    unit = st.floats(-1.2, 1.2, allow_nan=False)
    Q = np.array([[draw(unit) for _ in range(ell.dim)] for _ in range(8)])
    return ell, Q * np.sqrt(ell.a)


@settings(max_examples=150)
@given(axes_and_points())
def test_kernel_rows_match_scalar_route(case):
    ell, Q = case
    mu, ok = elliptic_coords(Q, ell)
    for q, row, good in zip(Q, mu, ok):
        if good:
            assert cartesian_to_elliptic(q, ell).coords == tuple(row)
            # interleaving: mu_0 <= a_1 <= mu_1 <= ... <= a_d
            assert np.all(row[1:] >= ell.a[:-1]) and np.all(row <= ell.a)
            if np.min(np.abs(q)) > 1e-6:
                # defining equation: the Newton correction left is roundoff
                t = q * q / (ell.a - row[:, None])
                F, dF = t.sum(axis=1) - 1.0, (t / (ell.a - row[:, None])).sum(axis=1)
                assert np.all(np.abs(F) <= 1e-14 * ell.a[-1] * dF)
        else:
            with pytest.raises(NonGenericPoint):
                cartesian_to_elliptic(q, ell)


@settings(max_examples=150)
@given(axes_and_points(), st.data())
def test_kernel_hyperplane_roots_are_exact(case, data):
    ell, Q = case
    j = data.draw(st.integers(0, ell.dim - 1))
    Q[:, j] = data.draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    mu, ok = elliptic_coords(Q, ell)
    assert np.all(np.any(mu[ok] == ell.a[j], axis=1))


@settings(max_examples=150)
@given(axes_and_points(), st.data())
def test_kernel_sign_flips_are_bit_identical(case, data):
    ell, Q = case
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                        min_size=ell.dim, max_size=ell.dim)))
    mu, ok = elliptic_coords(Q, ell)
    mu_f, ok_f = elliptic_coords(Q * signs, ell)
    assert np.array_equal(mu, mu_f) and np.array_equal(ok, ok_f)


@settings(max_examples=150)
@given(axes_and_points(), st.data())
def test_elliptic_round_trip(case, data):
    # elliptic_to_cartesian(cartesian_to_elliptic(x)) = x, points on and
    # next to the coordinate hyperplanes included; x_j^2 is what the chart
    # determines, so x_j itself is good to sqrt of that tolerance
    ell, Q = case
    j = data.draw(st.integers(0, ell.dim - 1))
    Q[::2, j] = data.draw(st.sampled_from([0.0, 1e-13, -1e-9, 1e-6]))
    scale = ell.axes[-1]
    for q in Q:
        try:
            ep = cartesian_to_elliptic(q, ell)
        except NonGenericPoint:
            continue
        back = elliptic_to_cartesian(ep.coords, ell, signs=ep.octant)
        assert np.all(np.abs(back * back - q * q) <= 1e-13 * scale)
        assert np.all(back * q >= 0.0)
        assert np.all(np.abs(back - q) <= math.sqrt(1e-13 * scale))


@settings(max_examples=150)
@given(st.sampled_from(KERNEL_AXES[2:5]), st.floats(0.0, 2.0 * math.pi))
def test_kernel_rejects_focal_points(axes, theta):
    # focal ellipse {x_1 = 0, x_2^2/(a_2 - a_1) + x_3^2/(a_3 - a_1) = 1}:
    # mu_0 and mu_1 both equal a_1 there
    ell = Ellipsoid(axes)
    a = ell.a
    focal = np.array([0.0, math.sqrt(a[1] - a[0]) * math.cos(theta),
                      math.sqrt(a[2] - a[0]) * math.sin(theta)])
    _, ok = elliptic_coords(focal[None], ell)
    assert not ok[0]
    impacts = np.array([focal, ell.surface_point(np.array([1.0, 0.3, -0.2]))])
    path = sample_elliptic_path(impacts, ell, 16)
    mu, ok = elliptic_coords(focal + np.arange(16)[:, None] / 16 * (impacts[1] - focal), ell)
    assert len(path) == np.count_nonzero(ok) < 16
    assert np.array_equal(path, mu[ok])


# Closed-form tangent directions, near-degenerate axes and points on the
# coordinate hyperplanes (where the frame falls back to an axis) included.
TANGENT_AXES = [(0.16, 1.0), (1.0, 2.0), (0.13, 0.8, 1.0), (0.13, 0.45, 1.0),
                (0.02, 0.1, 1.0), (0.05, 0.95, 1.0)]


@st.composite
def caustic_and_point(draw):
    ell = Ellipsoid(draw(st.sampled_from(TANGENT_AXES)))
    ctype = draw(st.sampled_from(caustic_types(ell.n)))
    lams = sorted(lo + draw(st.floats(0.01, 0.99)) * (hi - lo)
                  for lo, hi in caustic_component_bounds(ctype, ell))
    assume(all(b - a > 1e-3 * ell.a[-1] for a, b in zip(lams, lams[1:])))
    v = np.array([draw(st.one_of(st.floats(-1.0, 1.0), st.just(0.0))) for _ in range(ell.dim)])
    assume(np.linalg.norm(v) > 1e-3)
    return ell, CausticParams.from_values(lams, ell), ell.surface_point(v)


@settings(max_examples=300)
@given(caustic_and_point())
def test_tangent_directions_are_tangent_lines(case):
    ell, lam, q = case
    dirs = tangent_directions(q, lam, ell)
    assert len(dirs) <= 2 ** ell.n
    for p in dirs:
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12
        assert float(ell.normal(q) @ p) > 0.0
        got = caustic_params_of_line(q, p, ell).lambdas
        assert np.max(np.abs(np.array(got) - lam.lambdas)) < 1e-9 * ell.a[-1]


def test_tangent_directions_in_four_dimensions(rng):
    # the closed form holds for any n: up to 2^3 lines tangent to three caustics
    ell = Ellipsoid((0.3, 0.7, 1.3, 2.1))
    lam = CausticParams.from_values((0.2, 0.9, 1.5), ell)
    assert lam.ctype == "EH2H3"
    counts = set()
    for _ in range(100):
        q = ell.surface_point(rng.normal(size=4))
        dirs = tangent_directions(q, lam, ell)
        counts.add(len(dirs))
        for p in dirs:
            assert np.max(np.abs(_polynomial_caustics(q, p, ell) - lam.lambdas)) < 1e-9
        if dirs:
            got = caustic_params_of_lines(np.tile(q, (len(dirs), 1)), np.array(dirs), ell)
            assert np.max(np.abs(got - lam.lambdas)) < 1e-9
    assert max(counts) == 8


def _polynomial_caustics(q, p, ell):
    """Reference route to the caustic parameters of the line q + <p>.

    The tangency discriminant B^2/4 - A C of the line against the confocal
    family, cleared of its poles at the axes, is T(t) = prod_i (lambda_i - t)
    times P(t) = prod_k (a_k - t).  T's roots come from its companion
    matrix (``np.roots``) and are polished by Newton steps.
    """
    a = ell.a
    d = len(a)
    p = p / np.linalg.norm(p)
    pj = np.array([np.poly(np.delete(a, j)) * (-1.0) ** (d - 1) for j in range(d)])
    pall = np.poly(a) * (-1.0) ** d
    A = (p * p) @ pj
    B = 2.0 * (q * p) @ pj
    C = np.concatenate([[0.0], (q * q) @ pj]) - pall
    g, ac = np.polymul(B, B) / 4.0, np.polymul(A, C)
    top = np.zeros(max(len(g), len(ac)))
    top[-len(g):] += g
    top[-len(ac):] -= ac
    n = len(pall) - 1               # long division by P; the remainder is 0
    t_poly, rem = np.zeros(len(top) - n), top.copy()
    for k in range(len(top) - n):
        t_poly[k] = rem[k] / pall[0]
        rem[k:k + n + 1] -= t_poly[k] * pall
    lams = np.sort(np.roots(t_poly).real)
    dpoly = np.polyder(t_poly)
    for i, v in enumerate(lams):
        for _ in range(12):
            dv = np.polyval(dpoly, v)
            if dv == 0.0:
                break
            step = np.polyval(t_poly, v) / dv
            v -= step
            if abs(step) < 1e-16 * a[-1]:
                break
        lams[i] = v
    return lams


CHORD_SHAPES = ((0.16, 1.0), (1.0, 2.0), (0.13, 0.8, 1.0), (0.05, 0.95, 1.0), (0.02, 0.1, 1.0))


@st.composite
def tangent_chords(draw):
    """A shape, caustic parameters (E-type lambda_1 down to 1e-7 a_max) and tangent lines."""
    ell = Ellipsoid(draw(st.sampled_from(CHORD_SHAPES)))
    ctype = draw(st.sampled_from(caustic_types(ell.n)))
    a_max = ell.axes[-1]
    lams = []
    for lo, hi in caustic_component_bounds(ctype, ell):
        if lo == 0.0:
            lams.append(a_max * 10.0 ** draw(st.floats(-7.0, math.log10(0.999 * hi / a_max))))
        else:
            lams.append(lo + draw(st.floats(1e-3, 1.0 - 1e-3)) * (hi - lo))
    lams.sort()
    assume(all(b - a > 1e-3 * a_max for a, b in zip(lams, lams[1:])))
    lam = CausticParams.from_values(lams, ell)
    for _ in range(8):
        v = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(ell.dim)])
        if np.linalg.norm(v) > 1e-3:
            q = ell.surface_point(v)
            dirs = tangent_directions(q, lam, ell)
            if dirs:
                return ell, lam, q, np.array(dirs)
    assume(False)


@settings(max_examples=300)
@given(tangent_chords())
def test_caustics_of_lines_match_polynomial_route(case):
    ell, lam, q, dirs = case
    # any point of each line will do: shift along it
    got = caustic_params_of_lines(q + 0.1 * dirs, dirs, ell)
    for p, row in zip(dirs, got):
        ref = _polynomial_caustics(q, p, ell)
        assert np.max(np.abs(row - ref)) <= 1e-12 * ell.axes[-1]


def test_caustics_of_lines_raise_for_the_first_bad_line():
    ell = Ellipsoid((1.0, 2.0))
    good = (np.array([math.sqrt(0.5), 1.0]), np.array([0.0, 1.0]))     # lambda = 0.5
    misses = (np.array([2.0, 0.0]), np.array([0.0, 1.0]))              # lambda < 0
    on_axis = (np.array([0.0, math.sqrt(2.0)]), np.array([0.0, 1.0]))  # lambda = a_1
    # p = +e_d and p = -e_d: the reflection must not degenerate for either
    got = caustic_params_of_lines(np.array([good[0]] * 2), np.array([good[1], -good[1]]), ell)
    assert got == pytest.approx(np.full((2, 1), 0.5), abs=1e-15)
    for lines, first_bad, kind in (((good, misses, on_axis), misses, NonTransverse),
                                   ((good, on_axis, misses), on_axis, SingularLine)):
        with pytest.raises(kind) as batch:
            caustic_params_of_lines(*map(np.array, zip(*lines)), ell)
        with pytest.raises(kind) as alone:
            caustic_params_of_line(*first_bad, ell)
        assert str(batch.value) == str(alone.value)
