import math

import numpy as np
import pytest

from confocal_billiards import (
    CausticParams,
    Ellipsoid,
    FeasibilityError,
    PhasePoint,
    all_vertexes,
    dual_map,
    feasible_reversors,
    forbidden_reversors,
    nonempty_reversors,
    random_fix_point,
    reversor_of_vertex,
    seed_point,
    seed_point_at_vertex,
    symmetry_set_contains,
    symmetry_set_residual,
    vertex_of_reversor,
)
from confocal_billiards.dynamics import all_reversors, reversor_from_key
from confocal_billiards.geometry import caustic_params_of_lines, caustic_types
from confocal_billiards.symmetry import CuboidVertex, symmetry_set_members, symmetry_set_residuals
from conftest import random_phase_point

FEASIBLE_2D = {
    "E": {"Rx", "Ry", "fRx", "fRy"},
    "H": {"R", "Rx", "fRy", "fRxy"},
}
FORBIDDEN_3D = {
    "EH1": {"R", "fR123", "R1", "fR23", "R23", "fR1"},
    "EH2": {"R", "fR123", "R3", "fR12", "R12", "fR3"},
    "H1H1": {"R", "R1", "R12", "R13", "R23", "fR123",
             "fR1", "fR2", "fR3", "fR23"},
    "H1H2": {"R1", "fR23", "R13", "fR2", "R12", "fR3"},
}

SAMPLE_LAMBDAS = {
    "E": (0.5,),
    "H": (1.5,),
    "EH1": (0.03, 0.5),
    "H1H1": (0.2, 0.6),
    "EH2": (0.03, 0.97),
    "H1H2": (0.3, 0.97),
    "EH1H2": (0.05, 0.2, 0.45),
    "H1H1H2": (0.15, 0.25, 0.45),
    "EH2H2": (0.05, 0.4, 0.5),
    "H1H2H2": (0.2, 0.4, 0.5),
    "EH1H3": (0.05, 0.2, 0.8),
    "H1H1H3": (0.15, 0.25, 0.8),
    "EH2H3": (0.05, 0.45, 0.8),
    "H1H2H3": (0.2, 0.45, 0.8),
}


def sample_caustic(ctype, ell):
    return CausticParams.from_values(SAMPLE_LAMBDAS[ctype], ell)


def test_feasibility_tables_2d():
    for ctype, keys in FEASIBLE_2D.items():
        assert {r.key for r in feasible_reversors(ctype, 1)} == keys
    assert {r.key for r in forbidden_reversors("E", 1)} == {"R", "fRxy"}
    assert {r.key for r in forbidden_reversors("H", 1)} == {"Ry", "fRx"}


def test_feasibility_tables_3d():
    for ctype, keys in FORBIDDEN_3D.items():
        assert {r.key for r in forbidden_reversors(ctype, 2)} == keys
    assert len(feasible_reversors("H1H1", 2)) == 4
    for ctype in ("EH1", "EH2", "H1H2"):
        assert len(feasible_reversors(ctype, 2)) == 8


def test_forbidden_come_in_dual_couples():
    # the dual map swaps tilde(sigma) with hat(-sigma)
    for ctype, keys in FORBIDDEN_3D.items():
        forb = forbidden_reversors(ctype, 2)
        for r in forb:
            partner_family = "hat" if r.family == "tilde" else "tilde"
            partner = [x for x in forb
                       if x.family == partner_family and x.sigma == -r.sigma]
            assert partner, (ctype, r.key)


def test_vertex_reversor_correspondence_2d():
    # vertex values of the rectangle against the catalogued reversors
    ell = Ellipsoid((1.0, 2.0))
    for ctype, table in {
        "E": {(0, 0): "Ry", (0, 1): "Rx", (1, 0): "fRy", (1, 1): "fRx"},
        "H": {(0, 0): "R", (0, 1): "Rx", (1, 0): "fRy", (1, 1): "fRxy"},
    }.items():
        for mask, key in table.items():
            r, _ = reversor_of_vertex(CuboidVertex(mask), ctype)
            assert r.key == key
            assert vertex_of_reversor(reversor_from_key(key, 2), ctype).mask == mask


def test_vertex_reversor_correspondence_3d():
    got = {}
    for ctype in ("EH1", "H1H1", "EH2", "H1H2"):
        for v in all_vertexes(3):
            r, tag = reversor_of_vertex(v, ctype)
            got.setdefault(ctype, set()).add((r.key, tag))
    assert ("R", "") in got["H1H2"]
    assert ("fR123", "") in got["H1H2"]
    assert ("R2", "o") in got["H1H1"] and ("R2", "i") in got["H1H1"]
    assert ("R12", "") in got["EH1"]


def test_vertex_of_reversor_h1h1_needs_side():
    with pytest.raises(FeasibilityError):
        vertex_of_reversor(reversor_from_key("R2", 3), "H1H1")
    v_out = vertex_of_reversor(reversor_from_key("R2", 3), "H1H1", side="o")
    v_in = vertex_of_reversor(reversor_from_key("R2", 3), "H1H1", side="i")
    assert v_out != v_in


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertex_of_reversor_inverts_reversor_of_vertex(n):
    # the o/i tag reaches every vertex, also where a repeated reversor's
    # vertexes take a second caustic (H1H1H3, EH2H2, ...)
    for ctype in caustic_types(n):
        for v in all_vertexes(n + 1):
            r, tag = reversor_of_vertex(v, ctype)
            assert vertex_of_reversor(r, ctype, side=tag) == v


def test_membership_2d_catalog_points(ell_unit2d, rng):
    b, a = ell_unit2d.axes
    # impact at an end of the short axis, any outward velocity
    q = np.array([math.sqrt(b), 0.0])
    for _ in range(10):
        p = rng.normal(size=2)
        p /= np.linalg.norm(p)
        if float(ell_unit2d.normal(q) @ p) < 0:
            p = -p
        m = PhasePoint(tuple(q), tuple(p))
        assert symmetry_set_contains(reversor_from_key("Rx", 2), m, ell_unit2d)
    # any impact with velocity along the short axis
    for _ in range(10):
        qq, _ = random_phase_point(ell_unit2d, rng)
        p = np.array([1.0, 0.0]) if qq[0] > 0 else np.array([-1.0, 0.0])
        m = PhasePoint(tuple(qq), tuple(p))
        assert symmetry_set_contains(reversor_from_key("fRy", 2), m, ell_unit2d)


def test_membership_rejects_generic_points(ell_mid, rng):
    for _ in range(50):
        q, p = random_phase_point(ell_mid, rng)
        m = PhasePoint(tuple(q), tuple(p))
        for r in nonempty_reversors(3):
            assert not symmetry_set_contains(r, m, ell_mid, tol=1e-8)


def test_random_fix_points_pass_their_own_predicate(ell_mid, rng):
    for r in nonempty_reversors(3):
        for _ in range(20):
            m = random_fix_point(r, ell_mid, rng)
            assert symmetry_set_residual(r, m, ell_mid) < 1e-12
            assert abs(ell_mid.constraint(m.q_arr)) < 1e-12
            assert float(ell_mid.normal(m.q_arr) @ m.p_arr) > 0.0


def test_members_of_a_stack_of_phase_points(ell_mid, rng):
    points = [(r.key, random_fix_point(r, ell_mid, rng))
              for r in nonempty_reversors(3) for _ in range(3)]
    points += [(None, PhasePoint(*map(tuple, random_phase_point(ell_mid, rng))))
               for _ in range(10)]
    Q = np.array([m.q for _, m in points])
    P = np.array([m.p for _, m in points])
    for r in all_reversors(3):
        res = symmetry_set_residuals(r, Q, P, ell_mid)
        if r.is_empty_set:
            assert np.all(res == math.inf)
            continue
        single = [symmetry_set_residual(r, m, ell_mid) for _, m in points]
        assert np.allclose(res, single, rtol=1e-14, atol=1e-17)
        expected = [j for j, (key, _) in enumerate(points) if key == r.key]
        assert symmetry_set_members(r, Q, P, ell_mid, tol=1e-8).tolist() == expected


def test_seed_2d_closed_forms(ell_unit2d):
    b, a = ell_unit2d.axes
    lam_e = sample_caustic("E", ell_unit2d)
    lam_h = sample_caustic("H", ell_unit2d)
    lv = lam_e.lambdas[0]
    m = seed_point(reversor_from_key("Rx", 2), lam_e, ell_unit2d)
    assert abs(m.q[0]) == pytest.approx(math.sqrt(b), abs=1e-14)
    assert m.q[1] == 0.0
    assert m.p[1] ** 2 == pytest.approx((a - lv) / a, rel=1e-12)
    assert m.p[0] ** 2 == pytest.approx(lv / a, rel=1e-12)
    lv = lam_h.lambdas[0]
    m = seed_point(reversor_from_key("R", 2), lam_h, ell_unit2d)
    assert m.q[1] ** 2 == pytest.approx(a * (a - lv) / (a - b), rel=1e-12)
    assert m.q[0] ** 2 == pytest.approx(b * (lv - b) / (a - b), rel=1e-12)
    expected_p = math.sqrt(a * b / lv) * ell_unit2d.normal(m.q_arr)
    assert m.p_arr == pytest.approx(expected_p, rel=1e-12)


def test_seed_3d_closed_forms(ell_thin):
    a1, a2, a3 = ell_thin.axes
    lam = CausticParams.from_values((0.133273, 0.967756), ell_thin)
    m = seed_point(reversor_from_key("R", 3), lam, ell_thin)
    scale = math.sqrt(a1 * a2 * a3 / (lam.lambdas[0] * lam.lambdas[1]))
    for l in range(3):
        mm, nn = [j for j in range(3) if j != l]
        al, am, an = ell_thin.axes[l], ell_thin.axes[mm], ell_thin.axes[nn]
        x2 = al * (al - lam.lambdas[0]) * (al - lam.lambdas[1]) / ((al - am) * (al - an))
        assert m.q[l] ** 2 == pytest.approx(x2, rel=1e-12)
        assert m.p[l] == pytest.approx(m.q[l] / al * scale, rel=1e-12)
    m = seed_point(reversor_from_key("fR123", 3), lam, ell_thin)
    for l in range(3):
        mm, nn = [j for j in range(3) if j != l]
        al, am, an = ell_thin.axes[l], ell_thin.axes[mm], ell_thin.axes[nn]
        u2 = (al - lam.lambdas[0]) * (al - lam.lambdas[1]) / ((al - am) * (al - an))
        assert m.p[l] ** 2 == pytest.approx(u2, rel=1e-12)
        assert m.q[l] == pytest.approx(scale * m.p[l], rel=1e-12)


@pytest.mark.parametrize("ctype", list(SAMPLE_LAMBDAS))
def test_all_seeds_all_branches(ctype):
    ell = Ellipsoid({1: (1.0, 2.0), 2: (0.13, 0.8, 1.0),
                     3: (0.1, 0.3, 0.6, 1.0)}[len(SAMPLE_LAMBDAS[ctype])])
    lam = sample_caustic(ctype, ell)
    dim = ell.dim
    for v in all_vertexes(dim):
        r, _ = reversor_of_vertex(v, ctype)
        seeds = [seed_point_at_vertex(v, lam, ell, branch) for branch in range(2 ** dim)]
        Q = np.array([m.q for m in seeds])
        P = np.array([m.p for m in seeds])
        assert np.max(np.abs(np.einsum("kj,kj->k", Q, Q / ell.a) - 1.0)) < 1e-12
        assert np.max(np.abs(np.linalg.norm(P, axis=1) - 1.0)) < 1e-13
        assert np.all(np.einsum("kj,kj->k", Q / ell.a, P) > 0.0)
        assert not np.signbit(Q[Q == 0.0]).any() and not np.signbit(P[P == 0.0]).any()
        assert np.max(symmetry_set_residuals(r, Q, P, ell)) < 1e-10
        got = caustic_params_of_lines(Q, P, ell)
        assert np.max(np.abs(got - lam.lambdas)) < 1e-10


def test_seed_feasibility_errors(ell_mid):
    lam = sample_caustic("H1H1", ell_mid)
    with pytest.raises(FeasibilityError):
        seed_point(reversor_from_key("R", 3), lam, ell_mid)
    from confocal_billiards import BranchOutOfRange
    with pytest.raises(BranchOutOfRange):
        seed_point(reversor_from_key("R2", 3), lam, ell_mid, branch=8, side="o")


def test_dual_consistency_of_seeds(ell_mid):
    # the dual map sends tilde fixed sets into hat fixed sets of -sigma
    from confocal_billiards.dynamics import Reversor
    lam = sample_caustic("H1H1", ell_mid)
    for key, side in [("R2", "o"), ("R2", "i"), ("R3", "o")]:
        r = reversor_from_key(key, 3)
        m = seed_point(r, lam, ell_mid, side=side)
        image = dual_map(m, ell_mid)
        partner = Reversor("hat", -r.sigma)
        assert symmetry_set_residual(partner, image, ell_mid) < 1e-10


def test_seed_mutual_exclusivity(ell_mid):
    lam = sample_caustic("EH1", ell_mid)
    for key in ("R2", "R3", "fR12", "fR2"):
        r = reversor_from_key(key, 3)
        m = seed_point(r, lam, ell_mid)
        for other in nonempty_reversors(3):
            expected = other.key == key
            assert symmetry_set_contains(other, m, ell_mid, tol=1e-8) == expected


def test_classify_symmetric_point(ell_unit2d, ell_mid, rng):
    import math
    from confocal_billiards import DegenerateOrbit, classify_symmetric_point
    # 2-periodic chord along the long axis sits on several fixed sets
    m = PhasePoint((0.0, math.sqrt(2.0)), (0.0, 1.0))
    with pytest.raises(DegenerateOrbit):
        classify_symmetric_point(m, ell_unit2d)
    # generic point: no set; seed: its own set
    q, p = random_phase_point(ell_mid, rng)
    assert classify_symmetric_point(PhasePoint(tuple(q), tuple(p)), ell_mid) is None
    lam = sample_caustic("EH1", ell_mid)
    m = seed_point(reversor_from_key("R3", 3), lam, ell_mid)
    got = classify_symmetric_point(m, ell_mid)
    assert got is not None and got.key == "R3"


def test_octant_marks_hyperplanes(ell_mid):
    from confocal_billiards import cartesian_to_elliptic
    q = ell_mid.surface_point(np.array([0.0, 0.4, 0.9]))
    ep = cartesian_to_elliptic(q, ell_mid)
    assert ep.octant[0] == 0 and ep.octant[1] == 1 and ep.octant[2] == 1
    assert any(abs(c - ell_mid.axes[0]) < 1e-14 for c in ep.coords)


def test_degenerate_impact_and_focal_point(ell_unit2d):
    import math
    from confocal_billiards import (DegenerateImpact, NonGenericPoint,
                                    billiard_map, cartesian_to_elliptic)
    q = np.array([1.0, 0.0])
    tangent = np.array([0.0, 1.0])     # orthogonal to the normal at q
    with pytest.raises(DegenerateImpact):
        billiard_map(PhasePoint(tuple(q), tuple(tangent)), ell_unit2d)
    focus = np.array([0.0, 1.0])       # focal point of the (1,2) ellipse
    with pytest.raises(NonGenericPoint):
        cartesian_to_elliptic(focus, ell_unit2d)


def test_dual_row_exchange(ell_thin):
    # seed formulas of dual reversor couples exchange u_i^2 and x_i^2/a_i
    lam = CausticParams.from_values((0.133273, 0.967756), ell_thin)  # H1H2
    a = ell_thin.a
    pairs = [("R", "fR123"),
             ("R3", "fR12"),       # opposed vertexes swap the caustic
             ("R2", "fR13"),
             ("R23", "fR1")]
    for tilde_key, hat_key in pairs:
        mt = seed_point(reversor_from_key(tilde_key, 3), lam, ell_thin)
        mh = seed_point(reversor_from_key(hat_key, 3), lam, ell_thin)
        assert np.max(np.abs(np.array(mh.p) ** 2 - np.array(mt.q) ** 2 / a)) < 1e-12
        assert np.max(np.abs(np.array(mh.q) ** 2 / a - np.array(mt.p) ** 2)) < 1e-12
