import json

import numpy as np
import pytest

from confocal_billiards import (
    Ellipsoid,
    FeasibilityError,
    PhasePoint,
    WindingNumbers,
    class_by_id,
    class_count,
    dual_map,
    enumerate_classes,
    find_spt,
    invert_frequency,
    iterate_orbit,
    minimal_winding_for_delta,
    seed_point,
    tangent_directions,
    verify_trajectory,
    vertex_delta_of_kind,
)
from confocal_billiards import document
from confocal_billiards.dynamics import reversor_from_key
from confocal_billiards.engine import Trajectory
from confocal_billiards.geometry import caustic_types
from confocal_billiards.errors import QuadratureNotConverged, SingularCaustic
from confocal_billiards.spectral import count_turning_events
from confocal_billiards.symmetry import symmetry_set_contains

# --- the published classification catalogs --------------------------------
# per caustic type: minimal winding -> set of reversor couples; H1H1
# couples carry outer (o) / inner (i) tags.

CATALOG_2D = {
    "E": {
        (3, 2): {frozenset({"Rx", "fRx"}), frozenset({"Ry", "fRy"})},
        (4, 2): {frozenset({"Rx", "Ry"}), frozenset({"fRx", "fRy"})},
        (6, 2): {frozenset({"Ry", "fRx"}), frozenset({"Rx", "fRy"})},
    },
    "H": {
        (6, 4): {frozenset({"Rx", "fRxy"}), frozenset({"R", "fRy"})},
        (4, 2): {frozenset({"R", "Rx"}), frozenset({"fRy", "fRxy"})},
        (6, 2): {frozenset({"R", "fRxy"}), frozenset({"Rx", "fRy"})},
    },
}

CATALOG_3D = {
    "EH1": {
        (10, 6, 2): [{"R3", "fR12"}, {"R2", "fR13"}, {"R13", "fR2"}, {"R12", "fR3"}],
        (10, 6, 4): [{"R3", "fR13"}, {"R2", "fR12"}, {"R13", "fR3"}, {"R12", "fR2"}],
        (6, 4, 2): [{"R3", "fR2"}, {"R2", "fR3"}, {"R13", "fR12"}, {"R12", "fR13"}],
        (5, 4, 2): [{"R3", "fR3"}, {"R2", "fR2"}, {"R13", "fR13"}, {"R12", "fR12"}],
        (8, 6, 2): [{"R3", "R12"}, {"fR3", "fR12"}, {"R2", "R13"}, {"fR2", "fR13"}],
        (8, 6, 4): [{"R3", "R13"}, {"fR3", "fR13"}, {"R2", "R12"}, {"fR2", "fR12"}],
        (8, 4, 2): [{"R3", "R2"}, {"fR3", "fR2"}, {"R13", "R12"}, {"fR13", "fR12"}],
    },
    "EH2": {
        (10, 6, 2): [{"R1", "fR23"}, {"R2", "fR13"}, {"R13", "fR2"}, {"R23", "fR1"}],
        (10, 6, 4): [{"R1", "fR2"}, {"R2", "fR1"}, {"R13", "fR23"}, {"R23", "fR13"}],
        (6, 4, 2): [{"R1", "fR13"}, {"R2", "fR23"}, {"R13", "fR1"}, {"R23", "fR2"}],
        (5, 4, 2): [{"R1", "fR1"}, {"R2", "fR2"}, {"R13", "fR13"}, {"R23", "fR23"}],
        (8, 6, 2): [{"R1", "R23"}, {"fR1", "fR23"}, {"R2", "R13"}, {"fR2", "fR13"}],
        (8, 6, 4): [{"R1", "R2"}, {"fR1", "fR2"}, {"R13", "R23"}, {"fR13", "fR23"}],
        (8, 4, 2): [{"R1", "R13"}, {"fR1", "fR13"}, {"R2", "R23"}, {"fR2", "fR23"}],
    },
    "H1H2": {
        (10, 6, 2): [{"R", "fR123"}, {"R2", "fR13"}, {"R3", "fR12"}, {"R23", "fR1"}],
        # {R2, fR1}: consistent with the forbidden-reversor table (fR3
        # cannot occur for H1H2) and the opposite-vertex pairing rule
        (10, 6, 4): [{"R", "fR12"}, {"R2", "fR1"}, {"R3", "fR123"}, {"R23", "fR13"}],
        (6, 4, 2): [{"R", "fR13"}, {"R3", "fR1"}, {"R2", "fR123"}, {"R23", "fR12"}],
        (10, 8, 4): [{"R", "fR1"}, {"R2", "fR12"}, {"R3", "fR13"}, {"R23", "fR123"}],
        (8, 6, 2): [{"R", "R23"}, {"fR1", "fR123"}, {"R2", "R3"}, {"fR12", "fR13"}],
        (8, 6, 4): [{"R", "R2"}, {"fR13", "fR123"}, {"R3", "R23"}, {"fR1", "fR12"}],
        (8, 4, 2): [{"R", "R3"}, {"fR12", "fR123"}, {"R2", "R23"}, {"fR1", "fR13"}],
    },
    "H1H1": {
        (10, 6, 2): [{"R3o", "fR12i"}, {"R2o", "fR13i"}, {"fR12o", "R3i"}, {"fR13o", "R2i"}],
        (10, 6, 4): [{"R2o", "fR12i"}, {"R3o", "fR13i"}, {"fR12o", "R2i"}, {"fR13o", "R3i"}],
        (6, 4, 2): [{"R2o", "fR13o"}, {"R2i", "fR13i"}, {"R3o", "fR12o"}, {"R3i", "fR12i"}],
        (10, 8, 4): [{"R2o", "fR12o"}, {"R2i", "fR12i"}, {"R3o", "fR13o"}, {"R3i", "fR13i"}],
        (8, 6, 2): [{"R2o", "R3i"}, {"fR13o", "fR12i"}, {"R3o", "R2i"}, {"fR12o", "fR13i"}],
        (4, 3, 2): [{"R2o", "R2i"}, {"fR12o", "fR12i"}, {"R3o", "R3i"}, {"fR13o", "fR13i"}],
        (8, 4, 2): [{"R2o", "R3o"}, {"fR12o", "fR13o"}, {"R2i", "R3i"}, {"fR12i", "fR13i"}],
    },
}


def tagged_couple(cls):
    return frozenset(r.key + tag for r, tag in cls.reversors)


def test_class_count_formula():
    assert [class_count(n) for n in range(1, 7)] == [12, 112, 960, 7936, 64512, 520192]


def test_catalog_sizes():
    assert len(enumerate_classes(1)) == 12
    assert len(enumerate_classes(2)) == 112
    ids = {c.class_id for c in enumerate_classes(2)}
    assert len(ids) == 112


#: The class ids for n = 1 and 2 as the hand-typed tables gave them, per
#: caustic type in catalogue order; the vertex pairs of every type come
#: in the same order.
TYPED_CLASS_IDS = {
    "E": "Ry+fRy Rx+Ry Ry+fRx Rx+fRy fRx+fRy Rx+fRx",
    "H": "R+fRy R+Rx R+fRxy Rx+fRy fRxy+fRy Rx+fRxy",
    "EH1": """R12+fR12 R12+R2 R12+fR2 R12+R13 R12+fR13 R12+R3 R12+fR3 R2+fR12 fR12+fR2
        R13+fR12 fR12+fR13 R3+fR12 fR12+fR3 R2+fR2 R13+R2 R2+fR13 R2+R3 R2+fR3 R13+fR2
        fR13+fR2 R3+fR2 fR2+fR3 R13+fR13 R13+R3 R13+fR3 R3+fR13 fR13+fR3 R3+fR3""",
    "H1H1": """R2o+fR12o R2i+R2o R2o+fR12i R2o+R3o R2o+fR13o R2o+R3i R2o+fR13i R2i+fR12o
        fR12i+fR12o R3o+fR12o fR12o+fR13o R3i+fR12o fR12o+fR13i R2i+fR12i R2i+R3o
        R2i+fR13o R2i+R3i R2i+fR13i R3o+fR12i fR12i+fR13o R3i+fR12i fR12i+fR13i
        R3o+fR13o R3i+R3o R3o+fR13i R3i+fR13o fR13i+fR13o R3i+fR13i""",
    "EH2": """R1+fR1 R1+R2 R1+fR2 R1+R13 R1+fR13 R1+R23 R1+fR23 R2+fR1 fR1+fR2 R13+fR1
        fR1+fR13 R23+fR1 fR1+fR23 R2+fR2 R13+R2 R2+fR13 R2+R23 R2+fR23 R13+fR2 fR13+fR2
        R23+fR2 fR2+fR23 R13+fR13 R13+R23 R13+fR23 R23+fR13 fR13+fR23 R23+fR23""",
    "H1H2": """R+fR1 R+R2 R+fR12 R+R3 R+fR13 R+R23 R+fR123 R2+fR1 fR1+fR12 R3+fR1 fR1+fR13
        R23+fR1 fR1+fR123 R2+fR12 R2+R3 R2+fR13 R2+R23 R2+fR123 R3+fR12 fR12+fR13
        R23+fR12 fR12+fR123 R3+fR13 R23+R3 R3+fR123 R23+fR13 fR123+fR13 R23+fR123""",
}


def test_derived_catalogs_keep_the_typed_ids_and_order():
    for n, ctypes in ((1, ("E", "H")), (2, ("EH1", "H1H1", "EH2", "H1H2"))):
        want = [f"{ct}:{couple}" for ct in ctypes for couple in TYPED_CLASS_IDS[ct].split()]
        assert [c.class_id for c in enumerate_classes(n)] == want


def test_catalog_in_four_dimensions():
    classes = enumerate_classes(3)
    ids = [c.class_id for c in classes]
    assert len(set(ids)) == len(ids) == class_count(3) == 960
    assert len({c.ctype for c in classes}) == 8
    # types whose caustics share an axis interval tag their vertexes, and
    # the couple label groups the outer | inner ones
    cls = class_by_id("H1H1H2:R23i+R23o", 3)
    assert cls.tags == ("o", "i") and cls.couple_label == "(R_23 | R_23)"
    assert class_by_id("H1H2H3:R+fR1234", 3).tags == ("", "")
    with pytest.raises(KeyError, match="belongs to dimension 4, not to dimension 3"):
        class_by_id("H1H1H2:R23i+R23o", 2)
    assert all(cls.compatible_winding(cls.minimal_winding) for cls in classes)


def test_catalog_2d_matches_published_rows():
    got = {}
    for cls in enumerate_classes(1):
        got.setdefault(cls.ctype, {}).setdefault(cls.minimal_winding.m, set()).add(
            tagged_couple(cls))
    assert got == {ct: {m: set(v) for m, v in rows.items()}
                   for ct, rows in CATALOG_2D.items()}


@pytest.mark.parametrize("ctype", ["EH1", "EH2", "H1H2", "H1H1"])
def test_catalog_3d_matches_published_rows(ctype):
    got = {}
    for cls in enumerate_classes(2):
        if cls.ctype != ctype:
            continue
        got.setdefault(cls.minimal_winding.m, set()).add(tagged_couple(cls))
    expected = {m: {frozenset(c) for c in couples}
                for m, couples in CATALOG_3D[ctype].items()}
    assert got == expected


def test_minimal_periods_per_type():
    periods = {}
    for cls in enumerate_classes(1) + enumerate_classes(2):
        periods.setdefault(cls.ctype, set()).add(cls.minimal_winding.period)
    assert periods["E"] == {3, 4, 6}
    assert periods["H"] == {4, 6}
    assert periods["EH1"] == periods["EH2"] == {5, 6, 8, 10}
    assert periods["H1H1"] == {4, 6, 8, 10}
    assert periods["H1H2"] == {6, 8, 10}


def test_vertex_delta_of_kind():
    assert vertex_delta_of_kind(WindingNumbers((10, 6, 2))) == (1, 1, 1)
    assert vertex_delta_of_kind(WindingNumbers((5, 4, 2))) == (1, 0, 0)
    assert vertex_delta_of_kind(WindingNumbers((8, 6, 4))) == (0, 1, 0)
    assert vertex_delta_of_kind(WindingNumbers((4, 3, 2))) == (0, 1, 0)
    assert any(vertex_delta_of_kind(WindingNumbers(m))
               for m in [(8, 4, 2), (6, 4, 2), (10, 8, 4)])


def test_minimal_winding_for_delta():
    assert minimal_winding_for_delta("EH1", (1, 1, 1)).m == (10, 6, 2)
    assert minimal_winding_for_delta("EH1", (1, 0, 0)).m == (5, 4, 2)
    assert minimal_winding_for_delta("H1H1", (0, 1, 0)).m == (4, 3, 2)
    assert minimal_winding_for_delta("H1H2", (1, 0, 0)).m == (10, 8, 4)
    assert minimal_winding_for_delta("E", (1, 0)).m == (3, 2)
    assert minimal_winding_for_delta("H", (1, 0)).m == (6, 4)


def test_find_spt_eh1_period_10(ell_flat):
    cls = class_by_id("EH1:R3+fR12", 2)
    assert cls.minimal_winding.m == (10, 6, 2)
    traj = find_spt(cls, ell_flat)
    rep = verify_trajectory(traj)
    assert traj.period == 10 and rep.passed
    assert set(rep.memberships) == {"R3", "fR12"}


def test_find_spt_h1h2_travelled_twice(ell_thin):
    cls = class_by_id("H1H2:R+fR13", 2)
    assert cls.minimal_winding.m == (6, 4, 2)
    traj = find_spt(cls, ell_thin)
    rep = verify_trajectory(traj)
    assert rep.passed and rep.distinct_impacts == 4
    # the orthogonal hit sits on both caustics and the surface
    assert set(rep.memberships) == {"R", "fR13"}


def test_find_spt_2d_triangle(ell2d):
    cls = class_by_id("E:Rx+fRx", 1)
    assert cls.minimal_winding.m == (3, 2)
    traj = find_spt(cls, ell2d)
    rep = verify_trajectory(traj)
    assert traj.period == 3 and rep.passed
    # one impact on the short-axis section, one chord along the long axis
    q0 = traj.impacts[0]
    assert abs(q0[1]) < 1e-9
    chords = np.diff(traj.impacts, axis=0)
    assert any(abs(c[0]) < 1e-8 for c in chords)


#: One class per caustic type of R^4.
R4_CLASSES = ("EH1H2:R123+R13", "H1H1H2:R23o+R3o", "EH2H2:R13i+R13o", "H1H2H2:R3i+R3o",
              "EH1H3:R12+R13", "H1H1H3:R2o+R3o", "EH2H3:R1+R13", "H1H2H3:R+R3")


def test_find_spt_in_four_dimensions():
    # the n-dimensional inverter gives the caustics of every R^4 type; each
    # orbit closes with the minimal winding, meets both reversors' sets, and
    # its document re-dumps to the same bytes (a -0 would not)
    ell = Ellipsoid((0.1, 0.3, 0.6, 1.0))
    assert [cid.split(":")[0] for cid in R4_CLASSES] == list(caustic_types(3))
    for cid in R4_CLASSES:
        cls = class_by_id(cid, 3)
        traj = find_spt(cls, ell)
        rep = verify_trajectory(traj)
        assert rep.passed and traj.class_id == cid, cid
        assert rep.winding_counts == cls.minimal_winding.m, cid
        assert set(rep.memberships) == {r.key for r, _ in cls.reversors}, cid
        text = document.dumps(document.trajectory_to_document(traj, traj.report))
        assert document.dumps(json.loads(text)) == text, cid


def test_caustic_parameters_are_python_floats(ell2d, ell_mid, ell_thin):
    # the inversions and the polish compute lambda in numpy; error messages
    # print CausticParams, so they must not show numpy scalars
    found = [invert_frequency((1 / 3,), "E", ell2d),
             invert_frequency((3 / 8, 2 / 8), "H1H1", ell_mid),
             find_spt(class_by_id("E:Rx+fRx", 1), ell2d).caustic,
             find_spt(class_by_id("H1H2:R+fR13", 2), ell_thin).caustic]
    for lam in found:
        assert all(type(v) is float for v in lam.lambdas)
        assert "np.float64" not in repr(lam)


def test_find_spt_rejects_incompatible_winding(ell_flat):
    cls = class_by_id("EH1:R3+fR12", 2)
    with pytest.raises(FeasibilityError):
        find_spt(cls, ell_flat, WindingNumbers((5, 4, 2)))


def test_verify_negative_control(ell_mid):
    lam = invert_frequency((3 / 8, 2 / 8), "H1H1", ell_mid)
    m = seed_point(reversor_from_key("R2", 3), lam, ell_mid, side="o")
    qs, ps = iterate_orbit(m, ell_mid, 4)
    qs2 = qs.copy()
    qs2[2] = qs2[2] + np.array([2e-4, -1e-4, 1e-4])
    broken = Trajectory(ellipsoid=ell_mid, caustic=lam,
                        winding=WindingNumbers((4, 3, 2)),
                        impacts=qs2, velocities=ps)
    rep = verify_trajectory(broken)
    assert not rep.passed
    assert any("caustic" in f for f in rep.failures)


def test_odd_turning_counts_are_named(ell2d):
    # the first two chords of a period-6 orbit, closed by a third back to
    # the start: a raw count is odd, and halving the counts gives the
    # prescribed winding numbers, so the failure must name the raw counts
    t = find_spt(class_by_id("E:Ry+fRx", 1), ell2d)
    rows = np.r_[0:3, 0]
    short = Trajectory(ellipsoid=ell2d, caustic=t.caustic, winding=WindingNumbers((3, 1)),
                       impacts=t.impacts[rows], velocities=t.velocities[rows])
    counts, _ = count_turning_events(short.impacts, t.caustic, ell2d, closed=True)
    assert counts.tolist() == [6, 3]
    rep = verify_trajectory(short)
    assert rep.winding_counts == (3, 1) and not rep.winding_match
    assert "turning counts (6, 3) are odd on I_1, so they halve to no winding counts" \
        in rep.failures
    assert not any(f.startswith("winding counts") for f in rep.failures)


def test_poncelet_property(ell_mid, rng):
    lam = invert_frequency((3 / 8, 2 / 8), "H1H1", ell_mid)
    found = 0
    while found < 10:
        q = ell_mid.surface_point(rng.normal(size=3))
        dirs = tangent_directions(q, lam, ell_mid)
        if not dirs:
            continue
        found += 1
        p = dirs[int(rng.integers(len(dirs)))]
        qs, ps = iterate_orbit(PhasePoint(tuple(q), tuple(p)), ell_mid, 4)
        assert np.max(np.abs(qs[-1] - qs[0])) < 1e-7
        assert np.max(np.abs(ps[-1] - ps[0])) < 1e-7


def test_dual_correspondence_on_spo(ell_flat):
    # dual image of a tilde-symmetric periodic orbit is hat(-sigma)-symmetric
    cls = class_by_id("EH1:R3+fR12", 2)
    traj = find_spt(cls, ell_flat)
    m0 = PhasePoint(tuple(traj.impacts[0]), tuple(traj.velocities[0]))
    r3 = reversor_from_key("R3", 3)
    assert symmetry_set_contains(r3, m0, ell_flat, tol=1e-8)
    image = dual_map(m0, ell_flat)
    from confocal_billiards.dynamics import Reversor
    partner = Reversor("hat", -r3.sigma)
    assert symmetry_set_contains(partner, image, ell_flat, tol=1e-8)
    qs, ps = iterate_orbit(image, ell_flat, traj.period)
    assert np.max(np.abs(qs[-1] - qs[0])) < 1e-7


def test_trajectory_document_roundtrip(tmp_path, ell_thin):
    from confocal_billiards import document
    cls = class_by_id("H1H2:R+fR13", 2)
    traj = find_spt(cls, ell_thin)
    rep = verify_trajectory(traj)
    path = tmp_path / "spt.json"
    document.save_trajectory(traj, str(path), rep)
    text1 = path.read_text()
    loaded, _ = document.load_trajectory(str(path))
    document.save_trajectory(loaded, str(path), rep)
    assert path.read_text() == text1
    rep2 = verify_trajectory(loaded)
    assert rep2.passed and rep2.winding_counts == rep.winding_counts


def test_geometric_winding_meaning(atlas_reports):
    # per caustic type, the itemized turning events carry the published
    # geometric reading of the winding numbers
    for traj, rep in atlas_reports:
        if traj.ellipsoid.dim != 3:
            continue
        ev = rep.event_counts
        m0, m1, m2 = traj.winding.m
        ct = traj.caustic.ctype
        if ct == "EH1":
            assert ev["plane_1"] == m1 == ev["caustic_2"]
            assert ev["plane_2"] == ev["plane_3"] == m2   # m2/2 axis turns
        elif ct == "EH2":
            assert ev["plane_1"] == ev["plane_2"] == m1   # m1/2 axis turns
            assert ev["plane_3"] == m2 == ev["caustic_2"]
        elif ct == "H1H1":
            assert ev["caustic_1"] == ev["caustic_2"] == m1
            assert ev["plane_2"] == ev["plane_3"] == m2
        elif ct == "H1H2":
            assert ev["plane_2"] == m1 == ev["caustic_1"]
            assert ev["plane_3"] == m2 == ev["caustic_2"]
        assert ev["face_0"] == m0 and ev["plane_1" if ct.startswith("H") else "caustic_1"]


def test_report_roundtrip_bit_for_bit(tmp_path, ell_thin):
    from confocal_billiards import document
    traj = find_spt(class_by_id("H1H2:R23+fR12", 2), ell_thin)
    rep = verify_trajectory(traj)
    path = tmp_path / "t.json"
    document.save_trajectory(traj, str(path), rep)
    loaded, _ = document.load_trajectory(str(path))
    rep2 = verify_trajectory(loaded)
    assert rep2.to_dict() == rep.to_dict()


def _counting_inversions(monkeypatch, classes):
    """Run minimal_atlas over ``classes`` only; count invert_frequency per key."""
    from collections import Counter
    from confocal_billiards import engine
    calls = Counter()

    def counting(target, ctype, ell, *args, **kwargs):
        calls[(ell.axes, ctype, tuple(target))] += 1
        return original(target, ctype, ell, *args, **kwargs)

    original = engine.invert_frequency
    monkeypatch.setattr(engine, "invert_frequency", counting)
    monkeypatch.setattr(engine, "enumerate_classes", lambda n: classes if n == 2 else [])
    return calls


# four EH2 classes share the minimal winding (8, 4, 2); its target is
# missed on every stock shape and reached only on a fallback shape
EH2_842 = ("EH2:R1+R13", "EH2:fR1+fR13", "EH2:R2+R23", "EH2:fR2+fR23")


def test_atlas_inverts_each_key_once(monkeypatch, atlas):
    from confocal_billiards import minimal_atlas
    classes = [class_by_id(c, 2) for c in EH2_842]
    calls = _counting_inversions(monkeypatch, classes)
    result = minimal_atlas()
    assert max(calls.values()) == 1 and len(calls) > 2
    assert not result.failures
    reference = {t.class_id: t for t in atlas.trajectories}
    for traj in result.trajectories:
        ref = reference[traj.class_id]
        assert traj.ellipsoid == ref.ellipsoid and traj.caustic == ref.caustic
        assert np.array_equal(traj.impacts, ref.impacts)
    assert [t.class_id for t in result.trajectories] == list(EH2_842)


def test_atlas_repeats_failures_from_cache(monkeypatch):
    from confocal_billiards import STOCK_ELLIPSOIDS_3D, NoSolutionInComponent, minimal_atlas
    classes = [class_by_id(c, 2) for c in EH2_842]
    flat, thin = STOCK_ELLIPSOIDS_3D[0], STOCK_ELLIPSOIDS_3D[2]
    target = WindingNumbers((8, 4, 2)).target()
    with pytest.raises(NoSolutionInComponent) as miss:
        invert_frequency(target, "EH2", flat)
    calls = _counting_inversions(monkeypatch, classes)
    result = minimal_atlas(extra_shapes=())
    assert sorted(calls.values()) == [1, 1]            # thin, then flat
    assert result.failures == [(c, str(miss.value)) for c in EH2_842]


@pytest.mark.parametrize("error", [QuadratureNotConverged, SingularCaustic])
def test_atlas_collects_numeric_inversion_failures(monkeypatch, error):
    from collections import Counter
    from confocal_billiards import engine, minimal_atlas
    classes = enumerate_classes(1)
    broken = ("E", (3, 2))
    calls = Counter()

    def inversion(target, ctype, ell, *args, **kwargs):
        calls[(ctype, tuple(target))] += 1
        if (ctype, tuple(target)) == (broken[0], WindingNumbers(broken[1]).target()):
            raise error(f"injected failure for {broken}")
        return original(target, ctype, ell, *args, **kwargs)

    original = engine.invert_frequency
    monkeypatch.setattr(engine, "invert_frequency", inversion)
    monkeypatch.setattr(engine, "enumerate_classes", lambda n: classes if n == 1 else [])
    result = minimal_atlas()
    hit = [c.class_id for c in classes if (c.ctype, c.minimal_winding.m) == broken]
    assert result.failures == [(cid, f"injected failure for {broken}") for cid in hit]
    assert len(hit) == 2 and max(calls.values()) == 1        # the failure is cached
    assert [t.class_id for t in result.trajectories] == [
        c.class_id for c in classes if c.class_id not in hit]


#: The minimal windings of the EH2 and H1H2 classes that no stock shape reaches.
FALLBACK_KEYS = [(ctype, m) for ctype in ("EH2", "H1H2")
                 for m in ((8, 4, 2), (8, 6, 2), (10, 6, 2))]


@pytest.mark.parametrize("ctype,m", FALLBACK_KEYS)
def test_fallback_keys_need_the_first_stretched_shape(ctype, m):
    # the data behind ATLAS_FALLBACK_SHAPES's order: every stock shape
    # misses these targets, and the stretched shape put first reaches them
    from confocal_billiards import STOCK_ELLIPSOIDS_3D, NoSolutionInComponent
    from confocal_billiards.engine import ATLAS_FALLBACK_SHAPES
    target = WindingNumbers(m).target()
    for ell in STOCK_ELLIPSOIDS_3D:
        with pytest.raises(NoSolutionInComponent):
            invert_frequency(target, ctype, ell)
    assert ATLAS_FALLBACK_SHAPES[0] == Ellipsoid((0.05, 0.2, 1.0))
    invert_frequency(target, ctype, ATLAS_FALLBACK_SHAPES[0])


def test_atlas_records_rejected_shapes(atlas):
    # the fallback classes reject the thin then the flat shape, each with
    # its inversion error, and build on the first stretched shape; every
    # other class builds on its first shape
    from confocal_billiards import STOCK_ELLIPSOIDS_3D
    flat, thin = STOCK_ELLIPSOIDS_3D[0], STOCK_ELLIPSOIDS_3D[2]
    assert set(atlas.rejected) == {t.class_id for t in atlas.trajectories}
    rejecting = {cid: misses for cid, misses in atlas.rejected.items() if misses}
    assert len(rejecting) == 24 and len(atlas.rejected) == 124
    classes = [class_by_id(cid, 2) for cid in rejecting]
    assert {(c.ctype, c.minimal_winding.m) for c in classes} == set(FALLBACK_KEYS)
    for misses in rejecting.values():
        assert [axes for axes, _ in misses] == [thin.axes, flat.axes]
        assert all(msg.startswith("NoSolutionInComponent: Newton stalled") for _, msg in misses)
    shapes = {t.class_id: t.ellipsoid.axes for t in atlas.trajectories}
    assert {shapes[cid] for cid in rejecting} == {(0.05, 0.2, 1.0)}
