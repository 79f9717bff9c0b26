"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The full-atlas fixture is shared across criteria.
"""

import numpy as np
import pytest

from confocal_billiards import (
    BilliardError,
    CausticParams,
    Ellipsoid,
    PhasePoint,
    Reflection,
    Reversor,
    WindingNumbers,
    all_reflections,
    all_reversors,
    apply_reversor,
    apply_symmetry,
    billiard_map,
    caustic_component_bounds,
    class_count,
    dual_map,
    enumerate_classes,
    frequencies,
    invert_frequency,
    iterate_orbit,
    nonempty_reversors,
    random_fix_point,
    symmetry_set_residual,
    tangent_directions,
    verify_trajectory,
)
from confocal_billiards.geometry import caustic_params_of_lines
from confocal_billiards.spectral import empirical_frequency_batch
from conftest import random_phase_point


def announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


GOLDEN_ROWS = [
    # ctype, winding, axes, published lambdas, ordered?
    ("H1H1", (4, 3, 2), (0.13, 0.8, 1.0), (0.130077, 0.648376), True),
    ("EH2", (5, 4, 2), (0.2, 0.3969, 1.0), (0.199523, 0.762965), True),
    ("EH1", (5, 4, 2), (0.25, 0.49, 1.0), (0.231635, 0.260266), True),
    ("H1H2", (6, 4, 2), (0.13, 0.45, 1.0), (0.133273, 0.967756), True),
    ("EH2", (6, 4, 2), (0.13, 0.45, 1.0), (0.126968, 0.962896), True),
    ("EH1", (6, 4, 2), (0.13, 0.8, 1.0), (0.126231, 0.403278), True),
    ("H1H1", (8, 4, 2), (0.05, 0.95, 1.0), (0.056134, 0.457414), False),
    ("H1H1", (8, 6, 2), (0.05, 0.95, 1.0), (0.050041, 0.229595), False),
]


@pytest.fixture(scope="module")
def golden_inversions():
    out = []
    for ctype, m, axes, published, ordered in GOLDEN_ROWS:
        ell = Ellipsoid(axes)
        w = WindingNumbers(m)
        lam = invert_frequency(w.target(), ctype, ell)
        out.append((ctype, w, ell, published, ordered, lam))
    return out


def test_criterion_1_golden_caustic_parameters(golden_inversions):
    for ctype, w, ell, published, ordered, lam in golden_inversions:
        got = np.array(lam.lambdas)
        want = np.array(sorted(published)) if not ordered else np.array(published)
        err = float(np.max(np.abs(got - want)))
        assert err < 1e-5, (ctype, w.m, ell.axes, got, want)
    announce(1, f"all {len(golden_inversions)} published caustic pairs reproduced within 1e-5")


def test_criterion_2_catalog_counts():
    assert len(enumerate_classes(1)) == 12
    assert len(enumerate_classes(2)) == 112
    for n in range(1, 7):
        assert class_count(n) == 4 ** n * (2 ** (n + 1) - 1)
    assert class_count(1) == 12 and class_count(2) == 112 and class_count(3) == 960
    announce(2, "catalogs count 12 (n=1) and 112 (n=2); formula checked for n <= 6")


def test_criterion_3_atlas_realizability(atlas):
    assert atlas.failures == [], atlas.failures
    assert len(atlas.trajectories) == 124
    p2 = {t.period for t in atlas.trajectories if t.ellipsoid.dim == 2}
    p3 = {t.period for t in atlas.trajectories if t.ellipsoid.dim == 3}
    assert p2 <= {3, 4, 6} and p3 <= {4, 5, 6, 8, 10}
    worst = max(t.closure_residual for t in atlas.trajectories)
    assert worst <= 1e-8
    ids = {t.class_id for t in atlas.trajectories}
    assert ids == {c.class_id for c in enumerate_classes(1) + enumerate_classes(2)}
    announce(3, f"124/124 classes realized; 2D periods {sorted(p2)}, 3D periods {sorted(p3)}, "
                f"worst closure {worst:.2e}")


def test_criterion_4_algebraic_property_suite(ell_mid, rng):
    n_pts = 1000
    points = []
    for _ in range(n_pts):
        q, p = random_phase_point(ell_mid, rng)
        points.append(PhasePoint(tuple(q), tuple(p)))

    def diff(m1, m2):
        return max(float(np.max(np.abs(m1.q_arr - m2.q_arr))),
                   float(np.max(np.abs(m1.p_arr - m2.p_arr))))

    worst = {"r2": 0.0, "factor": 0.0, "commute": 0.0, "gsq": 0.0, "fg": 0.0}
    for m in points:
        for r in all_reversors(3):
            worst["r2"] = max(worst["r2"], diff(
                apply_reversor(r, apply_reversor(r, m, ell_mid), ell_mid), m))
        f_m = billiard_map(m, ell_mid)
        for sigma in all_reflections(3):
            tilde = Reversor("tilde", sigma)
            hat = Reversor("hat", sigma)
            worst["factor"] = max(worst["factor"], diff(
                apply_reversor(hat, apply_reversor(tilde, m, ell_mid), ell_mid), f_m))
            worst["commute"] = max(worst["commute"], diff(
                billiard_map(apply_symmetry(sigma, m), ell_mid),
                apply_symmetry(sigma, f_m)))
        g2 = dual_map(dual_map(m, ell_mid), ell_mid)
        worst["gsq"] = max(worst["gsq"], diff(
            g2, apply_symmetry(Reflection.central(3), f_m)))
        worst["fg"] = max(worst["fg"], diff(
            billiard_map(dual_map(m, ell_mid), ell_mid),
            dual_map(f_m, ell_mid)))
    assert all(v < 1e-12 for v in worst.values()), worst

    tilde_reversors = [r for r in nonempty_reversors(3) if r.family == "tilde"]
    fix_worst = 0.0
    for k in range(n_pts):
        r = tilde_reversors[k % len(tilde_reversors)]
        m = random_fix_point(r, ell_mid, rng)
        image = dual_map(m, ell_mid)
        partner = Reversor("hat", -r.sigma)
        fix_worst = max(fix_worst, symmetry_set_residual(partner, image, ell_mid))
    assert fix_worst < 1e-12
    announce(4, f"identity residuals {max(worst.values()):.2e}; "
                f"dual fixed-set transport residual {fix_worst:.2e} "
                f"(1000 points per identity)")


CTYPE_SHAPES = {
    "E": (0.16, 1.0),
    "H": (0.16, 1.0),
    "EH1": (0.13, 0.8, 1.0),
    "H1H1": (0.13, 0.8, 1.0),
    "EH2": (0.13, 0.45, 1.0),
    "H1H2": (0.13, 0.45, 1.0),
}


def random_caustic(ctype, ell, rng):
    bounds = caustic_component_bounds(ctype, ell)
    while True:
        vals = [lo + (hi - lo) * rng.uniform(0.08, 0.92) for lo, hi in bounds]
        if len(vals) == 2 and vals[1] - vals[0] < 1e-3:
            continue
        try:
            return CausticParams.from_values(sorted(vals), ell)
        except (BilliardError, ValueError):
            continue


def test_criterion_5_caustic_invariance(rng):
    bounces = 100
    for ctype, axes in CTYPE_SHAPES.items():
        ell = Ellipsoid(axes)
        starts = 0
        worst = 0.0
        while starts < 100:
            lam = random_caustic(ctype, ell, rng)
            q = ell.surface_point(rng.normal(size=ell.dim))
            dirs = tangent_directions(q, lam, ell)
            if not dirs:
                continue
            starts += 1
            p = dirs[int(rng.integers(len(dirs)))]
            qs, _ = iterate_orbit(PhasePoint(tuple(q), tuple(p)), ell, bounces)
            lams = caustic_params_of_lines(qs[:-1], np.diff(qs, axis=0), ell)
            worst = max(worst, float(np.max(np.abs(np.diff(lams, axis=0)))))
        assert worst < 1e-10, (ctype, worst)
    announce(5, "caustic parameters of consecutive chords agree to 1e-10 "
                "(100 bounces x 100 starts x 6 caustic types)")


def test_criterion_6_oscillation_law(atlas_reports):
    worst_exc = 0.0
    for traj, rep in atlas_reports:
        assert rep.winding_match, (traj.class_id, rep.winding_counts, traj.winding.m)
        worst_exc = max(worst_exc, rep.cuboid_excursion)
    assert worst_exc < 1e-9
    announce(6, f"all 124 atlas orbits confined to their cuboids "
                f"(max excursion {worst_exc:.2e}) with exact winding counts")


GRID_3D = {
    "EH1": (0.13, 0.8, 1.0),
    "H1H1": (0.13, 0.8, 1.0),
    "EH2": (0.13, 0.45, 1.0),
    "H1H2": (0.13, 0.45, 1.0),
}


def test_criterion_7_oracle_equivalence():
    bounces = 100_000
    rng = np.random.default_rng(3)
    worst3 = 0.0
    for ctype, axes in GRID_3D.items():
        ell = Ellipsoid(axes)
        (lo1, hi1), (lo2, hi2) = caustic_component_bounds(ctype, ell)
        if ctype == "H1H1":
            rel1 = np.linspace(0.08, 0.42, 5)
            rel2 = np.linspace(0.55, 0.92, 5)
        else:
            rel1 = np.linspace(0.12, 0.88, 5)
            rel2 = np.linspace(0.12, 0.88, 5)
        lams = [CausticParams.from_values(
                    (lo1 + (hi1 - lo1) * u1, lo2 + (hi2 - lo2) * u2), ell)
                for u1 in rel1 for u2 in rel2]
        ests = empirical_frequency_batch(lams, ell, bounces, rng=rng)
        for lam, est in zip(lams, ests):
            om = frequencies(lam, ell).omega
            worst3 = max(worst3, max(abs(a - b) for a, b in zip(om, est.omega)))
    assert worst3 <= 1e-4, worst3

    worst2 = 0.0
    ell2 = Ellipsoid((0.16, 1.0))
    for ctype, (lo, hi) in (("E", (0.0, 0.16)), ("H", (0.16, 1.0))):
        vals = lo + (hi - lo) * np.linspace(0.05, 0.95, 20)
        lams = [CausticParams.from_values((v,), ell2) for v in vals]
        ests = empirical_frequency_batch(lams, ell2, bounces, rng=rng)
        for lam, est in zip(lams, ests):
            rho = frequencies(lam, ell2).omega[0]
            worst2 = max(worst2, abs(rho - est.omega[0]))
    assert worst2 <= 1e-4, worst2
    announce(7, f"frequency map vs 1e5-bounce empirical estimate: "
                f"max |diff| 3D {worst3:.2e}, 2D {worst2:.2e} (<= 1e-4)")


def test_criterion_8_point_count_law(atlas_reports):
    for traj, rep in atlas_reports:
        assert rep.two_point_law_ok, (traj.class_id, rep.family_counts)
        total_families = [k for k, v in rep.family_counts.items() if v]
        assert total_families, traj.class_id
        if traj.period % 2 == 1:
            # one point on each of two associated sets of one family
            assert len(total_families) == 1
            fam = total_families[0]
            assert len(rep.memberships.get(fam, [])) == 1
            assert len(rep.memberships.get("f" + fam, [])) == 1
        else:
            for fam in total_families:
                tilde = len(rep.memberships.get(fam, []))
                hat = len(rep.memberships.get("f" + fam, []))
                assert (tilde, hat) in ((2, 0), (0, 2))
    announce(8, "every atlas orbit satisfies the two-point law per reversor family")


def test_criterion_9_poncelet(golden_inversions, rng):
    for ctype, w, ell, _, _, lam in golden_inversions:
        found = 0
        while found < 10:
            q = ell.surface_point(rng.normal(size=3))
            dirs = tangent_directions(q, lam, ell)
            if not dirs:
                continue
            found += 1
            p = dirs[int(rng.integers(len(dirs)))]
            qs, ps = iterate_orbit(PhasePoint(tuple(q), tuple(p)), ell, w.period)
            res = max(float(np.max(np.abs(qs[-1] - qs[0]))),
                      float(np.max(np.abs(ps[-1] - ps[0]))))
            assert res <= 1e-7, (ctype, w.m, res)
    announce(9, "10 random seeds per golden caustic close after one period (<= 1e-7)")


def test_criterion_10_special_trajectories(atlas):
    by_id = {t.class_id: t for t in atlas.trajectories}
    traj = by_id["H1H2:R+fR13"]
    rep = verify_trajectory(traj)
    assert traj.period == 6 and rep.distinct_impacts == 4

    # 2D H-type orbits through orthogonal hits are travelled twice; the
    # minimal one (period 4 = 4k at k=1) has k + 2 = 3 distinct impacts,
    # and the period-6 twice-travelled one has 4
    tr42 = by_id["H:R+Rx"]
    rep42 = verify_trajectory(tr42)
    assert tr42.period == 4 and tr42.winding.m == (4, 2)
    assert rep42.distinct_impacts == 3
    tr62 = by_id["H:R+fRxy"]
    rep62 = verify_trajectory(tr62)
    assert tr62.period == 6 and tr62.winding.m == (6, 2)
    assert rep62.distinct_impacts == 4
    announce(10, "distinct-impact counts: 4 for the twice-travelled H1H2 orbit, "
                 "3 and 4 for the 2D twice-travelled orbits")
