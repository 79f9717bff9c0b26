"""Deterministic SVG views of trajectories.

Planes: "3d" is the isometric first-octant view (x_1 up, x_2 lower
right, x_3 lower left); "pi1"/"pi2"/"pi3" are the coordinate-plane
projections viewed from the positive missing axis.  2D trajectories use
"cart" (default) or "elliptic", the latter drawing the oscillation
rectangle with its vertex contacts.

Colors: trajectory red, one-sheet-hyperboloid caustic traces green,
two-sheet yellow, ellipsoidal caustic blue, ellipsoid outline black.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import Trajectory
from .errors import NonGenericPoint, UnsupportedDimension
from .geometry import Ellipsoid, cuboid, elliptic_coords, elliptic_to_cartesian

_SQ3 = math.sqrt(3.0) / 2.0
_ISO = np.array([[0.0, -1.0], [_SQ3, 0.5], [-_SQ3, 0.5]])

TRAJECTORY_COLOR = "#cc0000"
H1_COLOR = "#009900"
H2_COLOR = "#ccaa00"
E_COLOR = "#3366cc"
OUTLINE_COLOR = "#000000"

PLANES_3D = ("3d", "pi1", "pi2", "pi3")
PLANES_2D = ("cart", "elliptic")
#: Samples of an ellipse section, of a hyperboloid caustic's trace per
#: octant, and of each chord in the elliptic plane.
_SECTION_SAMPLES, _TRACE_SAMPLES, _CHORD_SAMPLES = 256, 64, 96


def _project(points: np.ndarray, plane: str) -> np.ndarray:
    if plane == "3d":
        return points @ _ISO
    if plane == "pi1":
        return np.column_stack([points[:, 2], -points[:, 1]])
    if plane == "pi2":
        return np.column_stack([-points[:, 2], -points[:, 0]])
    if plane == "pi3":
        return np.column_stack([points[:, 1], -points[:, 0]])
    if plane == "cart":
        return np.column_stack([points[:, -1], -points[:, 0]])
    raise ValueError(f"unknown plane {plane!r}")


def _polyline(points2d: np.ndarray, color: str, width: float = 1.5,
              dashed: bool = False) -> str:
    pts = " ".join(f"{x:.4f},{y:.4f}" for x, y in points2d)
    dash = ' stroke-dasharray="4,3"' if dashed else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
            f'{dash} points="{pts}" />')


def _ellipse_section(ell: Ellipsoid, fixed_axis: int) -> np.ndarray:
    """Coordinate section of the ellipsoid with x_fixed = 0 (3D)."""
    idx = [j for j in range(3) if j != fixed_axis]
    th = np.linspace(0.0, 2.0 * math.pi, _SECTION_SAMPLES + 1)
    pts = np.zeros((_SECTION_SAMPLES + 1, 3))
    pts[:, idx[0]] = math.sqrt(ell.axes[idx[0]]) * np.cos(th)
    pts[:, idx[1]] = math.sqrt(ell.axes[idx[1]]) * np.sin(th)
    return pts


def _caustic_traces(t: Trajectory) -> list[tuple[np.ndarray, str]]:
    """Intersections of the ellipsoid with hyperboloid caustics, plus the
    sections of an ellipsoidal caustic, as 3D polylines with colors."""
    ell = t.ellipsoid
    a = ell.axes
    out: list[tuple[np.ndarray, str]] = []
    for lam_val in t.caustic.lambdas:
        if lam_val < a[0]:      # ellipsoidal caustic: draw its sections
            sub = Ellipsoid(tuple(v - lam_val for v in a))
            for j in range(3):
                out.append((_ellipse_section(sub, j), E_COLOR))
            continue
        if lam_val < a[1]:      # one-sheet hyperboloid: surface points with h1 = lam
            grid = np.linspace(a[1], a[2], _TRACE_SAMPLES)
            color = H1_COLOR
            mus = [(0.0, lam_val, h2) for h2 in grid]
        else:                   # two-sheet: surface points with h2 = lam
            grid = np.linspace(a[0], a[1], _TRACE_SAMPLES)
            color = H2_COLOR
            mus = [(0.0, h1, lam_val) for h1 in grid]
        for signs in [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]:
            arc = np.array([elliptic_to_cartesian(mu, ell, signs=signs, tol=1e-6)
                            for mu in mus])
            out.append((arc, color))
    return out


def _svg(elements: list[str], pts_for_bbox: np.ndarray) -> str:
    lo = pts_for_bbox.min(axis=0)
    hi = pts_for_bbox.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.06 * float(span.max())
    x0, y0 = lo - margin
    w, h = (hi - lo) + 2 * margin
    header = (f'<svg xmlns="http://www.w3.org/2000/svg" width="480" '
              f'height="{480.0 * h / w:.0f}" viewBox="{x0:.4f} {y0:.4f} {w:.4f} {h:.4f}">')
    body = "\n".join(elements)
    return f"{header}\n{body}\n</svg>\n"


def plot_projection(t: Trajectory, plane: str | None = None) -> str:
    """Render the trajectory with its outline and caustic traces as SVG."""
    ell = t.ellipsoid
    if ell.dim > 3:
        raise UnsupportedDimension(f"plots are drawn for 2D and 3D trajectories, not {ell.dim}D")
    if ell.dim == 3:
        plane = plane or "3d"
        if plane not in PLANES_3D:
            raise ValueError(f"plane must be one of {PLANES_3D}")
        return _plot_3d(t, plane)
    plane = plane or "cart"
    if plane not in PLANES_2D:
        raise ValueError(f"plane must be one of {PLANES_2D}")
    return _plot_elliptic_2d(t) if plane == "elliptic" else _plot_cart_2d(t)


def _plot_3d(t: Trajectory, plane: str) -> str:
    ell = t.ellipsoid
    elements = []
    cloud = []
    scale = 0.0015 * math.sqrt(ell.axes[-1])
    for j in range(3):
        pts = _project(_ellipse_section(ell, j), plane)
        elements.append(_polyline(pts, OUTLINE_COLOR, 0.8, dashed=True))
        cloud.append(pts)
    for arc, color in _caustic_traces(t):
        pts = _project(arc, plane)
        elements.append(_polyline(pts, color, 0.9))
    traj = _project(t.impacts, plane)
    elements.append(_polyline(traj, TRAJECTORY_COLOR, 1.8))
    for x, y in traj[:-1]:
        elements.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="{scale * 8:.4f}" '
                        f'fill="{TRAJECTORY_COLOR}" />')
    cloud.append(traj)
    return _svg(elements, np.vstack(cloud))


def _plot_cart_2d(t: Trajectory) -> str:
    ell = t.ellipsoid
    b, a = ell.axes
    th = np.linspace(0.0, 2.0 * math.pi, 361)
    outline = np.column_stack([math.sqrt(b) * np.cos(th), math.sqrt(a) * np.sin(th)])
    elements = [_polyline(_project(outline, "cart"), OUTLINE_COLOR, 0.8, dashed=True)]
    lam_val = t.caustic.lambdas[0]
    if t.caustic.ctype == "E":
        cau = np.column_stack([math.sqrt(b - lam_val) * np.cos(th),
                               math.sqrt(a - lam_val) * np.sin(th)])
        elements.append(_polyline(_project(cau, "cart"), E_COLOR, 0.9))
    else:
        ymax = math.sqrt(b) * 1.02
        ys = np.linspace(-ymax, ymax, 181)
        xs2 = (a - lam_val) * (1.0 + ys ** 2 / (lam_val - b))
        keep = xs2 >= 0.0
        for sgn in (1.0, -1.0):
            branch = np.column_stack([ys[keep], sgn * np.sqrt(xs2[keep])])
            elements.append(_polyline(_project(branch, "cart"), H1_COLOR, 0.9))
    traj = _project(t.impacts, "cart")
    elements.append(_polyline(traj, TRAJECTORY_COLOR, 1.8))
    return _svg(elements, np.vstack([_project(outline, "cart"), traj]))


def _plot_elliptic_2d(t: Trajectory) -> str:
    """Chords in elliptic coordinates; NonGenericPoint where a sample sits at a focus."""
    ell = t.ellipsoid
    box = cuboid(t.caustic, ell)
    (e0, e1), (h0, h1) = box.intervals
    rect = np.array([[e0, -h0], [e1, -h0], [e1, -h1], [e0, -h1], [e0, -h0]])
    elements = [_polyline(rect, OUTLINE_COLOR, 0.8, dashed=True)]
    q0, q1 = t.impacts[:-1, None, :], t.impacts[1:, None, :]
    u = (np.arange(_CHORD_SAMPLES + 1) / _CHORD_SAMPLES)[:, None]
    points = (q0 + u * (q1 - q0)).reshape(-1, ell.dim)
    mu, ok = elliptic_coords(points, ell)
    if not ok.all():
        raise NonGenericPoint(f"colliding elliptic coordinates at {points[np.argmin(ok)]}")
    path = mu * (1.0, -1.0)
    elements.append(_polyline(path, TRAJECTORY_COLOR, 1.2))
    return _svg(elements, np.vstack([rect, path]))
