"""Lossless JSON persistence for trajectories.

Floats are emitted with 17 significant digits (exact float64 round trip)
by a small deterministic emitter, so write -> read -> write is
byte-identical.  Non-finite floats raise ValueError instead of becoming
the invalid tokens ``nan``/``inf``.  Files are written atomically (temp
file then rename).
"""

from __future__ import annotations

import json
import math
import os
import stat
import tempfile

import numpy as np

from .engine import Trajectory, VerificationReport
from .geometry import CausticParams, Ellipsoid
from .spectral import WindingNumbers

SCHEMA = "confocal-billiards.trajectory/1"


def _emit(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for i, (k, v) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(k)) + ": ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {float(value)!r} has no JSON form")
        out.append(f"{float(value):.17g}")
    elif value is None:
        out.append("null")
    else:
        out.append(json.dumps(value))


def dumps(doc: dict) -> str:
    out: list[str] = []
    _emit(doc, out, 0)
    out.append("\n")
    return "".join(out)


def trajectory_to_document(t: Trajectory, report: VerificationReport | None = None) -> dict:
    doc = {
        "schema": SCHEMA,
        "axes": list(t.ellipsoid.axes),
        "caustic": {"lambdas": list(t.caustic.lambdas), "type": t.caustic.ctype},
        "winding": list(t.winding.m),
        "class_id": t.class_id,
        "branch": t.branch,
        "closure_residual": t.closure_residual,
        "length": t.length,
        "impacts": [list(row) for row in t.impacts],
        "velocities": [list(row) for row in t.velocities],
    }
    if report is not None:
        doc["symmetry_report"] = report.to_dict()
    return doc


def trajectory_from_document(doc: dict) -> Trajectory:
    """Rebuild a trajectory, checking the document against itself.

    The caustic goes through ``CausticParams.from_values`` and its stored
    type must match; ``winding`` must be dim positive integers,
    ``impacts`` and ``velocities`` finite arrays of shape
    ``(winding[0] + 1, dim)``, ``branch`` (default 0) an integer in
    [0, 2^dim), the range of the vertex seeds, and ``class_id`` (default
    null) a string or null.  A document that fails raises ValueError (or
    the BilliardError of the caustic check), never a wrong trajectory.
    """
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        schema = doc.get("schema") if isinstance(doc, dict) else doc
        raise ValueError(f"unsupported document schema {schema!r}")
    try:
        ell = Ellipsoid(tuple(float(v) for v in doc["axes"]))
        lam = CausticParams.from_values(doc["caustic"]["lambdas"], ell)
        ctype = doc["caustic"]["type"]
        m = doc["winding"]
        if len(m) != ell.dim or not all(type(v) is int for v in m):
            raise ValueError(f"winding {m!r} is not {ell.dim} integers")
        winding = WindingNumbers(tuple(m))
        rows = {key: np.array(doc[key], dtype=float) for key in ("impacts", "velocities")}
        branch, class_id = doc.get("branch", 0), doc.get("class_id")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed trajectory document: {type(exc).__name__}: {exc}") from None
    if ctype != lam.ctype:
        raise ValueError(f"caustic type {ctype!r} does not match the lambdas "
                         f"{lam.lambdas} (type {lam.ctype})")
    shape = (winding.period + 1, ell.dim)
    for key, arr in rows.items():
        if arr.shape != shape or not np.all(np.isfinite(arr)):
            raise ValueError(f"{key} must be finite with shape {shape}, got {arr.shape}")
    if type(branch) is not int or not 0 <= branch < 2 ** ell.dim:
        raise ValueError(f"branch {branch!r} is not an integer in [0, {2 ** ell.dim})")
    if class_id is not None and not isinstance(class_id, str):
        raise ValueError(f"class_id {class_id!r} is not a string or null")
    return Trajectory(
        ellipsoid=ell,
        caustic=lam,
        winding=winding,
        impacts=rows["impacts"],
        velocities=rows["velocities"],
        class_id=class_id,
        branch=branch,
    )


def write_atomic(path: str, text: str) -> None:
    """Write through a temp file and a rename.

    The file keeps the mode of the one it replaces; a new file gets
    0o666 less the umask, as ``open`` gives it (the temp file is 0o600).
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)         # the only portable read; restored at once
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_trajectory(t: Trajectory, path: str,
                    report: VerificationReport | None = None) -> None:
    write_atomic(path, dumps(trajectory_to_document(t, report)))


def load_trajectory(path: str) -> tuple[Trajectory, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return trajectory_from_document(doc), doc
