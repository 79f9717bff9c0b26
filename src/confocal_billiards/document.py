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
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unsupported document schema {doc.get('schema')!r}")
    ell = Ellipsoid(tuple(doc["axes"]))
    lam = CausticParams(tuple(doc["caustic"]["lambdas"]), doc["caustic"]["type"])
    return Trajectory(
        ellipsoid=ell,
        caustic=lam,
        winding=WindingNumbers(tuple(doc["winding"])),
        impacts=np.array(doc["impacts"], dtype=float),
        velocities=np.array(doc["velocities"], dtype=float),
        class_id=doc.get("class_id"),
        branch=int(doc.get("branch", 0)),
    )


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
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
