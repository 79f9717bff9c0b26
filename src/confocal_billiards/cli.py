"""Command-line interface.

Subcommands: ``classes list``, ``freq eval|invert``, ``spt find``,
``spt atlas``, ``verify``, ``plot``.  Output is deterministic for fixed
flags.  Exit codes: 0 success, 1 usage error, 2 numeric failure
(no solution, singular input, ...), 3 verification failure, 141 stdout
closed by its reader (nothing is written to stderr then).  Errors go to
stderr as one-line JSON objects.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import document, plotting
from .engine import (
    class_by_id,
    class_count,
    enumerate_classes,
    find_spt,
    minimal_atlas,
    verify_trajectory,
)
from .errors import BilliardError, VerificationFailed
from .geometry import CausticParams, Ellipsoid, caustic_types
from .spectral import WindingNumbers, frequencies, invert_frequency

USAGE_EXIT, NUMERIC_EXIT, VERIFY_EXIT = 1, 2, 3
#: 128 + SIGPIPE, as a shell reports a process killed by a closed pipe
PIPE_EXIT = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


@cache
def _build_parser() -> _Parser:
    """The argument parser; built once per process (parsing leaves it unchanged)."""
    top = _Parser(prog="confocal-billiards",
                  description="Symmetric periodic trajectories of ellipsoidal billiards")
    sub = top.add_subparsers(dest="command", required=True)

    p_classes = sub.add_parser("classes", parents=[], help="class catalogs")
    sub_classes = p_classes.add_subparsers(dest="classes_command", required=True)
    p_list = sub_classes.add_parser("list", help="list all classes")
    p_list.add_argument("--dim", type=int, choices=(2, 3, 4), required=True)
    p_list.add_argument("--type", dest="ctype", default=None)
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(run=_cmd_classes)

    p_freq = sub.add_parser("freq", help="frequency map")
    p_freq.set_defaults(run=_cmd_freq)
    sub_freq = p_freq.add_subparsers(dest="freq_command", required=True)
    p_eval = sub_freq.add_parser("eval", help="evaluate frequencies at caustic parameters")
    p_eval.add_argument("--axes", type=_parse_floats, required=True)
    p_eval.add_argument("--lambdas", type=_parse_floats, required=True)
    p_inv = sub_freq.add_parser("invert", help="solve for caustic parameters")
    p_inv.add_argument("--axes", type=_parse_floats, required=True)
    p_inv.add_argument("--type", dest="ctype", required=True)
    p_inv.add_argument("--winding", type=_parse_ints, required=True)

    p_spt = sub.add_parser("spt", help="find symmetric periodic trajectories")
    sub_spt = p_spt.add_subparsers(dest="spt_command", required=True)
    p_find = sub_spt.add_parser("find", help="construct one verified trajectory")
    p_find.add_argument("--class", dest="class_id", required=True)
    p_find.add_argument("--axes", type=_parse_floats, required=True)
    p_find.add_argument("--winding", type=_parse_ints, default=None)
    p_find.add_argument("--branch", type=int, default=0)
    p_find.add_argument("--no-polish", action="store_true")
    p_find.add_argument("--out", default=None)
    p_find.set_defaults(run=_cmd_spt_find)
    p_atlas = sub_spt.add_parser("atlas", help="one minimal trajectory per class")
    p_atlas.add_argument("--out", required=True)
    p_atlas.add_argument("--axes2d", type=_parse_floats, default=None)
    p_atlas.add_argument("--flat", type=_parse_floats, default=None)
    p_atlas.add_argument("--thin", type=_parse_floats, default=None)
    p_atlas.set_defaults(run=_cmd_spt_atlas)

    p_verify = sub.add_parser("verify", help="verify a trajectory file")
    p_verify.add_argument("file")
    p_verify.set_defaults(run=_cmd_verify)

    p_plot = sub.add_parser("plot", help="render a trajectory file as SVG")
    p_plot.add_argument("file")
    p_plot.add_argument("--plane", default=None)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(run=_cmd_plot)
    return top


def _cmd_classes(args) -> int:
    classes = enumerate_classes(args.dim - 1)
    if args.ctype is not None:
        ctypes = caustic_types(args.dim - 1)
        if args.ctype not in ctypes:
            raise _UsageError(f"--type {args.ctype!r} is not a caustic type in dimension "
                              f"{args.dim}; choose one of {', '.join(ctypes)}")
        classes = [c for c in classes if c.ctype == args.ctype]
    if args.json:
        rows = [{
            "id": c.class_id,
            "type": c.ctype,
            "kind": list(c.minimal_winding.kind),
            "minimal_winding": list(c.minimal_winding.m),
            "couple": c.couple_label,
            "delta": list(c.delta),
        } for c in classes]
        print(json.dumps(rows, indent=2))
    else:
        print(f"# {len(classes)} classes (dim {args.dim}; "
              f"formula count {class_count(args.dim - 1)})")
        for c in classes:
            kind = ",".join(c.minimal_winding.kind)
            m = ",".join(str(v) for v in c.minimal_winding.m)
            print(f"{c.class_id:<24} kind=({kind})  minimal=({m})  {c.couple_label}")
    return 0


def _cmd_freq(args) -> int:
    ell = Ellipsoid(args.axes)
    if args.freq_command == "eval":
        lam = CausticParams.from_values(args.lambdas, ell)
        fv = frequencies(lam, ell)
        print(json.dumps({"type": lam.ctype,
                          "omega": list(fv.omega),
                          "error": fv.error}))
        return 0
    w = WindingNumbers(args.winding)
    if len(w.m) != ell.dim:
        raise ValueError(f"winding {w.m} has {len(w.m)} numbers; axes {ell.axes} "
                         f"(dimension {ell.dim}) need {ell.dim}")
    lam = invert_frequency(w.target(), args.ctype, ell)
    fv = frequencies(lam, ell)
    print(json.dumps({"type": lam.ctype,
                      "lambdas": list(lam.lambdas),
                      "omega": list(fv.omega),
                      "target": list(w.target())}))
    return 0


def _cmd_spt_find(args) -> int:
    ell = Ellipsoid(args.axes)
    cls = class_by_id(args.class_id, ell.n)
    w = WindingNumbers(args.winding) if args.winding else None
    traj = find_spt(cls, ell, w, branch=args.branch, polish=not args.no_polish)
    text = document.dumps(document.trajectory_to_document(traj, traj.report))
    if args.out:
        document.write_atomic(args.out, text)
        print(f"wrote {args.out} (period {traj.period}, "
              f"closure {traj.closure_residual:.3e})")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_spt_atlas(args) -> int:
    kwargs = {}
    if args.axes2d:
        kwargs["ell2d"] = Ellipsoid(args.axes2d)
    if args.flat:
        kwargs["ell_flat"] = Ellipsoid(args.flat)
    if args.thin:
        kwargs["ell_thin"] = Ellipsoid(args.thin)
    result = minimal_atlas(**kwargs)
    os.makedirs(args.out, exist_ok=True)
    index = []

    def rejected(cid):
        return [{"axes": list(axes), "error": msg} for axes, msg in result.rejected.get(cid, [])]

    for traj in result.trajectories:
        name = traj.class_id.replace(":", "-").replace(".", "") + ".json"
        document.save_trajectory(traj, os.path.join(args.out, name), traj.report)
        index.append({"id": traj.class_id, "file": name,
                      "period": traj.period,
                      "axes": list(traj.ellipsoid.axes),
                      "closure_residual": traj.closure_residual,
                      "rejected": rejected(traj.class_id)})
    summary = {"classes": len(result.trajectories),
               "failures": [{"id": cid, "error": msg, "rejected": rejected(cid)}
                            for cid, msg in result.failures],
               "index": index}
    document.write_atomic(os.path.join(args.out, "summary.json"),
                          json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"atlas: {len(result.trajectories)} classes, {len(result.failures)} failures")
    return 0 if result.complete else VERIFY_EXIT


#: How far a document's stored figures may lie from the values recomputed
#: from its rows: absolute for the closure residual, relative for the length.
_STORED_CLOSURE_ATOL = 1e-12
_STORED_LENGTH_RTOL = 1e-12


def _stored_figure_failures(traj, doc: dict) -> list[str]:
    """A failure line for each stored figure that the trajectory's rows contradict."""
    out = []
    for key, value, tol in (("closure_residual", traj.closure_residual, _STORED_CLOSURE_ATOL),
                            ("length", traj.length, _STORED_LENGTH_RTOL * traj.length)):
        stored = doc.get(key, value)        # an absent figure is not checked
        if not (type(stored) in (int, float) and abs(stored - value) <= tol):
            out.append(f"stored {key} {stored!r} != {value!r} recomputed from the rows")
    return out


def _cmd_verify(args) -> int:
    traj, doc = document.load_trajectory(args.file)
    report = verify_trajectory(traj)
    report.failures += _stored_figure_failures(traj, doc)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.passed else VERIFY_EXIT


def _cmd_plot(args) -> int:
    traj, _ = document.load_trajectory(args.file)
    svg = plotting.plot_projection(traj, args.plane)
    document.write_atomic(args.out, svg)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except BrokenPipeError:
        # the reader closed stdout: point its descriptor at the null device,
        # so that the flush at exit cannot raise again; no SIGPIPE handler,
        # since main also runs inside other programs
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        except (OSError, ValueError):       # a stdout without a descriptor
            pass
        return PIPE_EXIT
    except _UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return USAGE_EXIT
    except VerificationFailed as exc:
        payload = {"error": "VerificationFailed", "message": str(exc)}
        if exc.report is not None:
            payload["report"] = exc.report.to_dict()
        print(json.dumps(payload), file=sys.stderr)
        return VERIFY_EXIT
    except (BilliardError, ValueError, KeyError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
