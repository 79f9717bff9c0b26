import json
import os
import stat

import numpy as np
import pytest

from confocal_billiards import cli, document, plotting
from confocal_billiards import (CausticParams, Ellipsoid, WindingNumbers, class_by_id, engine,
                                find_spt)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classes_list_counts(capsys):
    code, out, _ = run_cli(capsys, "classes", "list", "--dim", "3")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 112
    code, out, _ = run_cli(capsys, "classes", "list", "--dim", "2")
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert code == 0 and len(rows) == 12
    code, out, _ = run_cli(capsys, "classes", "list", "--dim", "4")
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert code == 0 and len(rows) == 960


def test_classes_list_json_filter(capsys):
    code, out, _ = run_cli(capsys, "classes", "list", "--dim", "3",
                           "--type", "H1H1", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 28
    assert all(r["type"] == "H1H1" for r in rows)


@pytest.mark.parametrize("dim, ctype", [("3", "NOPE"), ("2", "EH1"), ("3", "E"), ("2", "")])
def test_classes_list_rejects_a_type_of_another_dimension(capsys, dim, ctype):
    code, out, err = run_cli(capsys, "classes", "list", "--dim", dim, "--type", ctype)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"


def test_freq_invert_golden(capsys):
    code, out, _ = run_cli(capsys, "freq", "invert", "--axes", "0.13,0.8,1.0",
                           "--type", "H1H1", "--winding", "4,3,2")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lambdas"][0] - 0.130077) < 1e-5
    assert abs(payload["lambdas"][1] - 0.648376) < 1e-5


def test_freq_eval(capsys):
    code, out, _ = run_cli(capsys, "freq", "eval", "--axes", "0.13,0.8,1.0",
                           "--lambdas", "0.130077,0.648376")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "H1H1"
    assert abs(payload["omega"][0] - 0.375) < 1e-4


def test_freq_eval_in_r4(capsys):
    from confocal_billiards import spectral
    code, out, _ = run_cli(capsys, "freq", "eval", "--axes", "0.1,0.3,0.6,1",
                           "--lambdas", "0.05,0.2,0.45")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "EH1H2"
    omega, _, ok = spectral._omega_rows([(0.05, 0.2, 0.45)], Ellipsoid((0.1, 0.3, 0.6, 1.0)), 1e-12)
    assert ok[0] and payload["omega"] == omega[0].tolist()


def test_2d_documents_survive_a_json_round_trip():
    # a -0.0 coordinate prints as -0, which a JSON reader takes for the
    # integer 0; seeds on a coordinate hyperplane must carry +0.0
    for cls in engine.enumerate_classes(1):
        t = find_spt(cls, engine.STOCK_ELLIPSOID_2D)
        text = document.dumps(document.trajectory_to_document(t, t.report))
        assert document.dumps(json.loads(text)) == text, cls.class_id


def test_spt_find_verify_plot(tmp_path, capsys):
    out_file = tmp_path / "spt.json"
    code, out, _ = run_cli(capsys, "spt", "find", "--class", "H1H1:R2i+R2o",
                           "--axes", "0.13,0.8,1.0", "--out", str(out_file))
    assert code == 0 and out_file.exists()

    code, out, _ = run_cli(capsys, "verify", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["winding_counts"] == [4, 3, 2]

    svg_file = tmp_path / "spt.svg"
    code, out, _ = run_cli(capsys, "plot", str(out_file),
                           "--plane", "3d", "--out", str(svg_file))
    assert code == 0
    first = svg_file.read_text()
    assert first.startswith("<svg") and "polyline" in first
    run_cli(capsys, "plot", str(out_file), "--plane", "3d", "--out", str(svg_file))
    assert svg_file.read_text() == first  # deterministic output
    for plane in ("pi1", "pi2", "pi3"):
        code, _, _ = run_cli(capsys, "plot", str(out_file),
                             "--plane", plane, "--out", str(svg_file))
        assert code == 0


def test_spt_find_verify_and_freq_invert_in_r4(tmp_path, capsys):
    out_file = tmp_path / "r4.json"
    code, _, _ = run_cli(capsys, "spt", "find", "--class", "EH1H2:R123+R13",
                         "--axes", "0.1,0.3,0.6,1", "--out", str(out_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(out_file))
    assert code == 0 and json.loads(out)["winding_counts"] == [12, 8, 6, 4]
    code, out, _ = run_cli(capsys, "freq", "invert", "--axes", "0.1,0.3,0.6,1",
                           "--type", "EH1H2", "--winding", "12,8,6,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "EH1H2"
    assert np.max(np.abs(np.subtract(payload["omega"], payload["target"]))) <= 1e-10


def test_plot_refuses_r4_documents(tmp_path, capsys):
    # no 4D projection: plot names the dimensions it draws, whatever the plane
    # (the caustics are given, so that the document does not need an inversion)
    lam = CausticParams((0.09800470920189748, 0.30762083234585, 0.8115169501464234), "EH2H3")
    t = find_spt(class_by_id("EH2H3:R1+R13", 3), Ellipsoid((0.1, 0.3, 0.6, 1.0)), lam=lam)
    doc, svg = tmp_path / "r4.json", tmp_path / "r4.svg"
    document.save_trajectory(t, str(doc), t.report)
    for plane in ((), ("--plane", "pi1"), ("--plane", "cart")):
        code, out, err = run_cli(capsys, "plot", str(doc), *plane, "--out", str(svg))
        payload = json.loads(err)
        assert code == 2 and out == "" and payload["error"] == "UnsupportedDimension"
        assert "2D and 3D" in payload["message"]
    assert not svg.exists()


def test_plot_2d_modes(tmp_path, capsys):
    out_file = tmp_path / "tri.json"
    code, _, _ = run_cli(capsys, "spt", "find", "--class", "E:Rx+fRx",
                         "--axes", "0.16,1.0", "--out", str(out_file))
    assert code == 0
    for plane in ("cart", "elliptic"):
        svg_file = tmp_path / f"tri-{plane}.svg"
        code, _, _ = run_cli(capsys, "plot", str(out_file),
                             "--plane", plane, "--out", str(svg_file))
        assert code == 0
        body = svg_file.read_text()
        assert plotting.TRAJECTORY_COLOR in body


def test_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 1 and "usage" in err
    code, _, err = run_cli(capsys, "freq", "invert", "--axes", "1.0,2.0",
                           "--type", "H", "--winding", "20,1")
    assert code == 2
    assert json.loads(err.strip())["error"]
    # verification failure -> exit 3
    out_file = tmp_path / "spt.json"
    run_cli(capsys, "spt", "find", "--class", "E:Rx+fRx",
            "--axes", "0.16,1.0", "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    doc["impacts"][1][0] += 1e-3
    out_file.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(out_file))
    assert code == 3


def test_class_ids_round_trip_and_the_parser_is_shared(capsys):
    for n in (1, 2):
        classes = engine.enumerate_classes(n)
        assert classes == engine.enumerate_classes(n)
        assert classes is not engine.enumerate_classes(n)
        for cls in classes:
            assert class_by_id(cls.class_id, n) == cls
        classes.clear()             # a caller's list is its own
        assert len(engine.enumerate_classes(n)) == (12 if n == 1 else 112)
    with pytest.raises(KeyError):
        class_by_id("E:Rx+Rz", 1)
    assert cli._build_parser() is cli._build_parser()
    code, _, err = run_cli(capsys, "spt", "find", "--class", "E:Rx+Rz", "--axes", "0.16,1.0")
    assert code == 2 and json.loads(err.strip())["error"] == "KeyError"
    # every call parses afresh with the shared parser
    code, _, err = run_cli(capsys, "classes", "list", "--dim", "2", "--type", "E")
    assert code == 0
    code, _, err = run_cli(capsys, "classes", "list")
    assert code == 1 and "usage" in err


def test_spt_find_names_a_winding_or_class_of_the_wrong_dimension(capsys):
    # both used to fail with a misleading message: a FeasibilityError about
    # deltas, and "unknown class id"
    cls = class_by_id("H1H1:R2i+R2o", 2)
    with pytest.raises(ValueError, match=r"winding \(4, 3\) has 2 numbers; class .* needs 3"):
        find_spt(cls, Ellipsoid((0.13, 0.8, 1.0)), WindingNumbers((4, 3)))
    with pytest.raises(KeyError, match="belongs to dimension 3, not to dimension 2"):
        class_by_id("H1H1:R2i+R2o", 1)
    with pytest.raises(KeyError, match="belongs to dimension 2, not to dimension 3"):
        class_by_id("E:Rx+fRx", 2)
    for extra, kind, words in (
            (["--axes", "0.13,0.8,1", "--winding", "4,3"], "ValueError", "has 2 numbers"),
            (["--axes", "0.16,1"], "KeyError", "belongs to dimension 3")):
        code, out, err = run_cli(capsys, "spt", "find", "--class", "H1H1:R2i+R2o", *extra)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == kind and words in payload["message"]


def test_freq_invert_names_a_winding_of_the_wrong_length(capsys):
    # used to say "target length 1 != n = 2"
    for winding, count in (("4,3", 2), ("4,3,2,1", 4)):
        code, out, err = run_cli(capsys, "freq", "invert", "--axes", "0.13,0.8,1",
                                 "--type", "H1H1", "--winding", winding)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"] == (f"winding ({winding.replace(',', ', ')}) has {count} numbers; "
                                      "axes (0.13, 0.8, 1.0) (dimension 3) need 3")


def test_document_17_digit_floats(tmp_path, ell_thin):
    traj = find_spt(class_by_id("H1H2:R+fR13", 2), ell_thin)
    text = document.dumps(document.trajectory_to_document(traj))
    # parse back: every float must round-trip exactly
    doc = json.loads(text)
    rebuilt = document.trajectory_from_document(doc)
    assert np.array_equal(rebuilt.impacts, traj.impacts)
    assert np.array_equal(rebuilt.velocities, traj.velocities)
    assert document.dumps(document.trajectory_to_document(rebuilt)) == text


def test_atomic_write(tmp_path):
    target = tmp_path / "out.json"
    document.write_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_write_file_mode(tmp_path):
    # a new file gets the mode open() would give it, not mkstemp's 0o600,
    # and an overwritten file keeps its mode
    target = tmp_path / "out.json"
    old = os.umask(0o022)
    try:
        document.write_atomic(str(target), "a\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        target.chmod(0o640)
        document.write_atomic(str(target), "b\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        os.umask(0o077)
        document.write_atomic(str(tmp_path / "new.json"), "c\n")
        assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o600
    finally:
        os.umask(old)
    assert target.read_text() == "b\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "out.json"]


def test_spt_find_verifies_once(monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = engine.verify_trajectory
    monkeypatch.setattr(engine, "verify_trajectory", counting)
    monkeypatch.setattr(cli, "verify_trajectory", counting)
    code, out, _ = run_cli(capsys, "spt", "find", "--class", "E:Rx+fRx",
                           "--axes", "0.16,1.0")
    assert code == 0 and json.loads(out)["symmetry_report"]["passed"]
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_document_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError):
        document.dumps({"closure_residual": bad})
    with pytest.raises(ValueError):
        document.dumps({"impacts": [[0.5, 1.0], [bad, 0.0]]})


def test_document_finite_bytes():
    doc = {"a": [0.1, np.float64(-2.5e-300), 3, True, None, "s"], "b": {}, "c": []}
    assert document.dumps(doc) == (
        '{\n  "a": [\n    0.10000000000000001,\n    -2.5e-300,\n'
        '    3,\n    true,\n    null,\n    "s"\n  ],\n  "b": {},\n  "c": []\n}\n')


@pytest.mark.parametrize("value", ["0", "-1e-9", "nan", "inf", "-inf", "tight"])
def test_quad_tol_env_rejected(value, monkeypatch, capsys):
    monkeypatch.setenv("CONFOCAL_QUAD_TOL", value)
    code, out, err = run_cli(capsys, "freq", "eval", "--axes", "0.13,0.8,1.0",
                             "--lambdas", "0.130077,0.648376")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ValueError"
    assert "CONFOCAL_QUAD_TOL" in payload["message"]


def test_spt_find_bytes_independent_of_hash_seed(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import confocal_billiards
    src = str(Path(confocal_billiards.__file__).resolve().parents[1])
    docs = []
    for seed in ("1", "2", "3"):
        out = tmp_path / f"spt-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "confocal_billiards.cli", "spt", "find",
                        "--class", "E:Rx+Ry", "--axes", "0.16,1.0", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        docs.append(out.read_bytes())
    assert docs[0] == docs[1] == docs[2]


@pytest.fixture(scope="module")
def triangle_text():
    traj = find_spt(class_by_id("E:Rx+fRx", 1), engine.STOCK_ELLIPSOID_2D)
    return document.dumps(document.trajectory_to_document(traj, traj.report))


CORRUPTIONS = {
    "type": lambda doc: doc["caustic"].update(type="H"),      # lambda is of type E
    "missing_row": lambda doc: doc["impacts"].pop(),
    "non_finite": lambda doc: doc["velocities"][1].__setitem__(0, float("nan")),
    "wrong_dim": lambda doc: [row.pop() for row in doc["impacts"]],
}


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_corrupted_documents_exit_2(how, triangle_text, tmp_path, capsys):
    doc = json.loads(triangle_text)
    CORRUPTIONS[how](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))          # writes NaN as the token NaN
    svg = tmp_path / "bad.svg"
    for argv in (["verify", str(path)], ["plot", str(path), "--out", str(svg)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]
    assert not svg.exists()


def test_valid_document_round_trips(triangle_text, tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(triangle_text)
    traj, doc = document.load_trajectory(str(path))
    again = document.trajectory_to_document(traj)
    again["symmetry_report"] = doc["symmetry_report"]
    assert document.dumps(again) == triangle_text


def test_closed_stdout_exits_141_silently():
    # the reader takes one line and closes the pipe; the 960-class JSON
    # listing (about 270 KB) outgrows the pipe's buffer, so a write fails
    import subprocess
    import sys
    from pathlib import Path

    import confocal_billiards
    src = str(Path(confocal_billiards.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-m", "confocal_billiards.cli", "classes", "list",
                           "--dim", "4", "--json"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == cli.PIPE_EXIT == 141
    assert err == b""


def test_atlas_summary_lists_rejected_shapes(tmp_path, capsys, monkeypatch):
    # each index and failures entry carries the shapes its class rejected,
    # with their errors, in the order tried
    from confocal_billiards.engine import AtlasResult
    traj = find_spt(class_by_id("E:Rx+fRx", 1), engine.STOCK_ELLIPSOID_2D)
    miss = ((0.13, 0.45, 1.0), "NoSolutionInComponent: Newton stalled")
    result = AtlasResult([traj], [("EH2:R1+R13", "Newton stalled")],
                         {"E:Rx+fRx": [], "EH2:R1+R13": [miss, miss]})
    monkeypatch.setattr(cli, "minimal_atlas", lambda **kw: result)
    code, _, _ = run_cli(capsys, "spt", "atlas", "--out", str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert code == 3
    assert [e["rejected"] for e in summary["index"]] == [[]]
    assert summary["failures"] == [{"id": "EH2:R1+R13", "error": "Newton stalled", "rejected": [
        {"axes": [0.13, 0.45, 1.0], "error": "NoSolutionInComponent: Newton stalled"}] * 2}]


def _other_e_class():
    return next(c.class_id for c in engine.enumerate_classes(1)
                if c.ctype == "E" and c.class_id != "E:Rx+fRx")


@pytest.mark.parametrize("class_id", ["other E", "H:R+Rx", "EH1:R12+R2", "nonsense"])
def test_verify_checks_the_class_id(class_id, triangle_text, tmp_path, capsys):
    # another class of the same type, another type, another dimension,
    # no class: each contradicts the orbit's type or visited vertexes
    class_id = _other_e_class() if class_id == "other E" else class_id
    traj = document.trajectory_from_document(json.loads(triangle_text))
    assert engine.verify_trajectory(traj).passed
    traj.class_id = class_id
    failures = engine.verify_trajectory(traj).failures
    assert len(failures) == 1 and failures[0].startswith("class")
    doc = json.loads(triangle_text)
    doc["class_id"] = class_id
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == ""
    assert json.loads(out)["failures"] == failures


@pytest.mark.parametrize("how", ["doubled", "first_row"])
def test_verify_checks_velocities_against_their_chords(how, triangle_text, tmp_path, capsys):
    doc = json.loads(triangle_text)
    v = doc["velocities"]
    doc["velocities"] = [[2.0 * x for x in row] for row in v] if how == "doubled" else [v[0]] * len(v)
    traj = document.trajectory_from_document(doc)
    failures = engine.verify_trajectory(traj).failures
    assert any(f.startswith("velocities off their chords") for f in failures)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == ""
    assert json.loads(out)["failures"] == failures


def test_zero_length_chord_is_a_singular_line(triangle_text, tmp_path, capsys):
    from confocal_billiards import SingularLine, caustic_params_of_line
    from confocal_billiards.geometry import caustic_params_of_lines
    ell = engine.STOCK_ELLIPSOID_2D
    q = np.array([0.0, 1.0])
    with pytest.raises(SingularLine, match="zero direction"):      # and no numpy warning
        caustic_params_of_line(q, np.zeros(2), ell)
    with pytest.raises(SingularLine, match="line 1 .* zero direction"):
        caustic_params_of_lines([q, q], [[1.0, -1.0], [0.0, 0.0]], ell)
    doc = json.loads(triangle_text)
    doc["impacts"][1] = doc["impacts"][0]
    with pytest.raises(SingularLine, match="zero direction"):
        engine.verify_trajectory(document.trajectory_from_document(doc))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "SingularLine"


@pytest.mark.parametrize("key, value", [("branch", 1.7), ("branch", True), ("branch", "x"),
                                        ("branch", -1), ("branch", None),
                                        ("class_id", [1, 2]), ("class_id", 3), ("branch", 4)])
def test_document_branch_and_class_id_types(key, value, triangle_text, tmp_path, capsys):
    doc = json.loads(triangle_text)
    doc[key] = value
    with pytest.raises(ValueError, match=key):
        document.trajectory_from_document(doc)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ValueError"


def test_document_branch_and_class_id_defaults(triangle_text):
    doc = json.loads(triangle_text)
    del doc["branch"], doc["class_id"]
    traj = document.trajectory_from_document(doc)
    assert traj.branch == 0 and traj.class_id is None
    doc["branch"] = 2
    assert document.trajectory_from_document(doc).branch == 2


@pytest.mark.parametrize("stored", [{"closure_residual": 5.0}, {"length": -1.0},
                                    {"closure_residual": 5.0, "length": -1.0},
                                    {"length": "1.5"}])
def test_verify_checks_stored_figures(stored, triangle_text, tmp_path, capsys):
    # the reader still loads the document; verify fails each stored figure
    # that the impacts and velocities contradict, naming both values
    doc = json.loads(triangle_text)
    traj = document.trajectory_from_document(doc)
    doc.update(stored)
    assert not engine.verify_trajectory(document.trajectory_from_document(doc)).failures
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == ""
    recomputed = {"closure_residual": traj.closure_residual, "length": traj.length}
    assert json.loads(out)["failures"] == [
        f"stored {key} {doc[key]!r} != {recomputed[key]!r} recomputed from the rows"
        for key in ("closure_residual", "length") if key in stored]


def test_verify_accepts_stored_figures_within_tolerance(triangle_text, tmp_path, capsys):
    doc = json.loads(triangle_text)
    doc["closure_residual"] += 9e-13
    doc["length"] *= 1.0 + 9e-13
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["failures"] == []


def test_atlas_documents_keep_their_stored_figures(atlas):
    # each atlas document, written and read back, matches its own rows
    for t in atlas.trajectories:
        doc = json.loads(document.dumps(document.trajectory_to_document(t, t.report)))
        assert cli._stored_figure_failures(document.trajectory_from_document(doc), doc) == []
