import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
_SPEC = importlib.util.spec_from_file_location("compare_runs", _SCRIPT)
compare_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_runs)


def _manifest(wall=1.25, closed=0.5, oracle=2.0, detail="ok", outputs="out-a", seed=0):
    return {
        "scenario": "tiny",
        "config": {"seed": seed, "outputs": outputs},
        "wall_clock_s": wall,
        "summary": {
            "closed_form_runtime": {"status": "pass", "value": closed, "detail": "< 5 s"},
            "parabolic_oracle_runtime": {"status": "pass", "value": oracle,
                                         "detail": "< 10 s"},
            "quasimonotone": {"status": "pass", "value": None, "detail": detail},
        },
        "files": ["report.json", "trajectory.csv"],
    }


def _tree(root: Path, **manifest) -> Path:
    run = root / "tiny"
    run.mkdir(parents=True)
    (run / "manifest.json").write_text(json.dumps(_manifest(**manifest), indent=2))
    (run / "report.json").write_text(json.dumps({"value": 0.1}))
    (run / "trajectory.csv").write_text("t,x1\n0,1.5\n0.1,1.25\n")
    return root


def test_equal_trees(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert compare_runs.main([str(a), str(b)]) == 0
    assert "identical: 3 files" in capsys.readouterr().out


def test_runtimes_are_ignored(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", wall=9.5, closed=0.75, oracle=3.5)
    assert compare_runs.main([str(a), str(b)]) == 0


def test_output_directory_is_ignored(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", outputs="elsewhere/out-b")
    assert compare_runs.main([str(a), str(b)]) == 0


def test_other_config_field_differs(tmp_path, capsys):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", outputs="elsewhere/out-b", seed=7)
    assert compare_runs.main([str(a), str(b)]) == 1
    assert "manifest.config.seed: 0 != 7" in capsys.readouterr().out


def test_manifest_detail_differs(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", detail="changed")
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "tiny/manifest.json" in out
    # A changed detail is a non-numeric mismatch, but no status changed.
    assert out.splitlines()[-1] == "tiny/manifest.json: check statuses: unchanged"


def test_manifest_status_changes_are_listed(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", detail="changed")
    path = b / "tiny" / "manifest.json"
    manifest = json.loads(path.read_text())
    summary = manifest["summary"]
    summary["quasimonotone"]["status"] = "fail"
    summary["closed_form_runtime"]["status"] = "skip"
    summary["aborted"] = {"status": "fail", "value": None, "detail": "BlowupDetected"}
    del summary["parabolic_oracle_runtime"]
    path.write_text(json.dumps(manifest, indent=2))
    assert compare_runs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        "tiny/manifest.json: closed_form_runtime: pass -> skip",
        "tiny/manifest.json: parabolic_oracle_runtime: pass -> absent",
        "tiny/manifest.json: quasimonotone: pass -> fail",
        "tiny/manifest.json: aborted: absent -> fail",
    ]


def test_one_csv_byte_differs(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    csv = b / "tiny" / "trajectory.csv"
    csv.write_bytes(csv.read_bytes().replace(b"1.25", b"1.35"))
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "tiny/trajectory.csv" in out and "line 3" in out


@pytest.mark.parametrize("extra_in", ["a", "b"])
def test_file_in_one_tree_only(tmp_path, capsys, extra_in):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    shutil.copy(a / "tiny" / "report.json", tmp_path / extra_in / "tiny" / "extra.json")
    assert compare_runs.main([str(a), str(b)]) == 1
    assert "tiny/extra.json: only in" in capsys.readouterr().out


def test_report_drift(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (a / "tiny" / "report.json").write_text(json.dumps(
        {"value": 0.1, "rows": [1.0, -2.0, 3], "verdict": "yes", "gone": 1}))
    (b / "tiny" / "report.json").write_text(json.dumps(
        {"value": 0.1 + 3e-10, "rows": [1.0, -2.25, 3], "verdict": "no", "new": 1}))
    csv = b / "tiny" / "trajectory.csv"
    csv.write_bytes(csv.read_bytes().replace(b"1.25", b"1.35"))
    assert compare_runs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    # Every differing file is named, not only the first; the key set differs
    # by two keys and the verdict by one string.
    assert [ln.split(":")[0] for ln in lines] == ["tiny/report.json"] * 2 + ["tiny/trajectory.csv"] * 2
    assert lines[1] == "tiny/report.json: max |delta| 0.25 over numeric leaves, " \
                       "3 non-numeric mismatches"
    assert lines[3] == "tiny/trajectory.csv: max |delta| 0.1 over numeric leaves, " \
                       "0 non-numeric mismatches"


def test_csv_drift(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    csv = b / "tiny" / "trajectory.csv"
    csv.write_text("t,x2\n0,1.5\n0.1,1.2500000003\n0.2,7\n")
    assert compare_runs.main([str(a), str(b)]) == 1
    # The header field and the extra row are the non-numeric mismatches.
    assert capsys.readouterr().out.splitlines() == [
        "tiny/trajectory.csv: line 1: 't,x1' != 't,x2'",
        "tiny/trajectory.csv: max |delta| 3e-10 over numeric leaves, 2 non-numeric mismatches",
    ]


def test_report_drift_of_numbers_only(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (b / "tiny" / "report.json").write_text(json.dumps({"value": 0.1 + 3e-10}))
    assert compare_runs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "tiny/report.json: max |delta| 3e-10 over numeric leaves, 0 non-numeric mismatches"


def test_manifest_drift(tmp_path, capsys):
    # The wall clock and the runtime checks stay out of the drift too.
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", wall=9.5, closed=0.75)
    path = b / "tiny" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["seed"] = 2e-12
    manifest["summary"]["quasimonotone"]["status"] = "fail"
    path.write_text(json.dumps(manifest, indent=2))
    assert compare_runs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "tiny/manifest.json: manifest.config.seed: 0 != 2e-12",
        "tiny/manifest.json: max |delta| 2e-12 over numeric leaves, 1 non-numeric mismatches",
        "tiny/manifest.json: quasimonotone: pass -> fail",
    ]


def test_reader_closing_early_ends_quietly(tmp_path):
    # The second differing file's first difference is a 600 kB line, more
    # than a pipe holds, so the script writes on after its reader has gone.
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (b / "tiny" / "report.json").write_text(json.dumps({"value": 0.2}))
    for root, digit in ((a, "1"), (b, "2")):
        (root / "tiny" / "trajectory.csv").write_text("t,x1\n0," + digit * 300_000 + "\n")
    proc = subprocess.Popen([sys.executable, str(_SCRIPT), str(a), str(b)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"tiny/report.json: ")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()
