import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import Mock, patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from poisson_lab import scenarios
from poisson_lab.cli import main
from poisson_lab.recurrence import ClassifyConfig, TauGrid, classify, jsonable
from poisson_lab.signals import Window, read_signal_csv, sample_function, write_signal_csv


@pytest.fixture()
def sine_csv(tmp_path):
    path = tmp_path / "sine.csv"
    write_signal_csv(sample_function(np.sin, 0.0, 200.0, 0.01), path)
    return path


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("s1-opial-scalar", "levitan", "s3-coop-2d",
                 "s4-dde-linear", "s5-rd-scalar"):
        assert name in out


def test_classify_file(sine_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["classify", str(sine_csv), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["classes"]["periodic"]["verdict"] == "yes"
    assert report["classes"]["periodic"]["params"]["period"] == pytest.approx(
        2 * math.pi, abs=0.02)


def test_classify_empty_file(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    assert main(["classify", str(bad)]) == 2


@pytest.mark.parametrize("content", [None, b"\xff\xfe\x00"])
def test_unreadable_csv_exit_2(tmp_path, capsys, content):
    # A missing file, then one that is not UTF-8.
    path = tmp_path / "sig.csv"
    if content is not None:
        path.write_bytes(content)
    for argv in (["classify", str(path)], ["compare", str(path), str(path)]):
        assert main(argv) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_classify_non_uniform_grid(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1\n0,0\n0.1,1\n0.35,2\n")
    assert main(["classify", str(bad)]) == 2


def test_compare_same_file(sine_csv, tmp_path, capsys):
    out = tmp_path / "cmp.json"
    assert main(["compare", str(sine_csv), str(sine_csv),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "comparable-evidence"
    for eps, dh in payload["pairs"]:
        assert dh == "inf" or dh >= eps


def test_classify_two_frequency_file(tmp_path, capsys):
    from poisson_lab.systems import forcing_signal

    path = tmp_path / "h.csv"
    write_signal_csv(forcing_signal("levitan-base", 0.0, 1000.0, 0.05), path)
    out = tmp_path / "report.json"
    assert main(["classify", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    quasi = report["classes"]["quasi_periodic"]
    assert quasi["verdict"] == "yes"
    freqs = sorted(quasi["params"]["freqs"])
    assert abs(freqs[0] - 1.0) <= 1e-2
    assert abs(freqs[1] - math.sqrt(2.0)) <= 1e-2


def test_compare_levitan_pair(tmp_path, capsys):
    from poisson_lab.systems import forcing_signal

    psi = tmp_path / "psi.csv"
    phi = tmp_path / "phi.csv"
    write_signal_csv(forcing_signal("levitan-psi", -200.0, 200.0, 0.025), psi)
    write_signal_csv(forcing_signal("levitan-phi", -200.0, 200.0, 0.025), phi)
    out = tmp_path / "cmp.json"
    assert main(["compare", str(psi), str(phi), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "comparable-evidence"


def test_compare_domain_mismatch(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_signal_csv(sample_function(np.sin, 0.0, 10.0, 0.01), a)
    write_signal_csv(sample_function(np.sin, 100.0, 110.0, 0.01), b)
    assert main(["compare", str(a), str(b)]) == 2


def test_compare_default_tau_step_stays_on_the_grid(tmp_path, capsys):
    # 250,001 samples at dt 0.05: span / 100,000 = 0.0625 is 1.25 dt, which
    # would read most shifts off the interpolant.
    path = tmp_path / "long.csv"
    write_signal_csv(sample_function(np.sin, 0.0, 12500.0, 0.05), path)
    seen = []

    def profile(traj, base, eps, grid, w, **kw):
        seen.append((traj.dt, grid.tau_step))
        return SimpleNamespace(to_dict=dict)

    with patch("poisson_lab.cli.comparability_profile", profile):
        assert main(["compare", str(path), str(path)]) == 0
    (dt, step), = seen
    assert step >= dt and step == dt * round(step / dt)


@pytest.mark.parametrize("rows, code", [(5, 2), (6, 0)])
def test_compare_short_signal_with_itself(tmp_path, capsys, rows, code):
    # Five rows span four grid steps, the most that compare rejects.
    path = tmp_path / "rows.csv"
    path.write_text("t,x1\n" + "".join(",".join(r) + "\n" for r in _CSV_ROWS[:rows]))
    assert main(["compare", str(path), str(path)]) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert err == ["error: the common domain of the two signals spans at most "
                       "four grid steps, too short to compare"]


@pytest.mark.parametrize("extra, verdict", [
    ({}, "refuted"),
    # With a fraction of 0 no profile is far enough below its scale to refute.
    ({"refute_frac": 0.0}, "comparable-evidence"),
])
def test_compare_config_sets_refute_frac(tmp_path, capsys, extra, verdict):
    a, b = tmp_path / "sine.csv", tmp_path / "sine-sqrt2.csv"
    write_signal_csv(sample_function(np.sin, 0.0, 400.0, 0.05), a)
    write_signal_csv(sample_function(lambda t: np.sin(math.sqrt(2.0) * t), 0.0, 400.0, 0.05), b)
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({"window": [100, 100], "tau_grid": [0, 150, 0.05], **extra}))
    out = tmp_path / "cmp.json"
    assert main(["compare", str(a), str(b), "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == verdict


@pytest.mark.parametrize("base", [np.sin, lambda t: np.sin(math.sqrt(2.0) * t)])
def test_compare_prints_classify_comparability(base, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_signal_csv(sample_function(lambda t: np.sin(t) + 0.01 * np.cos(3 * t),
                                     0.0, 120.0, 0.05), a)
    write_signal_csv(sample_function(base, 0.0, 120.0, 0.05), b)
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({"window": [30, 25], "tau_grid": [0, 60, 0.05],
                               "bohr_epsilons": [2.5, 0.5, 0.02, 0.2], "refute_frac": 0.1}))
    assert main(["compare", str(a), str(b), "--config", str(cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)
    ccfg = ClassifyConfig(Window(30, 25), TauGrid(0, 60, 0.05),
                          bohr_epsilons=(2.5, 0.5, 0.02, 0.2), refute_frac=0.1)
    report = jsonable(classify(read_signal_csv(a), base=read_signal_csv(b), cfg=ccfg))
    assert printed == json.loads(json.dumps(report["comparability"]))


@pytest.mark.parametrize("analysis", [{}, {"bohr_epsilons": [0.5, 0.2, 0.1]}, {"refute_frac": 0.05}])
def test_compare_config_overrides_the_compare_defaults(tmp_path, capsys, analysis):
    # The defaults under a config are compare's own (the common domain, not the
    # trajectory's), so a config that restates them prints the same bytes.
    long, short = tmp_path / "long.csv", tmp_path / "short.csv"
    write_signal_csv(sample_function(np.sin, 0.0, 400.0, 0.05), long)   # 8,001 samples
    write_signal_csv(sample_function(np.sin, 0.0, 100.0, 0.05), short)  # 2,001 samples
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps(analysis))
    assert main(["compare", str(long), str(short)]) == 0
    bare = capsys.readouterr().out
    assert main(["compare", str(long), str(short), "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == bare


@pytest.mark.parametrize("text", [None, "{not json"])
@pytest.mark.parametrize("command", ["classify", "compare"])
def test_unreadable_analysis_config_names_its_file(sine_csv, tmp_path, capsys, command, text):
    cfg = tmp_path / "analysis.json"
    if text is not None:
        cfg.write_text(text)
    files = [str(sine_csv)] * (1 if command == "classify" else 2)
    assert main([command, *files, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: cannot read analysis config {cfg}: ")


def _assert_comparability_form(comp):
    """The ``comparability`` block of docs/report-schema.md."""
    assert set(comp) == {"pairs", "verdict", "witness", "window", "tau_grid"}
    assert set(comp["window"]) == {"center", "half_width"}
    assert len(comp["tau_grid"]) == 3
    assert all(type(v) in (int, float) for v in comp["tau_grid"])
    assert all(len(p) == 2 and (p[1] == "inf" or type(p[1]) is float) for p in comp["pairs"])


def test_report_json_has_the_documented_form(levitan_run):
    psi = levitan_run["report"]["psi"]
    assert set(psi) == {"classes", "comparability", "transfer", "notes"}
    for verdict in psi["classes"].values():
        assert set(verdict) == {"verdict", "params", "witness", "window", "notes"}
        assert set(verdict["window"]) == {"center", "half_width"}
        assert type(verdict["notes"]) is str
    _assert_comparability_form(psi["comparability"])
    assert set(psi["transfer"]) == {"verdict", "claims", "levitan_evidence",
                                    "levitan_origin", "relative_to"}
    assert type(psi["notes"]) is list and all(type(n) is str for n in psi["notes"])


def test_compare_json_has_the_documented_form(sine_csv, tmp_path, capsys):
    # A trajectory within 0.02 of zero fails no eps-shift: each delta_hat is +inf.
    flat = tmp_path / "flat.csv"
    write_signal_csv(sample_function(lambda t: 0.01 * np.sin(t), 0.0, 200.0, 0.01), flat)
    assert main(["compare", str(flat), str(sine_csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    _assert_comparability_form(payload)
    assert [d for _, d in payload["pairs"]] == ["inf"] * 3


def test_compare_ramp_vs_sine(sine_csv, tmp_path, capsys):
    ramp_csv = tmp_path / "ramp.csv"
    write_signal_csv(
        sample_function(lambda t: np.asarray(t, dtype=float), 0.0, 200.0, 0.01),
        ramp_csv)
    out = tmp_path / "cmp.json"
    assert main(["compare", str(ramp_csv), str(sine_csv),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "refuted"
    assert payload["witness"] is not None


def test_run_invalid_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "name": "broken",
        "system": {"kind": "scalar_ode", "dim": 1, "rhs": "linear+trig",
                   "params": {"A": [[-1.0]], "forcing": [[]]}},
        "integrator": {"dt": -0.5},
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_run_unknown_scenario_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_run_custom_config_and_manifest_completeness(tmp_path, capsys):
    cfg = tmp_path / "decay.json"
    cfg.write_text(json.dumps({
        "name": "decay-demo",
        "system": {"kind": "scalar_ode", "dim": 1, "rhs": "linear+trig",
                   "params": {"A": [[-1.0]], "forcing": [[[1.0, 1.0, 0.0]]]}},
        "integrator": {"method": "rk45_adaptive", "dt": 0.01, "t_end": 60.0,
                       "record_dt": 0.05},
        "analysis": {"u0": [0.0]},
    }))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    emitted = {p.name for p in out.iterdir()}
    assert emitted == set(manifest["files"])
    assert manifest["exit_code"] == 0


def test_usage_error_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def _write_config(tmp_path, name, params):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": name,
        "system": {"kind": "scalar_ode", "dim": 1, "rhs": "linear+trig",
                   "params": params},
        "integrator": {"method": "rk45_adaptive", "dt": 0.01, "t_end": 10.0,
                       "record_dt": 0.05},
    }))
    return cfg


def test_run_config_without_matrix_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "no-matrix", {"forcing": [[]]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_run_config_with_catalog_name_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "levitan", {"A": [[-1.0]], "forcing": [[]]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "reserved" in capsys.readouterr().err


def test_run_aborted_stage_still_writes_manifest(tmp_path, capsys):
    # The s3 return window [0, 50] does not fit a horizon of 20.
    out = tmp_path / "out"
    assert main(["run", "s3-coop-2d", "--horizon", "20", "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert {p.name for p in out.iterdir()} == set(manifest["files"])
    aborted = manifest["summary"]["aborted"]
    assert aborted["status"] == "fail"
    assert aborted["detail"].startswith("WindowOutOfDomain: ")
    assert manifest["exit_code"] == 1


def _adaptive_config(tmp_path, outputs=None, **integrator):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "tolerances",
        "system": {"kind": "scalar_ode", "dim": 1, "rhs": "linear+trig",
                   "params": {"A": [[-1.0]], "forcing": [[[1.0, 1.0, 0.0]]]}},
        "integrator": {"method": "rk45_adaptive", "dt": 0.01, "t_end": 10.0,
                       "record_dt": 0.05, **integrator},
        "analysis": {"u0": [1.0]},
        "outputs": outputs,
    }))
    return cfg


def test_run_step_underflow_still_writes_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _adaptive_config(tmp_path, rel_tol=1e-300, abs_tol=1e-300)
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert {p.name for p in out.iterdir()} == set(manifest["files"])
    aborted = manifest["summary"]["aborted"]
    assert aborted["status"] == "fail"
    assert re.fullmatch(r"StepUnderflow: step \S+ underflow at t=\S+", aborted["detail"])
    assert manifest["exit_code"] == 1


# An infinite blowup bound would switch the bound check off: an overflowing
# rk4_fixed run used to end in a traceback without a manifest.
@pytest.mark.parametrize("tolerance", ["rel_tol", "abs_tol", "blowup_bound"])
def test_run_infinite_tolerance_exit_2(tmp_path, capsys, tolerance):
    out = tmp_path / "out"
    assert main(["run", str(_adaptive_config(tmp_path, **{tolerance: math.inf})),
                 "--out", str(out)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (out / "manifest.json").exists()


def test_run_config_outputs_receive_every_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POISSON_LAB_OUT", str(tmp_path / "default"))
    wanted = tmp_path / "wanted"
    cfg = _adaptive_config(tmp_path, outputs=str(wanted))
    assert main(["run", str(cfg)]) == 0
    manifest = json.loads((wanted / "manifest.json").read_text())
    assert sorted(p.name for p in wanted.iterdir()) == manifest["files"]
    assert manifest["config"]["outputs"] == str(wanted)
    assert f"artifacts: {wanted}" in capsys.readouterr().out
    assert not (tmp_path / "default").exists()
    # --out still takes precedence over the config's outputs.
    over = tmp_path / "over"
    assert main(["run", str(cfg), "--out", str(over)]) == 0
    manifest = json.loads((over / "manifest.json").read_text())
    assert sorted(p.name for p in over.iterdir()) == manifest["files"]


def test_run_negative_seed_exit_2_without_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "s4-dde-linear", "--seed", "-1", "--out", str(out)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, seeds", [([], 3), (["--seed", "7"], 7), (["--seed", "0"], 0)])
def test_run_config_seed_flag_sets_seeds(tmp_path, capsys, argv, seeds):
    # --seed overrides a file's seeds as it does a catalog scenario's; unset, the file's stand.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_VALID_CONFIGS[0], "seeds": 3}))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), *argv]) != 2
    assert json.loads((out / "manifest.json").read_text())["config"]["seeds"] == seeds


def test_run_config_negative_seed_flag_exit_2_without_files(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_VALID_CONFIGS[0]))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


# JSON's 1e400 reads as inf.
@pytest.mark.parametrize("seeds", [-1, 2.7, 2.0, True, math.inf])
def test_run_config_seeds_not_a_nonnegative_int_exit_2(tmp_path, capsys, seeds):
    cfg = _adaptive_config(tmp_path)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "seeds": seeds}))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


# JSON's true is a Python bool, which isinstance(x, int) lets through.
@pytest.mark.parametrize("case, field", [
    ((1, ("system", "dim"), True), "dim"),
    ((2, ("integrator", "space_points"), True), "space_points"),
])
def test_run_boolean_count_exit_2_naming_the_field(case, field, tmp_path, capsys):
    assert _run_corrupted(case, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{field} must be an integer" in err
    assert not (tmp_path / "out").exists()


# Tau grids with an infinite end or step, or more shifts than an array can
# hold (np.iinfo(np.intp).max // 8, about 1.15e18).
_UNBUILDABLE_GRIDS = [[0, math.inf, 1], [-math.inf, 10, 1], [-1e308, 1e308, 1],
                      [0, 1e308, 1e-308], [0, 10, math.inf], [0, 10, 1e-300]]


@pytest.mark.parametrize("analysis", [
    {"window": [100.0, -5.0]},
    {"tau_grid": [0.0, -1.0, 0.1]},
    {"stationary_tol": "tiny"},
    {"bohr_epsilons": 0.5},
    {"poisson_separation": float("nan")},
    {"poisson_separation": float("inf")},
    {"poisson_separation": -5.0},
    {"poisson_schedule": ["a"]},
    {"poisson_schedule": [-0.1]},
    {"poisson_schedule": [0.0]},
    {"poisson_schedule": [float("nan")]},
    {"poisson_schedule": [0.2, float("inf")]},
    {"poisson_schedule": [True]},
    {"poisson_schedule": [0.1, 0.2]},
    {"bohr_epsilons": [float("nan")]},
    {"bohr_epsilons": [0.5, -0.2]},
    *({"tau_grid": grid} for grid in _UNBUILDABLE_GRIDS),
    {"bohr_epsilons": []},
    {"poisson_schedule": []},
])
def test_classify_bad_analysis_config_exit_2(sine_csv, tmp_path, capsys, analysis):
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps(analysis))
    assert main(["classify", str(sine_csv), "--config", str(cfg)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("key", ["bohr_epsilons", "poisson_schedule"])
def test_compare_empty_epsilon_list_exit_2(sine_csv, tmp_path, capsys, key):
    # An empty list once printed an empty profile (compare) or ended in a
    # traceback or in "yes" verdicts from no returns (classify).
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({key: []}))
    assert main(["compare", str(sine_csv), str(sine_csv), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: bad analysis config {cfg}: {key}")


@pytest.mark.parametrize("grid", _UNBUILDABLE_GRIDS)
def test_compare_unbuildable_tau_grid_exit_2(sine_csv, tmp_path, capsys, grid):
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({"window": [50, 40], "tau_grid": grid}))
    assert main(["compare", str(sine_csv), str(sine_csv), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: bad analysis config")


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["refute_frac", "stationary_tol", "quasi_residual_tol",
                                 "periodic_verify_rel"])
def test_compare_bad_float_tolerance_exit_2(sine_csv, tmp_path, capsys, key, value):
    # With {"refute_frac": -1} no comparison could ever be refuted.
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["compare", str(sine_csv), str(sine_csv), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: bad analysis config {cfg}: {key}")


@pytest.mark.parametrize("command", ["classify", "compare"])
@pytest.mark.parametrize("analysis, named", [
    ({"bohr_epsilon": [0.01], "poisson_schedul": [0.001]}, "bohr_epsilon, poisson_schedul"),
    ({"window": [50, 40], "fit_window": [50, 40]}, "fit_window"),
    (["window"], None),
])
def test_unknown_analysis_keys_exit_2(sine_csv, tmp_path, capsys, command, analysis, named):
    # A misspelt key once left its default in place without a word.
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps(analysis))
    files = [str(sine_csv)] * (2 if command == "compare" else 1)
    assert main([command, *files, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: bad analysis config {cfg}: "
                          + (f"unknown keys {named} (accepted: window, tau_grid, bohr_epsilons,"
                             if named else "not a JSON object"))


def test_refute_frac_above_one_exit_2(sine_csv, tmp_path, capsys):
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({"refute_frac": 1.5}))
    assert main(["compare", str(sine_csv), str(sine_csv), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: bad analysis config {cfg}: refute_frac must be at most 1\n"


def test_closed_stdout_is_one_error_line(tmp_path):
    """stdout on a pipe whose reader closed first: one error line and exit 1, no
    traceback and no "Exception ignored" line from the flush at exit; --out is
    still written."""
    csv, out = tmp_path / "sine.csv", tmp_path / "report.json"
    write_signal_csv(sample_function(np.sin, 0.0, 50.0, 0.05), csv)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "poisson_lab.cli", "classify", str(csv),
                               "--out", str(out)], stdout=w, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=300)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert json.loads(out.read_text())["classes"]["periodic"]["verdict"] == "yes"


def test_classify_separation_past_the_signal_finds_no_return(sine_csv, tmp_path, capsys):
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({"poisson_separation": 1e308}))
    assert main(["classify", str(sine_csv), "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classes"]["poisson"]["witness"]["found"] == []


@pytest.mark.parametrize("analysis, code", [
    ({"window": [0.1, 0.1], "tau_grid": [0.0, 0.1, 0.1]}, 0),
    ({"window": [0.1, 0.1]}, 2),
])
def test_classify_four_rows_needs_window_and_grid(tmp_path, capsys, analysis, code):
    """The default window needs 5 samples; a config giving both the window
    and the tau grid does without it."""
    csv = tmp_path / "four.csv"
    csv.write_text("t,x1\n0,0.5\n0.1,-0.25\n0.2,1\n0.3,0\n")
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps(analysis))
    assert main(["classify", str(csv), "--config", str(cfg)]) == code
    assert len(capsys.readouterr().err.strip().splitlines()) == (1 if code else 0)


def test_run_unknown_rhs_exit_2_without_manifest(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "unknown-rhs",
        "system": {"kind": "scalar_ode", "dim": 1, "rhs": "foo",
                   "params": {"A": [[-1.0]], "forcing": [[]]}},
        "integrator": {"method": "rk45_adaptive", "dt": 0.01, "t_end": 10.0,
                       "record_dt": 0.05},
    }))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "'foo'" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("system, analysis", [
    pytest.param({"kind": "cooperative_ode", "dim": 2, "rhs": "linear+trig",
                  "params": {"A": [[-1.0, 0.5], [0.5, -1.0]]}},
                 {"u0": [1.0, 2.0, 3.0]}, id="u0-length"),
    pytest.param({"kind": "parabolic_1d", "dim": 2, "rhs": "rd-scalar",
                  "params": {"nu": [0.1], "decay": [1.0], "source_amp": [1.0]}},
                 {}, id="species-count"),
])
def test_run_wrong_shaped_start_exit_2(tmp_path, capsys, system, analysis):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "wrong-shape", "system": system, "analysis": analysis,
        "integrator": {"method": "rk4_fixed", "dt": 0.05, "t_end": 2.0,
                       "record_dt": 0.1, "space_points": 16},
    }))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()


# json writes math.inf as Infinity, which the config reader takes as a float.
@pytest.mark.parametrize("case, method", [
    ((0, ("analysis", "u0", 1), math.inf), "rk45_adaptive"),
    ((0, ("analysis", "u0", 1), math.inf), "rk4_fixed"),
    ((2, ("analysis", "u0_value"), math.inf), "rk4_fixed"),
])
def test_run_non_finite_start_exit_2_without_manifest(case, method, tmp_path, capsys):
    assert _run_corrupted(case, tmp_path, (("integrator", "method"), method)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.rstrip().endswith("must be finite")
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_run_non_finite_u0_leaves_no_output_directory(tmp_path, capsys):
    # The start is checked after the run's record exists; the output directory
    # is made at its first write, so none is left behind.
    raw = {"name": "bad-start", "analysis": {"u0": [0.5, math.nan]},
           "system": {"kind": "cooperative_ode", "dim": 2, "rhs": "linear+trig",
                      "params": {"A": [[-1.0, 0.5], [0.5, -1.0]]}},
           "integrator": {"method": "rk4_fixed", "dt": 0.05, "t_end": 2.0, "record_dt": 0.1}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "nested" / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.rstrip().endswith("must be finite")
    assert not (tmp_path / "nested").exists()


# Small valid configs of each kind; every node of each is corrupted in turn.
_VALID_CONFIGS = [
    {"name": "fuzz-ode",
     "system": {"kind": "cooperative_ode", "dim": 2, "rhs": "linear+trig",
                "params": {"A": [[-1.0, 0.5], [0.5, -1.0]],
                           "forcing": [[[1.0, 1.0, 0.0]], []], "offset": [0.0, 0.1]}},
     "integrator": {"method": "rk45_adaptive", "dt": 0.05, "t_end": 2.0,
                    "record_dt": 0.1, "rel_tol": 1e-6, "abs_tol": 1e-8,
                    "blowup_bound": 1e6},
     "analysis": {"u0": [0.5, -0.5]}, "seeds": 0},
    {"name": "fuzz-dde",
     "system": {"kind": "dde_single_delay", "dim": 1, "rhs": "delay-linear",
                "params": {"A_self": [[-2.0]], "A_delay": [[1.0]], "delay": 1.0,
                           "forcing": [[[1.0, 1.0, 0.0]]]}},
     "integrator": {"method": "rk4_fixed", "dt": 0.05, "t_end": 2.0, "record_dt": 0.1},
     "analysis": {"history_value": 0.5}},
    {"name": "fuzz-pde",
     "system": {"kind": "parabolic_1d", "dim": 1, "rhs": "rd-scalar",
                "params": {"nu": [0.1], "L": 3.0, "decay": [1.0], "source_amp": [1.0],
                           "omega": 1.0, "phase": 0.0}},
     "integrator": {"method": "rk4_fixed", "dt": 0.05, "t_end": 2.0, "record_dt": 0.1,
                    "space_points": 16},
     "analysis": {"u0_value": 1.0}},
]
_DELETE = "<delete>"
_CORRUPTIONS = [None, "x", math.nan, math.inf, 1e308, 1e154, -1.0, [[1.0, 2.0, 3.0]], _DELETE]


def _node_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


_CASES = [(i, path, bad) for i, base in enumerate(_VALID_CONFIGS)
          for path in _node_paths(base) for bad in _CORRUPTIONS]


@settings(max_examples=300)
@given(case=st.sampled_from(_CASES))
@example(case=(0, ("seeds",), math.inf))
@example(case=(1, ("system", "params", "delay"), 1e308))  # delay / dt overflows
# Finite parameters whose RK4 step map or method of lines overflow.
@example(case=(1, ("system", "params", "A_self", 0, 0), 1e308))
@example(case=(2, ("system", "params", "nu", 0), 1e308))
@example(case=(2, ("system", "params", "L"), 1e308))
@example(case=(2, ("system", "params", "decay", 0), 1e308))
@example(case=(2, ("system", "params", "source_amp", 0), 1e308))
# Finite values whose step, record, delay-step or substep count no array can hold.
@example(case=(0, ("integrator", "t_end"), 1e154))
@example(case=(2, ("integrator", "t_end"), 1e154))
@example(case=(1, ("system", "params", "delay"), 1e154))
@example(case=(1, ("integrator", "record_dt"), 1e154))
@example(case=(2, ("system", "params", "nu", 0), 1e154))
# Forcing frequencies whose phase float64 cannot resolve.
@example(case=(0, ("system", "params", "forcing", 0, 0, 1), 1e154))
@example(case=(0, ("system", "params", "forcing", 0, 0, 1), 1e308))
@example(case=(1, ("system", "params", "forcing", 0, 0, 1), 1e308))
@example(case=(2, ("system", "params", "omega"), 1e308))
def test_run_corrupted_config_never_raises(case):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_corrupted(case, Path(tmp)) in (0, 1, 2)


def _run_corrupted(case, tmp: Path, *more) -> int:
    """Run config i of case = (i, path, value) with the value at the path, and
    each further (path, value) of ``more`` set too."""
    i, path, bad = case
    raw = copy.deepcopy(_VALID_CONFIGS[i])
    for path, bad in ((path, bad), *more):
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if bad == _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = bad
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return main(["run", str(cfg), "--out", str(tmp / "out")])


@pytest.mark.parametrize("case", [
    (0, ("integrator", "t_end"), 1e154),
    (2, ("integrator", "t_end"), 1e154),
    (1, ("system", "params", "delay"), 1e154),
    (1, ("integrator", "record_dt"), 1e154),
    (2, ("system", "params", "nu", 0), 1e154),
])
def test_run_rejects_counts_no_array_can_hold(case, tmp_path, capsys):
    assert _run_corrupted(case, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "more than an array can hold" in err
    assert not (tmp_path / "out").exists()


# Config i with the key at ``path`` renamed: a misspelt key once ran on its
# default without a word (a dropped forcing read as a stationary run).
@pytest.mark.parametrize("i, path, typo", [
    (0, ("integrator",), "integrater"),
    (0, ("system", "params", "forcing"), "forcng"),
    (1, ("system", "params", "A_self"), "A_slef"),
    (2, ("system", "params", "source_amp"), "sourse_amp"),
    (0, ("analysis", "u0"), "u_0"),
    (1, ("analysis", "history_value"), "history_valu"),
    (2, ("analysis", "u0_value"), "u0"),
])
def test_run_config_with_an_unknown_key_exit_2_without_output(i, path, typo, tmp_path, capsys):
    raw = copy.deepcopy(_VALID_CONFIGS[i])
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[typo] = parent.pop(path[-1])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: unknown ")
    assert f" {typo} (accepted: " in err
    assert not out.exists()


# Counts an array can hold but no memory can: each needs exabytes, so numpy
# refuses the allocation at once.
@pytest.mark.parametrize("case, more", [
    ((1, ("system", "params", "delay"), 1e16), ()),
    ((1, ("integrator", "record_dt"), 1e16), ()),
    ((0, ("integrator", "t_end"), 1e16), ((("system", "params", "forcing"), [[], []]),)),
])
def test_run_memory_error_is_an_aborted_stage(case, more, tmp_path, capsys):
    assert _run_corrupted(case, tmp_path, *more) == 1
    assert "Traceback" not in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert {p.name for p in (tmp_path / "out").iterdir()} == set(manifest["files"])
    aborted = manifest["summary"]["aborted"]
    assert aborted["status"] == "fail"
    assert aborted["detail"].startswith(("MemoryError", "_ArrayMemoryError"))


def test_classify_memory_error_is_one_error_line(sine_csv, tmp_path, capsys):
    # 1e17 shifts that all fit the signal: numpy refuses the 711 PiB grid at once.
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({"window": [50, 40], "tau_grid": [0, 100, 1e-15]}))
    assert main(["classify", str(sine_csv), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: Unable to allocate")


@pytest.mark.parametrize("grid, end", [([0, 1e16, 0.1], "1e+16"), ([0, 150, 0.1], "150"),
                                       ([-1e16, 0, 0.1], "-1e+16")])
@pytest.mark.parametrize("command", ["classify", "compare"])
def test_grid_leaving_the_signal_is_rejected_before_it_is_built(sine_csv, tmp_path, capsys,
                                                                grid, end, command):
    # The grid's ends are checked first, so 1e17 shifts allocate nothing: the
    # error names the shifted window of the end that leaves the 200-unit signal.
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({"window": [50, 40], "tau_grid": grid}))
    files = [str(sine_csv)] * (1 if command == "classify" else 2)
    assert main([command, *files, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: shifted window [{float(end) + 10:g}, {float(end) + 90:g}]")


@pytest.mark.parametrize("case", [
    (0, ("system", "params", "forcing", 0, 0, 1), 1e154),
    (0, ("system", "params", "forcing", 0, 0, 1), 1e308),
    (1, ("system", "params", "forcing", 0, 0, 1), 1e308),
    (2, ("system", "params", "omega"), 1e308),
])
def test_run_rejects_forcing_phases_float64_cannot_resolve(case, tmp_path, capsys):
    assert _run_corrupted(case, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "rounds its phase" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["config", "s1-opial-scalar", "s3-coop-2d", "s4-dde-linear",
                                    "s5-rd-scalar"])
def test_run_rejects_a_horizon_no_array_can_hold(target, tmp_path, capsys):
    if target == "config":
        target = tmp_path / "cfg.json"
        target.write_text(json.dumps(_VALID_CONFIGS[0]))
    out = tmp_path / "out"
    assert main(["run", str(target), "--out", str(out), "--horizon", "1e154"]) == 2
    assert "t_end / record_dt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["0", "-5", "nan"])
def test_run_levitan_rejects_a_horizon_not_above_0(horizon, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "levitan", "--horizon", horizon, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: horizon must be positive")
    assert not out.exists()


def test_a_short_levitan_run_details_the_row_it_observed(tmp_path, capsys):
    # At horizon 1 the eps = 0.1 row of psi's Bohr table does not saturate the grid,
    # so the saturation check fails and its detail names that row's inclusion length.
    out = tmp_path / "out"
    assert main(["run", "levitan", "--horizon", "1", "--out", str(out)]) == 1
    entry = json.loads((out / "manifest.json").read_text())["summary"]["psi_bohr_saturated"]
    row = json.loads((out / "report.json").read_text())["psi"]["classes"]["bohr_ap"]
    length, saturated = {e: (L, sat) for e, L, sat in row["params"]["table"]}[0.1]
    assert not saturated and entry["status"] == "fail" and entry["value"] == length
    assert entry["detail"] == (f"inclusion length at eps=0.1 is {length:g}, inside the grid: "
                               "it does not saturate")


@pytest.mark.parametrize("command, out", [("classify", "dir"), ("classify", "file/x.json"),
                                          ("compare", "dir"), ("compare", "file/x.json"),
                                          ("run", "file"), ("run", "file/sub")])
def test_an_out_that_cannot_be_written_exits_2(command, out, sine_csv, tmp_path, capsys):
    # A directory given as the report file, a regular file given as a parent or an
    # output directory: one error line that names the path; a run stops before its
    # first stage, and classify and compare before they read a CSV.
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / out
    build, _, blurb = scenarios.CATALOG["levitan"]
    stage = (build, Mock(side_effect=AssertionError("a stage ran")), blurb)
    argv = {"classify": ["classify", str(sine_csv)], "run": ["run", "levitan"],
            "compare": ["compare", str(sine_csv), str(sine_csv)]}[command]
    with patch.dict(scenarios.CATALOG, {"levitan": stage}), \
            patch("poisson_lab.cli.read_signal_csv", Mock(side_effect=AssertionError("read"))):
        assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: cannot write") and str(out) in err
    assert (tmp_path / "file").read_text() == "kept\n" and not any((tmp_path / "dir").iterdir())


# Rows of a uniform grid; a corrupted CSV keeps 1-6 of them and spoils at most one.
# Even unspoiled, fewer than 5 rows are too short for the default window.
_CSV_ROWS = [["0", "0.5"], ["0.1", "-0.25"], ["0.2", "1"], ["0.3", "0"], ["0.4", "0.5"],
             ["0.5", "-1"]]
# Finite fields whose span, squared deviations or spline overflow a float.
_HUGE_VALUES = "t,x1\n" + "".join(f"{k},{(-1) ** k * 1e308}\n" for k in range(40))
_HUGE_STEP = "t,x1\n" + "".join(f"{k}e306,{k % 3}\n" for k in range(40))


@st.composite
def _corrupted_csv(draw):
    """(CSV text, whether classify and compare must both exit 2)."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = copy.deepcopy(_CSV_ROWS[:n])
    i = draw(st.integers(min_value=0, max_value=n - 1))
    kind = draw(st.sampled_from(["none", "value", "time", "repeat", "decrease", "missing"]))
    if kind in ("value", "time"):
        rows[i][kind == "value"] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif kind == "repeat":
        rows[i][0] = rows[i - 1][0]  # row 0 takes the last time
    elif kind == "decrease":
        rows[i][0] = "-1" if i else "1"
    elif kind == "missing":
        del rows[i][draw(st.integers(min_value=0, max_value=1))]
    return "t,x1\n" + "".join(",".join(r) + "\n" for r in rows), n < 5 or kind != "none"


@settings(max_examples=200)
@given(case=_corrupted_csv())
@example(case=("t,x1\n0,0\n0.1,nan\n0.2,1\n0.3,2\n", True))
@example(case=("t,x1\n0,0\n0.1,inf\n0.2,1\n0.3,2\n", True))
@example(case=("t,x1\n0,0\nnan,1\n0.2,1\n0.3,2\n", True))
@example(case=("t,x1\n0,0\n0.1,1\n0.2,1\nnan,2\n", True))
@example(case=("t,x1\n0,0\n0.1,1\n0.2,1\ninf,2\n", True))
@example(case=("t,x1\n0,1\n", True))
@example(case=("t,x1\n0,0.5\n0.1,-0.25\n", True))
@example(case=("t,x1\n0,0.5\n0.1,-0.25\n0.2,1\n", True))
@example(case=("t,x1\n0,0.5\n0.1,-0.25\n0.2,1\n0.3,0\n", True))
@example(case=(_HUGE_VALUES, True))
@example(case=(_HUGE_STEP, True))
@example(case=("t,x1\n-1e308,0\n0,1\n1e308,0\n", True))
@example(case=("t,x1\n0,0.5\n0.1,-0.25,7\n0.2,1\n0.3,0\n0.4,0.5\n", True))  # ragged row
@example(case=("t,x1\n0,0.5,\n0.1,-0.25,\n0.2,1,\n0.3,0,\n0.4,0.5,\n", True))  # trailing comma
@example(case=("t,x1\n# note\n0,0.5\n0.1,-0.25\n0.2,1\n0.3,0\n0.4,0.5\n", True))
@example(case=("t,x1\n", True))  # header only
@example(case=("t,x1\n\n   \n\t\n", True))  # every data line blank
def test_classify_and_compare_corrupted_csv_never_raise(case):
    text, rejected = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sig.csv"
        path.write_text(text)
        for argv in (["classify", str(path)], ["compare", str(path), str(path)]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            lines = err.getvalue().splitlines()
            if rejected:
                assert code == 2 and len(lines) == 1, (argv[0], code, lines)
            else:
                assert code in (0, 1, 2) and len(lines) <= 1, (argv[0], code, lines)
