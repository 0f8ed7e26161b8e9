"""Command-line driver: plans, artifacts, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import searchphase
from searchphase.cli import (
    EXIT_BLOWUP,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_VALIDATION,
    SUBCOMMANDS,
    AlignmentError,
    ExperimentPlan,
    ValidationError,
    build_cells,
    build_parser,
    compare_theory_experiment,
    main,
    parse_csv_text,
    plan_from_args,
    plan_hash,
    render_svg,
    validate_plan,
    write_csv,
    _fmt,
    _OUTPUT_FIELDS,
)


def read(path):
    with open(path) as fh:
        return fh.read()


def tau_plan(out, mu=(0.2, 0.5, 0.8), activations=("linear",), emit="csv"):
    return ExperimentPlan(
        kind="tau_curve",
        settings={"k_max": 25},
        sweep={"activations": list(activations), "mu": list(mu)},
        output_dir=str(out),
        emit=emit,
    )


def test_field_formatting():
    assert _fmt(True) == "1"
    assert _fmt(False) == "0"
    assert _fmt(7) == "7"
    assert _fmt(None) == "nan"
    assert _fmt(float("nan")) == "nan"
    assert _fmt(float("inf")) == "inf"
    assert _fmt(float("-inf")) == "-inf"
    assert _fmt(0.1) == "0.1"
    assert _fmt(1.0 / 3.0) == "0.333333333333"
    assert _fmt(1e-300) == "1e-300"


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    meta = {"d": 1000, "note": "plain text", "gamma": 0.25}
    cols = ["a", "b"]
    rows = [(1.0, 2.5), (float("inf"), float("nan")), (3, -4)]
    write_csv(str(path), meta, cols, rows)
    text = read(path)
    assert text.endswith("\n") and "\r" not in text
    metadata, columns, data = parse_csv_text(text)
    assert metadata["d"] == "1000"
    assert metadata["note"] == "plain text"
    assert columns == cols
    np.testing.assert_array_equal(data["a"], [1.0, np.inf, 3.0])
    assert math.isnan(data["b"][1])
    assert data["b"][2] == -4.0


def test_plan_hash_tracks_content():
    a = tau_plan("x")
    b = tau_plan("elsewhere")  # output location is not part of the identity
    c = tau_plan("x", mu=(0.2, 0.5))
    assert plan_hash(a) == plan_hash(b)
    assert plan_hash(a) != plan_hash(c)


def test_validation_catches_bad_plans(tmp_path):
    bad_act = tau_plan(tmp_path, activations=("gelu",))
    problems = validate_plan(bad_act)
    assert any(field == "activations" and "gelu" in msg for field, msg in problems)

    empty_grid = tau_plan(tmp_path, mu=())
    problems = validate_plan(empty_grid)
    assert any(field == "mu" and "empty" in msg for field, msg in problems)

    out_of_range = tau_plan(tmp_path, mu=(0.0, 0.5))
    assert any(field == "mu" for field, msg in validate_plan(out_of_range))

    err = ValidationError([("mu", "sweep axis is empty")])
    assert "invalid configuration" in str(err)
    assert "mu: sweep axis is empty" in str(err)


def test_cli_exit_code_on_validation_failure(tmp_path, capsys):
    code = main(["tau", "--activations", "gelu", "--mu", "0.5",
                 "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert "gelu" in err
    assert not os.path.exists(tmp_path / "manifest.json")


def test_tau_run_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["tau", "--activations", "linear,erf", "--mu", "0.2,0.5,0.8",
                   "--out", str(out_a)])
    code_b = main(["tau", "--activations", "linear,erf", "--mu", "0.2,0.5,0.8",
                   "--out", str(out_b)])
    assert code_a == code_b == EXIT_OK
    csvs = sorted(p.name for p in out_a.glob("*.csv"))
    assert csvs == sorted(p.name for p in out_b.glob("*.csv"))
    assert len(csvs) == 2
    for name in csvs:
        assert read(out_a / name) == read(out_b / name)
    # linear cell carries the closed-form escape time
    meta, cols, data = parse_csv_text(read(out_a / "tau_linear.csv"))
    assert cols == ["mu", "A", "B", "lambda_plus", "tau", "converged"]
    a = 1.0 - data["mu"]
    want = (1.0 + np.sqrt(1.0 + 4.0 * a * a)) / (2.0 * a * a)
    np.testing.assert_allclose(data["tau"], want, rtol=1e-10)


def test_manifest_lists_exactly_the_artifacts(tmp_path):
    code = main(["tau", "--activations", "linear", "--mu", "0.3,0.6",
                 "--format", "both", "--out", str(tmp_path)])
    assert code == EXIT_OK
    manifest = json.loads(read(tmp_path / "manifest.json"))
    listed = {f for entry in manifest["cells"] for f in entry["files"]}
    present = {p.name for p in tmp_path.iterdir() if p.name != "manifest.json"}
    assert listed == present
    assert manifest["kind"] == "tau_curve"
    assert all(entry["status"] == "ok" for entry in manifest["cells"])


def test_svg_is_a_pure_function_of_the_csv(tmp_path):
    code = main(["tau", "--activations", "linear", "--mu", "0.2,0.4,0.6",
                 "--format", "both", "--out", str(tmp_path)])
    assert code == EXIT_OK
    csv_text = read(tmp_path / "tau_linear.csv")
    svg_disk = read(tmp_path / "tau_linear.svg")
    assert render_svg(csv_text) == svg_disk
    assert render_svg(csv_text) == render_svg(csv_text)
    assert svg_disk.lstrip().startswith("<svg")


def test_sgd_manifest_indexes_every_artifact_and_svg(tmp_path):
    code = main(["sgd", "--mu", "0.3,0.6", "--seeds", "0,1", "--d", "100",
                 "--batch-size", "50", "--n-steps", "30", "--k-max", "2",
                 "--format", "both", "--out", str(tmp_path)])
    assert code == EXIT_OK
    manifest = json.loads(read(tmp_path / "manifest.json"))
    listed = [f for entry in manifest["cells"] for f in entry["files"]]
    present = {p.name for p in tmp_path.iterdir() if p.name != "manifest.json"}
    assert sorted(listed) == sorted(present)
    assert {"sgd_summary.csv", "sgd_summary.svg"} <= present
    for entry in manifest["cells"]:
        assert entry["files"] == [entry["name"] + ".csv", entry["name"] + ".svg"]
        assert read(tmp_path / entry["files"][1]) == render_svg(read(tmp_path / entry["files"][0]))
    *cells, summary = manifest["cells"]
    assert len(cells) == 4 and all("summary" in entry for entry in cells)
    assert summary["name"] == "sgd_summary" and "summary" not in summary


def test_committee_artifact_has_one_row_per_record(tmp_path):
    code = main(["committee", "--mu", "0.5", "--ranks", "2", "--d", "200",
                 "--n-steps", "50", "--out", str(tmp_path)])
    assert code == EXIT_OK
    meta, cols, data = parse_csv_text(read(tmp_path / "committee_mu0.5_r2.csv"))
    assert cols == ["t_epoch", "rho_1", "rho_2", "m_eff_1", "m_eff_2", "m_eff_3", "m_eff_4",
                    "test_mse"]
    assert meta["rank"] == "2" and meta["n_directions"] == "4"
    np.testing.assert_array_equal(data["t_epoch"], np.arange(0, 51, 10))


@pytest.mark.parametrize("threshold, switch, stages", [
    ("0.01", "1", [0, 1, 1, 1, 1]),
    ("0.99", "nan", [0, 0, 0, 0, 0]),
])
def test_curriculum_stage_column_follows_the_switch(tmp_path, threshold, switch, stages):
    code = main(["curriculum", "--switch-threshold", threshold, "--d", "400",
                 "--batch-size", "100", "--n-steps", "20", "--record-every", "5",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    meta, cols, data = parse_csv_text(read(tmp_path / "curriculum_hermite3_mu0.325_s0.csv"))
    assert meta["switch_step"] == switch
    assert cols[-1] == "stage"
    np.testing.assert_array_equal(data["t_epoch"], [0, 5, 10, 15, 20])
    np.testing.assert_array_equal(data["stage"], stages)


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    code = "import sys, searchphase.cli; assert 'scipy.stats' not in sys.modules"
    src = os.path.dirname(os.path.dirname(searchphase.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_singularity_scan_finds_cubic_root(tmp_path):
    code = main(["singularity", "--activations", "hermite3", "--out", str(tmp_path)])
    assert code == EXIT_OK
    meta, cols, data = parse_csv_text(read(tmp_path / "sing_hermite3.csv"))
    assert cols == ["degree", "root_mu"]
    assert meta["n_roots"] == "1"
    assert data["root_mu"][0] == pytest.approx(0.320724, abs=1e-4)


def test_sgd_run_writes_summary(tmp_path):
    code = main(["sgd", "--mu", "0.3,0.6", "--seeds", "0,1", "--d", "400",
                 "--batch-size", "100", "--n-steps", "300", "--k-max", "2",
                 "--record-every", "10", "--out", str(tmp_path)])
    assert code == EXIT_OK
    meta, cols, data = parse_csv_text(read(tmp_path / "sgd_summary.csv"))
    assert cols == ["mu", "seed", "exit_epoch", "aligned_epoch"]
    assert len(data["mu"]) == 4
    assert list(data["mu"]) == sorted(data["mu"])
    # per-mu blocks are sorted by seed
    assert list(data["seed"][:2]) == [0.0, 1.0]


def test_ode_blowup_maps_to_exit_code(tmp_path):
    code = main(["ode", "--activation", "hermite4", "--mu", "0.1",
                 "--u0", "0.5", "--m0", "0.5", "--method", "euler",
                 "--dt", "50", "--t-max", "5000", "--out", str(tmp_path)])
    assert code == EXIT_BLOWUP
    manifest = json.loads(read(tmp_path / "manifest.json"))
    assert any(entry["status"] == "blowup" for entry in manifest["cells"])


def test_ode_stage_leaving_the_band_is_a_blowup(tmp_path):
    code = main(["ode", "--activation", "linear", "--mu", "0.3", "--dt", "50",
                 "--t-max", "1000", "--out", str(tmp_path)])
    assert code == EXIT_BLOWUP
    manifest = json.loads(read(tmp_path / "manifest.json"))
    assert [entry["status"] for entry in manifest["cells"]] == ["blowup"]


def test_sgd_blowup_maps_to_exit_code(tmp_path):
    code = main(["sgd", "--learning-rate", "50", "--d", "100", "--batch-size", "50",
                 "--n-steps", "200", "--out", str(tmp_path)])
    assert code == EXIT_BLOWUP
    manifest = json.loads(read(tmp_path / "manifest.json"))
    assert [entry["status"] for entry in manifest["cells"]] == ["blowup"]
    assert not os.path.exists(tmp_path / "sgd_linear_mu0.5_s0.csv")


def synthetic_compare_inputs(tmp_path, mu_values, d=1000, exact=True):
    a = 1.0 - np.asarray(mu_values)
    tau = (1.0 + np.sqrt(1.0 + 4.0 * a * a)) / (2.0 * a * a)
    theory = tmp_path / "theory.csv"
    write_csv(str(theory), {"activation": "linear"}, ["mu", "tau"],
              list(zip(mu_values, tau)))
    exper = tmp_path / "exper.csv"
    factor = 1.0 if exact else 1.07
    rows = [(mu, 0, factor * t * math.log(d) / 2.0, float("nan"))
            for mu, t in zip(mu_values, tau)]
    write_csv(str(exper), {"d": d}, ["mu", "seed", "exit_epoch", "aligned_epoch"], rows)
    return str(theory), str(exper)


def test_compare_recovers_exact_scaling(tmp_path):
    theory, exper = synthetic_compare_inputs(tmp_path, [0.1, 0.3, 0.5, 0.7, 0.9])
    report = compare_theory_experiment(theory, exper)
    assert report["n_points"] == 5
    assert report["spearman"] == pytest.approx(1.0)
    assert report["scale"] == pytest.approx(1.0, rel=1e-9)
    assert report["offset"] == pytest.approx(0.0, abs=1e-9)
    assert report["max_abs_relative_residual"] < 1e-9


def test_compare_rejects_mismatched_grids(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    theory, _ = synthetic_compare_inputs(a, [0.1, 0.3, 0.5])
    _, exper = synthetic_compare_inputs(b, [0.2, 0.4, 0.6])
    with pytest.raises(AlignmentError):
        compare_theory_experiment(theory, exper)


def test_compare_rejects_missing_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    write_csv(str(bad), {}, ["mu", "lambda"], [(0.5, 1.0)])
    _, exper = synthetic_compare_inputs(tmp_path, [0.5])
    with pytest.raises(ValidationError):
        compare_theory_experiment(str(bad), exper)


def test_compare_cell_failure_sets_partial_exit(tmp_path):
    theory, _ = synthetic_compare_inputs(tmp_path, [0.1, 0.3])
    other = tmp_path / "other"
    other.mkdir()
    _, exper = synthetic_compare_inputs(other, [0.2, 0.4])
    out = tmp_path / "cmp"
    code = main(["compare", "--theory", theory, "--experiment", exper,
                 "--out", str(out)])
    assert code == EXIT_PARTIAL
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["cells"][0]["status"] == "failed"
    assert "mu grids differ" in manifest["cells"][0]["error"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nd = 400\nbatch_size = 100\nn_steps = 200\nk_max = 2\n"
        "record_every = 20\n"
        "[sweep]\nmu = 0.4\nseeds = 0\n"
        "[output]\nout = {}\n".format(tmp_path / "from_ini")
    )
    code = main(["sgd", "--config", str(cfg), "--n-steps", "150"])
    assert code == EXIT_OK
    manifest = json.loads(read(tmp_path / "from_ini" / "manifest.json"))
    cell = manifest["cells"][0]
    meta, _, _ = parse_csv_text(read(tmp_path / "from_ini" / cell["files"][0]))
    assert meta["d"] == "400"           # from the config file
    assert meta["n_steps"] == "150"     # command line wins


def test_unknown_config_key_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nwarp_speed = 9\n")
    code = main(["sgd", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == EXIT_VALIDATION
    assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tau", "--mu", "0.1:0.9:x"],
    ["sgd", "--seeds", "0,x"],
    ["ode", "--method", "rk5"],
    ["sgd", "--frozen-mode", "bogus"],
    ["tau", "--format", "png"],
    ["tau", "--warp-speed", "9"],
    [],
])
def test_usage_errors_exit_validation(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path)] if argv else argv)
    assert code == EXIT_VALIDATION
    assert "invalid configuration" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "manifest.json")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sgd", "--help"])
    assert exc.value.code == 0
    assert "--learning-rate" in capsys.readouterr().out


def test_thread_variable_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("SEARCHPHASE_THREADS", "abc")
    code = main(["tau", "--activations", "linear", "--mu", "0.5", "--out", str(tmp_path)])
    assert code == EXIT_OK


@pytest.mark.parametrize("argv, field", [
    (["ode", "--dt", "nan"], "dt"),
    (["ode", "--t-max", "inf"], "t_max"),
    (["sgd", "--learning-rate", "nan"], "learning_rate"),
])
def test_positive_fields_must_be_finite(tmp_path, capsys, argv, field):
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert f"{field}: must be a positive finite number" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("argv, values", [
    (["ode", "--mu", "0.3,0.30001"], ["mu=0.3", "mu=0.30001"]),
    (["sgd", "--seeds", "0,0"], ["mu=0.5, seed=0 and mu=0.5, seed=0"]),
    (["tau", "--activations", "linear,linear"], ["activation=linear and activation=linear"]),
])
def test_duplicate_cell_names_are_rejected(tmp_path, capsys, argv, values):
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "repeats" in err
    for text in values:
        assert text in err
    assert not os.path.exists(tmp_path / "out")


# raw values: plausible ones plus short junk (short, so no lo:hi:n grid
# can ask for more than 10**4 points)
_RAW = st.one_of(
    st.sampled_from(["0.5", "0.2,0.8", "0.1:0.9:5", "1", "0,1", "40", "1e-3", "nan", "inf",
                     "-0.5", "linear", "erf", "hermite3", "mixed", "literal", "euler", "both"]),
    st.text(alphabet="0123456789.,:e-", min_size=1, max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flags_and_config_file_give_the_same_plan(data):
    spec = data.draw(st.sampled_from(SUBCOMMANDS))
    fields = [f for f in _OUTPUT_FIELDS + spec.fields if f.flag and f.name != "out"]
    chosen = data.draw(st.lists(st.sampled_from(fields), unique_by=lambda f: f.name))
    raw = {f.name: data.draw(_RAW.filter(lambda t: not t.startswith("-"))) for f in chosen}

    def outcome(make_args):
        try:
            return plan_hash(plan_from_args(spec.kind, make_args()))
        except ValidationError:
            return "invalid"

    argv = [spec.name] + [x for f in chosen for x in (f.option, raw[f.name])]
    from_flags = outcome(lambda: build_parser().parse_args(argv))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            for section in ("run", "sweep", "output"):
                fh.write(f"[{section}]\n")
                fh.writelines(f"{f.name} = {raw[f.name]}\n" for f in chosen if f.section == section)
        from_ini = outcome(lambda: argparse.Namespace(config=path))
    assert from_flags == from_ini


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_raw_values_give_a_runnable_plan_or_a_validation_error(data):
    spec = data.draw(st.sampled_from(SUBCOMMANDS))
    fields = [f for f in _OUTPUT_FIELDS + spec.fields if f.name != "out"]
    chosen = data.draw(st.lists(st.sampled_from(fields), unique_by=lambda f: f.name))
    raw = {f.name: data.draw(st.one_of(_RAW, st.text(max_size=8))) for f in chosen}
    try:
        plan = plan_from_args(spec.kind, argparse.Namespace(**raw))
    except ValidationError:
        return
    if validate_plan(plan):
        return
    names = [cell.name for cell in build_cells(plan)]
    assert len(names) == len(set(names)) >= 1


@pytest.mark.parametrize("argv, message", [
    (["ode", "--activation", "hermite5", "--k-max", "2"], "k_max must cover"),
    (["tau", "--activations", "hermite5", "--k-max", "2"], "k_max must cover"),
    (["singularity", "--activations", "hermite5", "--k-max", "2"], "k_max must cover"),
    (["committee", "--d", "5", "--ranks", "2"], "d too small"),
    (["sgd", "--d", "3"], "d must be at least 4"),
    (["ode", "--dt", "1e-9", "--t-max", "1e300"], "finite number of steps"),
])
def test_cross_field_config_errors_exit_validation(tmp_path, capsys, argv, message):
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "invalid configuration" in err and message in err
    assert not os.path.exists(tmp_path / "out")


def test_top_seed_runs_its_own_stream(tmp_path):
    top = 2**64 - 1
    code = main(["sgd", "--mu", "0.3", "--seeds", f"0,{top}", "--d", "100",
                 "--batch-size", "50", "--n-steps", "20", "--k-max", "2",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    _, cols, zero = parse_csv_text(read(tmp_path / "sgd_linear_mu0.3_s0.csv"))
    _, _, high = parse_csv_text(read(tmp_path / f"sgd_linear_mu0.3_s{top}.csv"))
    assert "u" in cols
    assert not np.array_equal(zero["u"], high["u"])


def test_cell_warnings_are_counted_in_the_manifest(tmp_path, capsys):
    # erf's loss series tail is above tolerance at every record of this run
    code = main(["ode", "--activation", "erf", "--mu", "0.3", "--dt", "0.05", "--t-max", "20",
                 "--out", str(tmp_path / "erf")])
    assert code == EXIT_OK
    [cell] = json.loads(read(tmp_path / "erf" / "manifest.json"))["cells"]
    _, _, data = parse_csv_text(read(tmp_path / "erf" / cell["files"][0]))
    assert cell["status"] == "ok"
    assert cell["warnings"] == {"SeriesConvergenceWarning": len(data["t"])}
    assert f"SeriesConvergenceWarning={len(data['t'])}" in capsys.readouterr().out
    code = main(["ode", "--activation", "linear", "--mu", "0.3", "--dt", "0.05", "--t-max", "20",
                 "--out", str(tmp_path / "linear")])
    assert code == EXIT_OK
    [cell] = json.loads(read(tmp_path / "linear" / "manifest.json"))["cells"]
    assert "warnings" not in cell
    assert "Warning=" not in capsys.readouterr().out
