"""Command-line driver: plans, artifacts, determinism, exit codes."""

import argparse
import hashlib
import json
import math
import os
import shlex
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
    run_plan,
    validate_plan,
    write_csv,
    _fmt,
    _OUTPUT_FIELDS,
)


def read(path):
    with open(path) as fh:
        return fh.read()


def tau_plan(out, mu=(0.2, 0.5, 0.8), activations=("linear",), emit="csv"):
    return ExperimentPlan(kind="tau_curve", values={
        "activations": list(activations), "mu": list(mu), "k_max": 25,
        "out": str(out), "format": emit,
    })


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


def test_svgs_of_roots_and_committee_runs(tmp_path):
    code = main(["singularity", "--activations", "hermite3,erf", "--format", "both",
                 "--out", str(tmp_path / "sing")])
    assert code == EXIT_OK
    # one root: both axes span a single value, so each is widened by 1
    svg = read(tmp_path / "sing" / "sing_hermite3.svg")
    assert ">degree</text>" in svg and ">root_mu</text>" in svg and "<polyline" in svg
    assert ">3.25</text>" in svg and ">1.321</text>" in svg
    # erf has no root, so nothing is drawn
    svg = read(tmp_path / "sing" / "sing_erf.svg")
    assert "no finite data" in svg and "<polyline" not in svg

    code = main(["committee", "--ranks", "2", "--d", "50", "--n-steps", "10",
                 "--record-every", "5", "--format", "both", "--out", str(tmp_path / "comm")])
    assert code == EXIT_OK
    csv_text = read(tmp_path / "comm" / "committee_mu0.5_r2.csv")
    svg = read(tmp_path / "comm" / "committee_mu0.5_r2.svg")
    assert svg == render_svg(csv_text)
    assert ">t_epoch</text>" in svg and svg.count("<polyline") == 2
    assert ">rho_1</text>" in svg and ">rho_2</text>" in svg


def test_sgd_manifest_indexes_every_artifact_and_svg(tmp_path):
    code = main(["sgd", "--mu", "0.3,0.6", "--seeds", "0,1", "--d", "100",
                 "--batch-size", "50", "--n-steps", "30",
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


def test_linear_and_hermite_runs_never_import_scipy(tmp_path):
    # SciPy loads only when an erf or sigmoid spec is built (and in compare)
    code = f"""
import sys
import searchphase, searchphase.cli
from searchphase.activations import builtin
from searchphase.sgd import SimConfig, run_simulation

out = {str(tmp_path)!r}
assert searchphase.cli.main(["sgd", "--activation", "linear", "--mu", "0.3", "--seeds", "0",
                             "--d", "100", "--batch-size", "20", "--n-steps", "5",
                             "--out", out + "/sgd"]) == 0
assert searchphase.cli.main(["tau", "--activations", "linear", "--out", out + "/tau"]) == 0
he3 = builtin("hermite3")
run_simulation(SimConfig(teacher=he3, student=he3, mu=0.3, d=100, batch_size=20,
                         learning_rate=0.05, n_steps=2))
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
builtin("erf")
assert "scipy.special" in sys.modules
"""
    src = os.path.dirname(os.path.dirname(searchphase.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    code = "import sys; from searchphase.activations import builtin; builtin('sigmoid'); " \
           "assert 'scipy.special' in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_tau_cell_fails_where_the_coefficients_underflow(tmp_path, capsys):
    # erf at mu = 1e-5 has r = 1e-10, where r**40 is 0.0: the cell fails, not a nan row
    code = main(["tau", "--activations", "erf", "--mu", "0.00001,0.5", "--k-max", "40",
                 "--out", str(tmp_path / "small")])
    assert code == EXIT_PARTIAL
    assert "[failed] tau_erf" in capsys.readouterr().out
    [cell] = json.loads(read(tmp_path / "small" / "manifest.json"))["cells"]
    assert cell["status"] == "failed" and cell["files"] == []
    assert "k_max = 40" in cell["error"] and "warnings" not in cell
    # the mu = 0.5 row keeps every digit it had before the check
    code = main(["tau", "--activations", "erf", "--mu", "0.5", "--k-max", "40",
                 "--out", str(tmp_path / "half")])
    assert code == EXIT_OK
    row = read(tmp_path / "half" / "tau_erf.csv").splitlines()[-1]
    assert row == "0.5,0.153611337252,-1.05392765341,0.0219326276357,45.5941721443,1"


def test_singularity_scan_finds_cubic_root(tmp_path):
    code = main(["singularity", "--activations", "hermite3", "--out", str(tmp_path)])
    assert code == EXIT_OK
    meta, cols, data = parse_csv_text(read(tmp_path / "sing_hermite3.csv"))
    assert cols == ["degree", "root_mu"]
    assert meta["n_roots"] == "1"
    assert data["root_mu"][0] == pytest.approx(0.320724, abs=1e-4)


def test_sgd_run_writes_summary(tmp_path):
    code = main(["sgd", "--mu", "0.3,0.6", "--seeds", "0,1", "--d", "400",
                 "--batch-size", "100", "--n-steps", "300",
                 "--record-every", "10", "--out", str(tmp_path)])
    assert code == EXIT_OK
    meta, cols, data = parse_csv_text(read(tmp_path / "sgd_summary.csv"))
    assert cols == ["mu", "seed", "exit_epoch", "aligned_epoch"]
    assert len(data["mu"]) == 4
    assert list(data["mu"]) == sorted(data["mu"])
    # per-mu blocks are sorted by seed
    assert list(data["seed"][:2]) == [0.0, 1.0]


@pytest.mark.parametrize("record_every, times", [
    ("100", [0.0, 1.0]),
    ("3", [0.0, 0.3, 0.6, 0.9, 1.0]),
])
def test_a_flow_csv_ends_at_t_max(tmp_path, record_every, times):
    code = main(["ode", "--activation", "linear", "--mu", "0.3", "--dt", "0.1", "--t-max", "1",
                 "--record-every", record_every, "--out", str(tmp_path)])
    assert code == EXIT_OK
    _, _, data = parse_csv_text(read(tmp_path / "ode_linear_mu0.3.csv"))
    np.testing.assert_allclose(data["t"], times, rtol=0, atol=1e-12)


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


def synthetic_compare_inputs(tmp_path, mu_values, d=1000, exact=True, theory_factor=1.0):
    a = 1.0 - np.asarray(mu_values)
    tau = (1.0 + np.sqrt(1.0 + 4.0 * a * a)) / (2.0 * a * a)
    theory = tmp_path / "theory.csv"
    write_csv(str(theory), {"activation": "linear"}, ["mu", "tau"],
              list(zip(mu_values, theory_factor * tau)))
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


@pytest.mark.parametrize("metadata, columns, rows, message", [
    ({"d": 1000}, ["mu", "seed"], [(0.3, 0), (0.6, 0)], "missing column 'exit_epoch'"),
    ({}, ["mu", "exit_epoch"], [(0.3, 5.0), (0.6, 9.0)], "missing metadata key 'd'"),
    ({"d": 1000}, ["mu", "exit_epoch"], [(0.3, 5.0), (0.6, math.nan)],
     "fewer than two finite points"),
])
def test_compare_refusals_fail_the_cell(tmp_path, metadata, columns, rows, message):
    theory, exper = synthetic_compare_inputs(tmp_path, [0.3, 0.6])
    write_csv(exper, metadata, columns, rows)
    out = tmp_path / "cmp"
    code = main(["compare", "--theory", theory, "--experiment", exper, "--out", str(out)])
    assert code == EXIT_PARTIAL
    [entry] = json.loads(read(out / "manifest.json"))["cells"]
    assert entry["status"] == "failed" and message in entry["error"]
    assert entry["files"] == []


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
        "[run]\nd = 400\nbatch_size = 100\nn_steps = 200\n"
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
    # only committee runs take a seed, and no SGD run reads k_max
    ["tau", "--seed", "3"],
    ["sgd", "--seed", "3"],
    ["sgd", "--k-max", "5"],
    ["curriculum", "--k-max", "5"],
    ["sgd", "--config", "[run]\nk_max = 2\n"],  # the text of the config file
    ["curriculum", "--config", "[output]\nseed = 3\n"],
    ["tau", "--format", "svg"],  # csv or both
])
def test_usage_errors_exit_validation(tmp_path, capsys, argv):
    if "--config" in argv:
        ini = tmp_path / "run.ini"
        ini.write_text(argv[-1])
        argv = argv[:-1] + [str(ini)]
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
    (["ode", "--dt", "10", "--t-max", "1"], "at least 1"),
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
                 "--batch-size", "50", "--n-steps", "20",
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


def test_the_ode_clip_count_goes_to_the_manifest_and_not_the_csv(tmp_path):
    # the pinned ode plan of _HEADERS, whose CSV test_csv_headers_are_pinned checks
    argv, _ = _HEADERS["ode"]
    assert main(["ode"] + argv + ["--out", str(tmp_path)]) == EXIT_OK
    [cell] = json.loads(read(tmp_path / "manifest.json"))["cells"]
    assert cell["summary"]["m_clips"] == 0
    assert "m_clips" not in parse_csv_text(read(tmp_path / cell["files"][0]))[0]


def test_the_manifest_records_the_provenance_of_the_process(tmp_path):
    from searchphase.cli import provenance

    tau = ["tau", "--activations", "linear", "--mu", "0.5", "--out", str(tmp_path)]
    assert main(tau) == EXIT_OK
    got = json.loads(read(tmp_path / "manifest.json"))["provenance"]
    assert sorted(got) == ["blas", "blas_threads", "blas_version", "numpy", "platform", "python",
                           "scipy", "searchphase"]
    assert got == provenance() and provenance() is provenance()  # read once per process
    assert got["searchphase"] == searchphase.__version__
    assert got["numpy"] == np.__version__
    assert got["python"] == ".".join(map(str, sys.version_info[:3]))
    for key in ("scipy", "platform", "blas", "blas_version"):
        assert got[key] is None or isinstance(got[key], str), key
    if got["scipy"] is not None:
        import importlib.metadata

        assert got["scipy"] == importlib.metadata.version("scipy")
    assert got["blas_threads"] is None or got["blas_threads"] >= 1
    # test_linear_and_hermite_runs_never_import_scipy runs main, so provenance, too


def test_provenance_records_none_for_what_cannot_be_read(monkeypatch):
    import importlib.util
    import platform

    from searchphase.cli import provenance

    def fail(*args, **kwargs):
        raise OSError("unreadable")

    monkeypatch.setattr(np, "show_config", fail)
    monkeypatch.setattr(importlib.util, "find_spec", fail)
    monkeypatch.setattr(platform, "platform", fail)
    monkeypatch.setattr("searchphase.cli._openblas_threads", fail)
    got = provenance.__wrapped__()  # uncached
    unread = ("scipy", "platform", "blas", "blas_version", "blas_threads")
    assert [got[k] for k in unread] == [None] * 5
    assert got["numpy"] == np.__version__


def test_an_output_directory_refuses_a_second_plan(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    tau = ["tau", "--activations", "linear", "--mu", "0.1,0.5", "--out", "o"]
    assert main(tau) == EXIT_OK
    before = {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()}
    assert sorted(before) == ["manifest.json", "tau_linear.csv"]
    capsys.readouterr()
    assert main(["singularity", "--activations", "hermite3", "--out", "o"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "out: o/manifest.json indexes plan" in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()} == before
    # a rerun of the same plan rewrites its own files
    assert main(tau) == EXIT_OK
    assert (tmp_path / "o" / "tau_linear.csv").read_bytes() == before["tau_linear.csv"]
    # a manifest that cannot be read is refused too, with no traceback
    for text in ("{not json", "[1, 2]", "{}", "\xff"):
        (tmp_path / "o" / "manifest.json").write_text(text, encoding="latin-1")
        capsys.readouterr()
        assert main(tau) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "out: cannot read o/manifest.json" in err and "Traceback" not in err


def test_an_output_path_through_a_regular_file_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_bytes(b"kept")
    for out in ("afile", "afile/sub"):
        assert main(["tau", "--activations", "linear", "--mu", "0.5", "--out", out]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:\n  out: cannot make the directory")
        assert "Traceback" not in err
    assert (tmp_path / "afile").read_bytes() == b"kept"
    assert os.listdir(tmp_path) == ["afile"]  # no cell ran


def test_an_empty_output_path_is_refused(tmp_path, monkeypatch, capsys):
    # an empty out is not the default directory, from a flag or from a config file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text("[output]\nout =\n")
    tau = ["tau", "--activations", "linear", "--mu", "0.5"]
    for how in (["--out", ""], ["--config", "run.ini"]):
        assert main(tau + how) == EXIT_VALIDATION
        assert capsys.readouterr().err == "invalid configuration:\n  out: must be a nonempty path, got ''\n"
    assert os.listdir(tmp_path) == ["run.ini"]  # no cell ran


# every CSV of a small plan of each subcommand: its sorted `# key` names,
# its kind, its title and the SHA-256 of its full text (data rows included)
_HEADERS = {
    "tau": (["--activations", "linear", "--mu", "0.3,0.6"], {
        "tau_linear.csv": (["activation", "k_max", "kind", "title"],
                           "tau_curve", "escape time, linear",
                           "87a8f56fac9156cd2fc71ca4f59e9f896e23de077d6b3ddc4f7146857e3594bb"),
    }),
    "singularity": (["--activations", "hermite3"], {
        "sing_hermite3.csv": (["activation", "k_max", "kind", "n_roots", "title"],
                              "singularity_scan", "drift-coefficient roots, hermite3",
                              "03d3ab79818f17c67fb92a8725019ccf5e1822a18810efc31ed10c7e4de53104"),
    }),
    "ode": (["--activation", "linear", "--mu", "0.3", "--dt", "0.05", "--t-max", "1"], {
        "ode_linear_mu0.3.csv": (["activation", "dt", "exited", "kind", "m0", "method", "mu",
                                  "t_exit", "title", "u0"], "ode_run", "flow, linear, mu0.3",
                                  "b8c85a1a92897dc2dfc31b4353182f9b8c4ef922efe5b9bd566ff4adc39a2ec7"),
    }),
    "sgd": (["--mu", "0.3", "--d", "100", "--batch-size", "20", "--n-steps", "5"], {
        "sgd_linear_mu0.3_s0.csv": (["activation", "aligned_step", "batch_size", "d",
                                     "exit_step", "frozen_mode", "kind", "learning_rate", "mu",
                                     "n_steps", "objective", "seed", "title"],
                                    "sgd_run", "sgd, linear, mu0.3, seed 0",
                                    "731d7a270b2f8f6533ea1419f6487427b1c1a42d7130a88b877900f9ff6de7a2"),
        "sgd_summary.csv": (["activation", "batch_size", "d", "kind", "title"],
                            "sgd_summary", "exit epochs, linear",
                            "6d8ceff003eca439960086f5fb26243941b38874e854837fb30d0269ba47c461"),
    }),
    "curriculum": (["--d", "100", "--batch-size", "20", "--n-steps", "5",
                    "--record-every", "5"], {
        "curriculum_hermite3_mu0.325_s0.csv": (
            ["activation", "aligned_step", "batch_size", "d", "exit_step", "frozen_mode", "kind",
             "learning_rate", "mu", "n_steps", "objective", "seed", "switch_step", "title"],
            "curriculum_run", "curriculum, hermite3, mu0.325, seed 0",
            "67d96e35aad811bb3389c70e2287f432ab2ef1b8ef5652b99bd5226724d6b372"),
        "sgd_summary.csv": (["activation", "batch_size", "d", "kind", "title"],
                            "sgd_summary", "exit epochs, hermite3",
                            "1de9ca9c392da5660844881f35b12bd0b735e99d6447d73671675a71a4f61bd0"),
    }),
    "committee": (["--ranks", "1,2,3", "--d", "50", "--n-steps", "5", "--record-every", "5"], {
        f"committee_mu0.5_r{rank}.csv": (["batch_size", "d", "kind", "learning_rate", "mu",
                                          "n_directions", "onset_step", "onset_threshold", "rank",
                                          "tau_theory", "title"],
                                         "committee_run", f"committee, mu0.5, rank {rank}", sha256)
        for rank, sha256 in (
            (1, "931057cbb12a578fe7358e0af52068b404baf237efabec31f4d7843cef6dcda7"),
            (2, "cf791bde091394bac8ff3909e6b0005fff9cb55ae7b907a52a118c310f0908e3"),
            (3, "e75ca34d4c3295f9931e9a90c2ff0938004ddaac34b73b138e602742331796b9"),
        )
    }),
    "compare": (None, {
        "compare_report.csv": (["kind", "max_abs_relative_residual", "n_points", "offset",
                                "scale", "spearman", "title"],
                               "compare", "exit epochs vs predicted escape times",
                               "e6e57ca63a3d233683a6772c93fef6f134d8a86fc6d319bfe386cdc4726281b8"),
    }),
}


def test_every_subcommand_keeps_its_csv_header():
    assert sorted(_HEADERS) == sorted(spec.name for spec in SUBCOMMANDS)


@pytest.mark.parametrize("name", sorted(_HEADERS))
def test_csv_headers_are_pinned(tmp_path, name):
    argv, want = _HEADERS[name]
    if argv is None:
        theory, exper = synthetic_compare_inputs(tmp_path, [0.1, 0.3, 0.5])
        argv = ["--theory", theory, "--experiment", exper]
    out = tmp_path / "out"
    assert main([name] + argv + ["--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(want)
    for csv_name, (keys, kind, title, sha256) in want.items():
        text = read(out / csv_name)
        meta, _, _ = parse_csv_text(text)
        assert sorted(meta) == keys
        assert meta["kind"] == kind
        assert f"# title = {title}\n" in text
        assert hashlib.sha256(text.encode()).hexdigest() == sha256, csv_name


# one other value of each field of each _HEADERS plan, bar out and format
_OTHER_SGD = {"activation": "erf", "mu": "0.4", "seeds": "1", "d": "120", "batch_size": "30",
              "learning_rate": "0.1", "n_steps": "6", "frozen_mode": "mixed",
              "objective": "correlation", "sampler": "literal", "align_threshold": "0.05",
              "record_every": "2"}
_OTHER = {
    "tau": {"activations": "erf", "mu": "0.4", "k_max": "5"},
    "singularity": {"activations": "hermite5", "k_max": "5"},
    "ode": {"activation": "erf", "mu": "0.4", "u0": "0.002", "m0": "0.002", "dt": "0.1",
            "t_max": "2", "exit_fraction": "0.004", "method": "euler", "record_every": "3",
            "k_max": "5"},
    "sgd": _OTHER_SGD,
    "curriculum": {**_OTHER_SGD, "activation": "linear", "learning_rate": "0.001",
                   "switch_threshold": "0.05"},
    "committee": {"mu": "0.6", "ranks": "4", "n_directions": "3", "d": "60", "batch_size": "100",
                  "learning_rate": "0.2", "n_steps": "6", "onset_threshold": "0.1",
                  "record_every": "1", "seed": "3"},
    "compare": {"theory_csv": None, "experiment_csv": None},  # set by the test
}
# linear's series terminates, so its k_max changes no computed value; erf's does not
_BASE = {("tau", "k_max"): {"activations": "erf"}, ("ode", "k_max"): {"activation": "erf"}}
# reaches find_singularities, but moves no root of a builtin activation: pure
# Hermite series terminate, and erf, sigmoid and relu have no root at any k_max
_HEADER_ONLY = {("singularity", "k_max")}


@pytest.mark.parametrize("name", sorted(_HEADERS))
def test_no_flag_is_inert(tmp_path, name):
    spec = next(s for s in SUBCOMMANDS if s.name == name)
    fields = [f.name for f in _OUTPUT_FIELDS + spec.fields if f.name not in ("out", "format")]
    other = dict(_OTHER[name])
    assert sorted(other) == sorted(fields)
    argv = _HEADERS[name][0]
    if argv is None:
        theory, exper = synthetic_compare_inputs(tmp_path, [0.1, 0.3, 0.5])
        argv = ["--theory", theory, "--experiment", exper]
        alt = tmp_path / "alt"
        alt.mkdir()
        other["theory_csv"], other["experiment_csv"] = synthetic_compare_inputs(
            alt, [0.1, 0.3, 0.5], exact=False, theory_factor=2.0)

    def csvs(values, copied):
        # values set as parsed flags would be, so fields with no flag take them too
        out = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
        args = build_parser().parse_args([name] + argv + ["--out", str(out)])
        for key, text in values.items():
            setattr(args, key, text)
        assert run_plan(plan_from_args(args.kind, args))[1] == EXIT_OK
        # what the runs computed: every line but the header's copies of plan values
        return [[line for line in read(p).splitlines() if line.split(" = ")[0][2:] not in copied]
                for p in sorted(out.glob("*.csv"))]

    for field in fields:
        base = _BASE.get((name, field), {})
        copied = set() if (name, field) in _HEADER_ONLY else {*fields, "kind", "title"}
        assert csvs(base, copied) != csvs({**base, field: other[field]}, copied), field


def _readme_commands():
    """The `searchphase ...` lines of README's command-line block, with the
    backslash continuations joined."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    block = read(readme).split("## Command line", 1)[1].split("```sh\n", 1)[1]
    text = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in text.splitlines() if line.startswith("searchphase ")]


def test_readme_examples_parse_and_validate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == {spec.name for spec in SUBCOMMANDS}
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        for path in (getattr(args, "theory_csv", None), getattr(args, "experiment_csv", None)):
            if path:  # compare's inputs: stub files, for the existence check
                os.makedirs(os.path.dirname(path), exist_ok=True)
                open(path, "w").close()
        plan = plan_from_args(args.kind, args)
        assert validate_plan(plan) == [], " ".join(argv)
    assert not os.path.exists(tmp_path / "out" / "tau")  # nothing ran
