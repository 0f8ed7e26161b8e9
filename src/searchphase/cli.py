"""Experiment runner: sweeps, CSV artifacts, and comparison reports.

Each subcommand is one Subcommand row of :data:`SUBCOMMANDS`, from which
the argparse flags, the INI config sections, plan validation, the cell
expansion and the CSV headers are all generated.  A plan expands into
sweep cells, which run one after another; a cell runner touches no path,
and :func:`_execute`, the one writer, turns its table into the cell's CSV
and its entry of the ``manifest.json`` that indexes them.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import math
import numbers
import os
import sys
import time
import warnings
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .activations import ActivationSpec, builtin
from .committee import CommitteeConfig, committee_linear_rates, committee_sgd
from .ode import FlowSettings, NumericalBlowupError, integrate_flow
from .sgd import Curriculum, SimConfig, lockstep_groups, run_lockstep, run_simulation, scaled_learning_rate
from .theory import ModelConfig, OrderParameterState, find_singularities, linearize_search_phase

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARTIAL = 2
EXIT_BLOWUP = 3


class ValidationError(Exception):
    """Invalid plan or configuration; carries (field, message) pairs."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = ["invalid configuration:"]
        lines += [f"  {name}: {message}" for name, message in self.problems]
        super().__init__("\n".join(lines))


class AlignmentError(Exception):
    """Theory and experiment artifacts do not share a mu grid."""


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """One experiment: a kind and the value of each field of its subcommand,
    keyed by field name (out included)."""

    kind: str
    values: dict


@dataclass(frozen=True, eq=False)
class Cell:
    name: str
    params: dict = field(default_factory=dict)


def plan_hash(plan: ExperimentPlan) -> str:
    """Stable hash of the plan content (not of the output location)."""
    values, fields = plan.values, SPECS[plan.kind].fields
    payload = {
        "kind": plan.kind,
        "settings": {f.name: values[f.name] for f in fields if f.section == "run"},
        "sweep": {f.name: values[f.name] for f in fields if f.section == "sweep"},
        "emit": "csv",  # a constant, so every plan and output directory keeps its old hash
        "seed": values.get("seed", 0),
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def validate_plan(plan: ExperimentPlan) -> list[tuple[str, str]]:
    """Collect structured problems; empty list means the plan is runnable.

    Every field of the plan's subcommand is checked (each element of a sweep
    axis on its own), the cells must have distinct names, and each cell's
    config must build, so that its cross-field checks fail here.
    """
    spec = SPECS.get(plan.kind)
    if spec is None:
        return [("kind", f"unknown kind {plan.kind!r}")]
    problems: list[tuple[str, str]] = []
    for f in _OUTPUT_FIELDS + spec.fields:
        value = plan.values.get(f.name)
        items = [value] if f.section != "sweep" else value or []
        if f.section == "sweep" and not items:
            problems.append((f.name, "sweep axis is empty"))
        for item in items:
            text = f.problem(item)
            if text:
                problems.append((f.name, text))
    if problems:
        return problems

    params_by_name: dict[str, list[dict]] = {}
    for cell in build_cells(plan):
        params_by_name.setdefault(cell.name, []).append(cell.params)
        try:
            spec.build(plan, cell)
        except ValueError as exc:
            problems.append((cell.name, str(exc)))
    for name, params in params_by_name.items():
        if len(params) > 1:
            uses = " and ".join(", ".join(f"{k}={v}" for k, v in p.items()) for p in params)
            problems.append(("sweep", f"cell name {name} repeats for {uses}"))
    return problems


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """One CSV field: 12 significant digits for floats, plain for the rest."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "nan"
    return f"{float(value):.12g}"  # also nan, inf and -inf


def write_csv(path: str, metadata: dict, columns, rows) -> None:
    """Write a `#`-headed, LF-terminated CSV with deterministic formatting."""
    lines = []
    for key in sorted(metadata):
        value = metadata[key]
        text = value if isinstance(value, str) else _fmt(value)
        lines.append(f"# {key} = {text}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)


def parse_csv_text(text: str):
    """Inverse of write_csv: (metadata, columns, columns-as-float-arrays).
    A row whose cell count is not the header's raises ValueError."""
    metadata: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[float]] = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if not columns:
            columns = [c.strip() for c in cells]
            continue
        if len(cells) != len(columns):
            raise ValueError(f"line {number} has {len(cells)} cells, the header {len(columns)}")
        rows.append([float(c) for c in cells])
    data = {
        name: np.array([row[i] for row in rows], dtype=float)
        for i, name in enumerate(columns)
    }
    return metadata, columns, data


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


def build_cells(plan: ExperimentPlan) -> list[Cell]:
    """One cell per combination of the subcommand's cell axes, in order."""
    spec = SPECS[plan.kind]
    keys = list(spec.cells)
    cells = []
    for combo in itertools.product(*(plan.values[spec.cells[k]] for k in keys)):
        params = dict(zip(keys, combo))
        cells.append(Cell(name=spec.cell_name.format(**{**plan.values, **params}), params=params))
    return cells


def _header(kind: str, title: str, meta, values: dict) -> dict:
    """A CSV header: the kind, the title formatted with values, and the meta values."""
    return {"kind": kind, "title": title.format(**values), **{k: values[k] for k in meta}}


def _headed(plan: ExperimentPlan, cell: Cell, run: Callable[[], tuple] | None = None) -> tuple:
    """The table of the cell's run (run(), else its subcommand's runner on the
    config its subcommand builds), with the header its subcommand row declares
    put before the metadata the run computed."""
    spec = SPECS[plan.kind]
    header = _header(plan.kind, spec.title, spec.meta, {**plan.values, **cell.params})
    metadata, columns, rows, summary = run() if run else spec.run(spec.build(plan, cell))
    return {**header, **metadata}, columns, rows, summary


def _model_configs(plan: ExperimentPlan, cell: Cell) -> list[ModelConfig]:
    """The reduced model of a tau, singularity or ode cell at each mu it
    evaluates; a singularity scan's grid, inside (0, 1), is stood for by 0.5."""
    act = builtin(cell.params.get("activation") or plan.values["activation"])
    k_max = plan.values["k_max"]
    mus = [cell.params["mu"]] if "mu" in cell.params else plan.values.get("mu", [0.5])
    return [ModelConfig(teacher=act, student=act, mu=mu, k_max=k_max) for mu in mus]


def _run_tau_cell(models: list[ModelConfig]) -> tuple:
    rows = [(model.mu, x.A, x.B, x.lambda_plus, x.tau, x.converged)
            for model, x in zip(models, map(linearize_search_phase, models))]
    return {}, ["mu", "A", "B", "lambda_plus", "tau", "converged"], rows, {}


def _run_singularity_cell(models: list[ModelConfig]) -> tuple:
    [model] = models
    roots = find_singularities(model.teacher, model.student, k_max=model.k_max)
    degree = model.student.pure_hermite_degree
    rows = [(-1 if degree is None else degree, r) for r in roots]
    summary = {"roots": [float(r) for r in roots]}
    return {"n_roots": len(roots)}, ["degree", "root_mu"], rows, summary


def _ode_configs(plan: ExperimentPlan, cell: Cell) -> tuple:
    """The reduced model, initial state and integration controls of an ode cell."""
    cfg = plan.values
    settings = FlowSettings(
        dt=cfg["dt"],
        t_max=cfg["t_max"],
        exit_fraction=cfg["exit_fraction"],
        method=cfg["method"],
        record_every=cfg["record_every"],
    )
    return _model_configs(plan, cell)[0], OrderParameterState(u=cfg["u0"], m=cfg["m0"]), settings


def _run_ode_cell(configs: tuple[ModelConfig, OrderParameterState, FlowSettings]) -> tuple:
    rec = integrate_flow(*configs)
    metadata = {"t_exit": rec.t_exit, "exited": rec.exited}
    rows = zip(rec.t, rec.u, rec.m, rec.m_eff, rec.r, rec.loss)
    # the clip count goes to the manifest only, so the CSV keeps its header
    summary = {**metadata, "m_clips": rec.m_clips}
    return metadata, ["t", "u", "m", "m_eff", "r", "loss"], rows, summary


def _sim_config(plan: ExperimentPlan, cell: Cell, act: ActivationSpec | None = None) -> SimConfig:
    """The cell's SimConfig; act, when given, is the plan's activation spec,
    which cells must share to step together (builtin makes a new one per call)."""
    cfg = plan.values
    curriculum = None
    if plan.kind == "curriculum_run":
        curriculum = Curriculum(switch_threshold=cfg["switch_threshold"])
    act = builtin(cfg["activation"]) if act is None else act
    lr = cfg.get("learning_rate")
    if lr is None:
        lr = scaled_learning_rate(0.01, act)
    return SimConfig(
        teacher=act,
        student=act,
        mu=cell.params["mu"],
        d=cfg["d"],
        batch_size=cfg["batch_size"],
        learning_rate=lr,
        n_steps=cfg["n_steps"],
        seed=cell.params["seed"],
        frozen_mode=cfg["frozen_mode"],
        objective=cfg["objective"],
        sampler=cfg["sampler"],
        align_threshold=cfg["align_threshold"],
        record_every=cfg["record_every"],
        curriculum=curriculum,
    )


def _run_sgd_cell(sim: SimConfig, result=None) -> tuple:
    """The table of the run of sim: result, its RunResult or the exception it
    raised, when it ran in lockstep, else run here."""
    if result is None:
        result = run_simulation(sim)
    elif isinstance(result, Exception):
        raise result
    metadata = {"learning_rate": sim.learning_rate, "exit_step": result.exit_step,
                "aligned_step": result.aligned_step}
    columns = ["t_epoch", "u", "m", "m_eff", "r", "train_mse", "test_mse"]
    values = [result.t_epoch, result.u, result.m, result.m_eff, result.r,
              result.train_mse, result.test_mse]
    if sim.curriculum is not None:
        switch = result.switch_step
        metadata["switch_step"] = switch
        columns.append("stage")
        values.append(np.zeros(len(result.t_epoch), dtype=int) if switch is None
                      else (result.t_epoch >= switch).astype(int))
    return metadata, columns, zip(*values), {
        "exit_epoch": None if result.exit_step is None else float(result.exit_step),
        "aligned_epoch": None if result.aligned_step is None else float(result.aligned_step),
        "mu": sim.mu,
        "seed": sim.seed,
    }


def _committee_config(plan: ExperimentPlan, cell: Cell) -> CommitteeConfig:
    cfg = plan.values
    return CommitteeConfig(
        mu=(cell.params["mu"],) + (1.0,) * (cfg["n_directions"] - 1),
        rank=cell.params["rank"],
        d=cfg["d"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["learning_rate"],
        n_steps=cfg["n_steps"],
        seed=cfg["seed"],
        record_every=cfg["record_every"],
        onset_threshold=cfg["onset_threshold"],
    )


def _run_committee_cell(committee: CommitteeConfig) -> tuple:
    rates = committee_linear_rates(committee)
    result = committee_sgd(committee)
    metadata = {"onset_step": result.onset_step, "tau_theory": rates.tau[0]}
    columns = (
        ["t_epoch"]
        + [f"rho_{r + 1}" for r in range(committee.rank)]
        + [f"m_eff_{k + 1}" for k in range(committee.n_directions)]
        + ["test_mse"]
    )
    rows = np.column_stack((result.t_epoch, result.rho, result.m_eff, result.test_mse))
    return metadata, columns, rows, {
        "onset_epoch": None if result.onset_step is None else float(result.onset_step),
        "mu": committee.mu[0],
        "rank": committee.rank,
    }


def compare_theory_experiment(theory_csv: str, experiment_csv: str) -> dict:
    """Align empirical exit epochs with predicted escape times.

    The theory artifact supplies tau(mu); the experiment artifact supplies
    exit epochs (averaged over seeds when repeated).  Exit epochs are fit
    against tau(mu) * log(d) / 2 with one global scale and offset, and the
    report carries Spearman's rank correlation and pointwise relative
    residuals.  A file that does not parse (say, a row longer or shorter
    than its header), a d that is not a finite number above 1, fewer than
    two finite points, or a column constant over them, is refused.
    """

    def read(name: str, path: str):
        with open(path, newline="") as fh:
            try:
                return parse_csv_text(fh.read())
            except ValueError as exc:
                raise ValidationError([(name, f"{path}: {exc}")]) from None

    _, t_cols, t_data = read("theory_csv", theory_csv)
    e_meta, e_cols, e_data = read("experiment_csv", experiment_csv)
    problems = [(name, f"missing column {col!r}")
                for name, cols, needed in (("theory_csv", t_cols, ("mu", "tau")),
                                           ("experiment_csv", e_cols, ("mu", "exit_epoch")))
                for col in needed if col not in cols]
    try:
        d = float(e_meta.get("d", "nan"))
    except ValueError:
        d = math.nan
    if "d" not in e_meta:
        problems.append(("experiment_csv", "missing metadata key 'd'"))
    elif not 1.0 < d < math.inf:
        problems.append(("experiment_csv",
                         f"metadata key 'd' must be a finite number above 1, got {e_meta['d']!r}"))
    if problems:
        raise ValidationError(problems)

    t_mu = np.unique(t_data["mu"])
    e_mu = np.unique(e_data["mu"])
    if len(t_mu) != len(e_mu) or not np.allclose(t_mu, e_mu, atol=1e-9, rtol=0.0):
        raise AlignmentError(
            f"mu grids differ: theory has {len(t_mu)} points, experiment {len(e_mu)}"
        )

    tau = np.array(
        [t_data["tau"][np.isclose(t_data["mu"], mu, atol=1e-9)].mean() for mu in t_mu]
    )

    def mean_exit(mu: float) -> float:
        values = e_data["exit_epoch"][np.isclose(e_data["mu"], mu, atol=1e-9)]
        values = values[np.isfinite(values)]
        return float(values.mean()) if len(values) else float("nan")

    exit_epoch = np.array([mean_exit(float(mu)) for mu in e_mu])
    predicted = tau * math.log(d) / 2.0
    mask = np.isfinite(predicted) & np.isfinite(exit_epoch)
    if int(mask.sum()) < 2:
        raise ValidationError([("compare", "fewer than two finite points to align")])
    x, y = predicted[mask], exit_epoch[mask]
    constant = [name for name, col in (("predicted_epoch", x), ("exit_epoch", y))
                if np.all(col == col[0])]
    if constant:
        raise ValidationError([("compare", f"{c} is constant over the finite points") for c in constant])

    scale, offset = np.polyfit(x, y, 1)
    fitted = scale * predicted + offset
    denom = np.where(np.abs(exit_epoch) > 0, np.abs(exit_epoch), 1.0)
    residual = np.where(mask, (exit_epoch - fitted) / denom, np.nan)
    return {
        "n_points": int(mask.sum()),
        "spearman": _spearman(x, y),
        "scale": float(scale),
        "offset": float(offset),
        "max_abs_relative_residual": float(np.nanmax(np.abs(residual))),
        "mu": [float(v) for v in t_mu],
        "tau": [float(v) for v in tau],
        "predicted_epoch": [float(v) for v in predicted],
        "exit_epoch": [float(v) for v in exit_epoch],
        "fitted_epoch": [float(v) for v in fitted],
        "relative_residual": [float(v) for v in residual],
    }


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rank correlation of two columns, neither of them constant.

    The average ranks are exact half-integers, and their Pearson correlation
    is taken over the stacked (n, 2) array, as ``scipy.stats.spearmanr``
    takes it: so the value has its bits, which ``np.corrcoef(rx, ry)`` does
    not always have."""

    def ranks(a: np.ndarray) -> np.ndarray:
        _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]

    return float(np.corrcoef(np.column_stack((ranks(x), ranks(y))), rowvar=False)[1, 0])


def _compare_inputs(plan: ExperimentPlan, cell: Cell) -> tuple[str, str]:
    return plan.values["theory_csv"], plan.values["experiment_csv"]


def _run_compare_cell(paths: tuple[str, str]) -> tuple:
    """The report as the table: its lists are the columns, in report order,
    and its scalars the metadata."""
    report = compare_theory_experiment(*paths)
    columns = [key for key, value in report.items() if isinstance(value, list)]
    metadata = {key: value for key, value in report.items() if key not in columns}
    summary = {key: report[key] for key in ("spearman", "max_abs_relative_residual")}
    return metadata, columns, zip(*(report[c] for c in columns)), summary


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


# the step events a run's metadata may hold, which its entry gathers under "events"
_STEP_EVENTS = ("exit_step", "aligned_step", "switch_step", "onset_step")


def _execute(plan: ExperimentPlan, name: str, table: Callable[[], tuple]) -> dict:
    """The one writer: table() gives (metadata, columns, rows, summary), which
    become name.csv and the manifest entry (with the summary unless it is
    None, and the metadata's _STEP_EVENTS, when it has any, under
    "events").  An exception sets the status: "blowup" for
    NumericalBlowupError, else "failed".  Every warning the cell raises is
    counted by category, and the counts go into entry["warnings"] when
    there are any."""
    entry = {"name": name, "status": "ok", "files": [], "wall_time": 0.0, "error": None}
    counts: Counter[str] = Counter()

    def count(message, category, *where) -> None:
        counts[category.__name__] += 1

    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = count
        try:
            metadata, columns, rows, summary = table()
            write_csv(os.path.join(plan.values["out"], name + ".csv"), metadata, columns, rows)
            entry["files"].append(name + ".csv")
            if summary is not None:
                entry["summary"] = summary
            events = {key: metadata[key] for key in _STEP_EVENTS if key in metadata}
            if events:
                entry["events"] = events
        except Exception as exc:
            entry["status"] = "blowup" if isinstance(exc, NumericalBlowupError) else "failed"
            known = isinstance(exc, (NumericalBlowupError, AlignmentError, ValidationError))
            entry["error"] = str(exc) if known else f"{type(exc).__name__}: {exc}"
    if counts:
        entry["warnings"] = dict(counts)
    entry["wall_time"] = time.perf_counter() - start
    return entry


def _execute_lockstep(plan: ExperimentPlan, cells: list[Cell]) -> list[dict]:
    """The entries of SGD cells, whose configs (built with one activation
    spec) step together in the groups sgd.lockstep_groups forms.  A group of
    two or more runs in lockstep (sgd.run_lockstep) before its cells'
    _execute, which tables each member's own outcome; each of its entries
    adds its share of the group's seconds to its wall time, and lists the
    names of the group's cells under "lockstep" when the group answered.
    The cells of a group that did not answer (None), and a group of one,
    run inside their _execute."""
    act = builtin(plan.values["activation"])
    configs = [_sim_config(plan, cell, act) for cell in cells]
    entries: list = [None] * len(cells)
    for group in lockstep_groups(configs):
        start = time.perf_counter()
        outcomes = run_lockstep([configs[i] for i in group]) if len(group) > 1 else None
        share = (time.perf_counter() - start) / len(group)
        for i, outcome in zip(group, outcomes or [None] * len(group)):
            entry = _execute(plan, cells[i].name,
                             partial(_headed, plan, cells[i], partial(_run_sgd_cell, configs[i], outcome)))
            entry["wall_time"] += share
            if outcomes:
                entry["lockstep"] = [cells[j].name for j in group]
            entries[i] = entry
    return entries


def _sgd_summary(plan: ExperimentPlan, entries: list[dict]) -> tuple | None:
    """("sgd_summary", table): the finished cells' exit and aligned epochs by
    (mu, seed), tabulated when _execute calls table; None when none finished."""
    points = [e["summary"] for e in entries if e["status"] == "ok" and e.get("summary")]
    if not points:
        return None

    def table():
        metadata = _header("sgd_summary", "exit epochs, {activation}",
                           ("activation", "d", "batch_size"), plan.values)
        rows = [
            (p["mu"], p["seed"], p["exit_epoch"], p["aligned_epoch"])
            for p in sorted(points, key=lambda p: (p["mu"], p["seed"]))
        ]
        return metadata, ["mu", "seed", "exit_epoch", "aligned_epoch"], rows, None

    return "sgd_summary", table


def _or_none(read: Callable[[], object]):
    # a provenance value that cannot be read is recorded as None; it never fails a run
    try:
        return read()
    except Exception:
        return None


def _openblas(getter: str, restype):
    """What openblas_<getter>() returns in the OpenBLAS bundled with NumPy's
    wheel, called by ctypes under any of its exported names; None where
    there is none."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in (f"scipy_openblas_{getter}64_", f"openblas_{getter}64_", f"openblas_{getter}"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], restype
                return get()
    return None


def _scipy_version() -> str:
    """SciPy's version from the name of the dist-info directory beside the
    package an import would load, found without importing SciPy (and
    without importlib.metadata, whose import alone takes about 8 ms)."""
    import glob
    import importlib.util

    site = os.path.dirname(os.path.dirname(importlib.util.find_spec("scipy").origin))
    [info] = glob.glob(os.path.join(site, "scipy-*.dist-info"))
    return os.path.basename(info)[len("scipy-"):-len(".dist-info")]


@cache
def provenance() -> dict:
    """What made this process's numbers, read once per process for the
    manifest, among them the BLAS thread count, on which the bits of a run
    with d > 10 000 depend.  A value that cannot be read is None.  Cached,
    so every caller gets the one dict: copy it before changing it."""
    import ctypes
    import platform

    from . import __version__

    blas = _or_none(lambda: np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    readers = (
        ("searchphase", lambda: __version__),
        ("python", platform.python_version),
        ("numpy", lambda: np.__version__),
        ("scipy", _scipy_version),
        ("platform", platform.platform),
        ("blas", lambda: blas["name"]),
        ("blas_version", lambda: blas["version"]),
        ("blas_threads", lambda: _openblas("get_num_threads", ctypes.c_int)),
        # the name of the CPU core OpenBLAS chose its kernels for, say SkylakeX
        ("blas_core", lambda: _openblas("get_corename", ctypes.c_char_p).decode()),
    )
    return {key: _or_none(read) for key, read in readers}


def run_plan(plan: ExperimentPlan) -> tuple[dict, int]:
    """Validate, execute all cells, write artifacts plus manifest.json.

    Returns (manifest, exit_code) with exit codes 0 = success,
    2 = partial failure, 3 = numerical blowup; raises ValidationError
    (exit code 1) before touching any cell when the plan is invalid or the
    output directory holds another plan's (or an unreadable) manifest or
    cannot be made (say, where a path names a regular file).
    """
    problems = validate_plan(plan)
    if problems:
        raise ValidationError(problems)
    manifest_path = os.path.join(plan.values["out"], "manifest.json")
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path) as fh:
                found = json.load(fh)["plan_hash"]
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise ValidationError([("out", f"cannot read {manifest_path}: {exc!r}")]) from None
        if found != plan_hash(plan):
            raise ValidationError([("out", f"{manifest_path} indexes plan {found}, not this one")])
    try:
        os.makedirs(plan.values["out"], exist_ok=True)
    except OSError as exc:
        raise ValidationError([("out", f"cannot make the directory: {exc}")]) from None
    spec = SPECS[plan.kind]
    cells = build_cells(plan)
    if spec.run is _run_sgd_cell:
        entries = _execute_lockstep(plan, cells)
    else:
        entries = [_execute(plan, c.name, partial(_headed, plan, c)) for c in cells]
    summary = spec.summarize(plan, entries) if spec.summarize is not None else None
    if summary is not None:
        entries.append(_execute(plan, *summary))
    manifest = {
        "plan_hash": plan_hash(plan),
        # the effective plan: every value, defaults and config file included
        "plan": _or_none(lambda: json.loads(json.dumps(plan.values, sort_keys=True, default=str))),
        "kind": plan.kind,
        "seed": plan.values.get("seed", 0),
        "cells": entries,
        "provenance": dict(provenance()),  # a copy: the cached dict stays as read
    }
    with open(manifest_path, "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    statuses = {e["status"] for e in entries}
    if "blowup" in statuses:
        code = EXIT_BLOWUP
    elif "failed" in statuses:
        code = EXIT_PARTIAL
    else:
        code = EXIT_OK
    return manifest, code


# ---------------------------------------------------------------------------
# Subcommand specs
# ---------------------------------------------------------------------------


def _parse_floats(text: str) -> list[float]:
    text = text.strip()
    if text.count(":") == 2:
        lo, hi, num = text.split(":")
        return [float(v) for v in np.linspace(float(lo), float(hi), int(num))]
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _parse_names(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _require(predicate, text: str):
    """A field check: None when predicate(value) holds, else the problem."""

    def check(value):
        try:
            ok = bool(predicate(value))
        except (TypeError, OverflowError):
            ok = False
        return None if ok else f"must be {text}, got {value!r}"

    return check


def _is_positive(v) -> bool:
    return v > 0 and math.isfinite(v)


def _resolvable(name: str) -> ActivationSpec | None:
    try:
        return builtin(name)
    except (KeyError, ValueError):
        return None


_positive = _require(_is_positive, "a positive finite number")
_positive_int = _require(lambda v: isinstance(v, numbers.Integral) and v > 0, "a positive integer")
_open_unit = _require(lambda v: 0.0 < v < 1.0, "in (0, 1)")
_activation = _require(lambda v: _resolvable(v) is not None, "a known activation")
_seed = _require(
    lambda v: isinstance(v, numbers.Integral) and 0 <= v < 2**64, "an integer in [0, 2**64)")
_existing_file = _require(lambda v: isinstance(v, str) and os.path.isfile(v), "an existing file")


@dataclass(frozen=True)
class Field:
    """One plan value: the parser of its raw text, its default and its check.

    section is the value's INI section: "run" (a scalar setting), "sweep"
    (an axis, checked element by element) or "output" (where artifacts are
    written, and the committee's seed).  flag is True for
    the flag spelled after the name, a string for another flag, or False
    for a value only a config file sets.
    """

    name: str
    parse: Callable[[str], object]
    default: object = None
    check: Callable[[object], str | None] | None = None
    choices: tuple[str, ...] = ()
    section: str = "run"
    flag: str | bool = True
    help: str | None = None

    @property
    def option(self) -> str:
        return self.flag if isinstance(self.flag, str) else "--" + self.name.replace("_", "-")

    def problem(self, value) -> str | None:
        if self.choices and value not in self.choices:
            return f"must be one of {', '.join(self.choices)}, got {value!r}"
        return self.check(value) if self.check else None


@dataclass(frozen=True)
class Subcommand:
    """One subcommand: its plan kind, fields, cells, CSV header, config builder and runner.

    cells maps each cell parameter to the sweep axis it runs over; a plan
    has one cell per combination, and cell_name and title are formatted
    with the plan values and the cell parameters.  build(plan, cell) makes a
    cell's config, raising ValueError where plan values conflict;
    validate_plan builds every cell's to check it, and run takes it alone
    and returns the table (metadata, columns, rows, summary) of what it
    computed, which _headed heads.  summarize, when set, returns one more
    artifact from the finished cells' entries as (name, table), table a
    callable giving such a table, or None.  The cells of the SGD
    subcommands run together where they can (_execute_lockstep).
    """

    name: str
    kind: str
    help: str
    fields: tuple[Field, ...]
    cells: dict[str, str]
    cell_name: str
    title: str
    build: Callable[[ExperimentPlan, Cell], object]
    run: Callable[[object], tuple]
    meta: tuple[str, ...] = ()
    summarize: Callable[[ExperimentPlan, list], tuple | None] | None = None


def _with_defaults(fields: tuple[Field, ...], **defaults) -> tuple[Field, ...]:
    return tuple(replace(f, default=defaults[f.name]) if f.name in defaults else f for f in fields)


_OUTPUT_FIELDS = (
    Field("out", str, None, _require(bool, "a nonempty path"), section="output",
          help="output directory"),
)

_ACTIVATION = Field("activation", str, "linear", _activation)
_ACTIVATIONS = Field("activations", _parse_names, None, _activation, section="sweep")
_MU = Field("mu", _parse_floats, None, _open_unit, section="sweep")
_SEEDS = Field("seeds", _parse_ints, (0,), _seed, section="sweep", help="comma list of run seeds")
_D = Field("d", int, 1000, _positive_int)
_BATCH_SIZE = Field("batch_size", int, 500, _positive_int)
_LEARNING_RATE = Field("learning_rate", float, None, _positive)
_N_STEPS = Field("n_steps", int, None, _positive_int)
_RECORD_EVERY = Field("record_every", int, None, _positive_int)
_K_MAX = Field("k_max", int, 25, _positive_int)

_SGD_FIELDS = (
    _ACTIVATION, _MU, _SEEDS, _D, _BATCH_SIZE,
    # unset: scaled_learning_rate(0.01, activation)
    replace(_LEARNING_RATE, check=_require(
        lambda v: v is None or _is_positive(v), "a positive finite number or unset")),
    _N_STEPS,
    Field("frozen_mode", str, "aligned", choices=("aligned", "mixed")),
    Field("objective", str, "mse", choices=("mse", "correlation")),
    Field("sampler", str, "subspace", choices=("subspace", "literal")),
    Field("align_threshold", float, 0.98, _require(lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
          flag=False),
    _RECORD_EVERY,
)
_SGD_META = ("activation", "mu", "seed", "d", "batch_size", "n_steps", "frozen_mode", "objective")

SUBCOMMANDS = (
    Subcommand(
        name="tau", kind="tau_curve", help="escape-time curves over a mu grid",
        fields=(
            replace(_ACTIVATIONS, default=("linear", "erf", "sigmoid", "relu"),
                    help="comma list, e.g. linear,erf"),
            replace(_MU, default=tuple(_parse_floats("0.02:0.98:49")),
                    help="comma list or lo:hi:n grid"),
            _K_MAX,
        ),
        cells={"activation": "activations"}, cell_name="tau_{activation}",
        title="escape time, {activation}", meta=("activation", "k_max"),
        build=_model_configs, run=_run_tau_cell,
    ),
    Subcommand(
        name="singularity", kind="singularity_scan", help="roots of the drift coefficient on (0,1)",
        fields=(
            replace(_ACTIVATIONS, default=("hermite3", "hermite5", "hermite7", "hermite9"),
                    help="comma list, e.g. hermite3,hermite5"),
            _K_MAX,
        ),
        cells={"activation": "activations"}, cell_name="sing_{activation}",
        title="drift-coefficient roots, {activation}", meta=("activation", "k_max"),
        build=_model_configs, run=_run_singularity_cell,
    ),
    Subcommand(
        name="ode", kind="ode_run", help="reduced two-variable flow",
        fields=_with_defaults((
            _ACTIVATION, _MU,
            Field("u0", float, 1e-3, _require(math.isfinite, "finite")),
            Field("m0", float, 1e-3, _require(lambda v: -1.0 <= v <= 1.0, "in [-1, 1]")),
            Field("dt", float, 0.01, _positive),
            Field("t_max", float, 1000.0, _positive),
            Field("exit_fraction", float, 1.0, _positive),
            Field("method", str, "rk4", choices=("rk4", "euler")),
            _RECORD_EVERY, _K_MAX,
        ), mu=(0.3,), record_every=10),
        cells={"mu": "mu"}, cell_name="ode_{activation}_mu{mu:.4g}",
        title="flow, {activation}, mu{mu:.4g}",
        meta=("activation", "mu", "dt", "method", "u0", "m0"),
        build=_ode_configs, run=_run_ode_cell,
    ),
    Subcommand(
        name="sgd", kind="sgd_run", help="one-pass spherical SGD in dimension d",
        fields=_with_defaults(
            _SGD_FIELDS, mu=(0.5,), learning_rate=0.2, n_steps=2000, record_every=1),
        cells={"mu": "mu", "seed": "seeds"}, cell_name="sgd_{activation}_mu{mu:.4g}_s{seed}",
        title="sgd, {activation}, mu{mu:.4g}, seed {seed}", meta=_SGD_META,
        build=_sim_config, run=_run_sgd_cell, summarize=_sgd_summary,
    ),
    Subcommand(
        name="curriculum", kind="curriculum_run",
        help="two-stage run: squared labels, then plain labels",
        fields=_with_defaults(
            _SGD_FIELDS, activation="hermite3", mu=(0.325,), n_steps=60000, record_every=50,
        ) + (Field("switch_threshold", float, 0.5, _open_unit),),
        cells={"mu": "mu", "seed": "seeds"},
        cell_name="curriculum_{activation}_mu{mu:.4g}_s{seed}",
        title="curriculum, {activation}, mu{mu:.4g}, seed {seed}", meta=_SGD_META,
        build=_sim_config, run=_run_sgd_cell, summarize=_sgd_summary,
    ),
    Subcommand(
        name="committee", kind="committee_run", help="multi-direction teacher with rank-R adapters",
        fields=_with_defaults((
            replace(_MU, help="adapted-direction alignment values"),
            Field("ranks", _parse_ints, None, _positive_int, section="sweep"),
            Field("n_directions", int, 4, _positive_int),
            _D, _BATCH_SIZE, _LEARNING_RATE, _N_STEPS,
            Field("onset_threshold", float, 0.3, _open_unit),
            _RECORD_EVERY,
            # in [output], where existing INI files give it
            Field("seed", int, 0, _seed, section="output", help="seed of every committee run"),
        ), mu=(0.5,), ranks=(1, 2, 3), learning_rate=0.1, n_steps=8000, record_every=10),
        cells={"mu": "mu", "rank": "ranks"}, cell_name="committee_mu{mu:.4g}_r{rank}",
        title="committee, mu{mu:.4g}, rank {rank}",
        meta=("mu", "rank", "n_directions", "d", "batch_size", "learning_rate", "onset_threshold"),
        build=_committee_config, run=_run_committee_cell,
    ),
    Subcommand(
        name="compare", kind="compare", help="align exit epochs with predicted escape times",
        fields=(
            Field("theory_csv", str, None, _existing_file, flag="--theory",
                  help="tau_curve CSV artifact"),
            Field("experiment_csv", str, None, _existing_file, flag="--experiment",
                  help="sgd_summary CSV artifact"),
        ),
        cells={}, cell_name="compare_report", title="exit epochs vs predicted escape times",
        build=_compare_inputs, run=_run_compare_cell,
    ),
)

SPECS = {spec.kind: spec for spec in SUBCOMMANDS}


# ---------------------------------------------------------------------------
# Argument and config handling
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict[str, dict[str, str]]:
    """Read an INI config: [run] scalars, [sweep] axes, [output] values.
    Any other section, [DEFAULT] included, is refused: its keys would
    otherwise be ignored or blamed on the sections that inherit them."""
    if not os.path.isfile(path):
        raise ValidationError([("config", f"file not found: {path!r}")])
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError([("config", str(exc))]) from exc
    problems = [("config", f"unknown section [{section}]")
                for section in parser.sections() if section not in ("run", "sweep", "output")]
    if parser.defaults():
        problems.append(("config", f"[DEFAULT] keys are not read: {', '.join(parser.defaults())}"))
    if problems:
        raise ValidationError(problems)
    return {section: dict(parser[section]) for section in parser.sections()}


def plan_from_args(kind: str, args: argparse.Namespace) -> ExperimentPlan:
    """Merge defaults, config file, and command-line overrides into a plan.

    Config entries and flags are raw strings that go through the same field
    parsers; flags win.  Unknown config keys and values that do not parse
    raise ValidationError.
    """
    fields = {f.name: f for f in _OUTPUT_FIELDS + SPECS[kind].fields}
    raw = []
    problems = []
    if getattr(args, "config", None):
        for section, entries in load_config(args.config).items():
            for key, text in entries.items():
                f = fields.get(key)
                if f is None or f.section != section:
                    problems.append((f"{section}.{key}", f"unknown {section} key for {kind}"))
                else:
                    raw.append((f"{section}.{key}", f, text))
    for name, f in fields.items():
        if getattr(args, name, None) is not None:
            raw.append((name, f, getattr(args, name)))

    values = {name: f.default for name, f in fields.items()}
    for where, f, text in raw:
        try:
            values[f.name] = f.parse(text)
        except ValueError:
            problems.append((where, f"cannot parse {text!r}"))
    if problems:
        raise ValidationError(problems)
    if values["out"] is None:  # an empty out stays, so that validation refuses it
        values["out"] = os.path.join("searchphase-out", kind)
    return ExperimentPlan(kind, values)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as a ValidationError (exit 1), not exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError([(self.prog, message)])


def build_parser() -> argparse.ArgumentParser:
    """Flags of every subcommand, as raw strings; plan_from_args parses them.
    Only whole flags are taken: sgd's --seed would otherwise abbreviate --seeds."""
    parser = _ArgumentParser(
        prog="searchphase",
        description="Escape-time theory and one-pass SGD experiments for low-rank adapters.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for spec in SUBCOMMANDS:
        p = sub.add_parser(spec.name, help=spec.help, allow_abbrev=False)
        p.set_defaults(kind=spec.kind)
        p.add_argument("--config", help="INI config file ([run]/[sweep]/[output] sections)")
        for f in _OUTPUT_FIELDS + spec.fields:
            if f.flag:
                metavar = "{" + ",".join(f.choices) + "}" if f.choices else None
                p.add_argument(f.option, dest=f.name, metavar=metavar, help=f.help)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        plan = plan_from_args(args.kind, args)
        manifest, code = run_plan(plan)
    except ValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    for entry in manifest["cells"]:
        files = ", ".join(entry["files"]) if entry["files"] else "-"
        line = f"[{entry['status']}] {entry['name']} ({entry['wall_time']:.2f}s) {files}"
        if entry["error"]:
            line += f"  {entry['error']}"
        if "warnings" in entry:
            line += "  warnings: " + ", ".join(f"{k}={n}" for k, n in sorted(entry["warnings"].items()))
        print(line)
    print(f"manifest: {os.path.join(plan.values['out'], 'manifest.json')}")
    return code


if __name__ == "__main__":
    sys.exit(main())
