"""Per-item SHA-256 dump of the lab's numbers, for bit-identity checks.

    python3 tools/bitdump.py [PREFIX ...] > dump.txt

Runs a fixed set of items and prints one line per item: the SHA-256 of
every array, scalar and warning (category and message) that the item
produced, then its name.  Items are reduced flows, oscillators, committee
flows, SGD runs, committee SGD runs, series values and comparison reports
(``compare_theory_experiment`` on fixed synthetic CSVs); each SGD and
committee SGD run is dumped twice, with the draw-ahead worker forced off
and forced on, so the two lines of a run must match.  Last come the SGD
runs again, each as the middle member of a lockstep group whose other
members differ from it in mu alone, and then each through run_lockstep as
the group of one (the items named "... alone"); the script exits with
status 1 when such a line differs from the line of the run alone, as it
does when the group does not answer.  Last of all come the example
commands of the README's command-line block, one item each, named by
subcommand and output directory: each runs in a temporary directory, after
the example commands whose output it reads (compare's), and its hash
covers the exit codes and the text of every CSV it writes, but not its
manifest.json, which holds times and paths.  Given prefixes, only the
items whose names start with one of them run.

A change that must keep every bit runs the dump at its parent commit and
at the change, each from its own checkout, and diffs the two outputs.  The
package is imported from the ``src`` directory beside this script.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import shlex
import sys
import tempfile
import warnings
from functools import partial

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from searchphase import (  # noqa: E402
    CommitteeConfig,
    CommitteeState,
    Curriculum,
    FlowSettings,
    ModelConfig,
    OrderParameterState,
    SimConfig,
    builtin,
    committee_ode_step,
    committee_reduced_init,
    committee_sgd,
    init_state,
    integrate_committee,
    integrate_flow,
    linearize_search_phase,
    measure_drift,
    measure_test_mse,
    oscillator_trajectory,
    population_loss,
    run_lockstep,
    run_simulation,
    scaled_learning_rate,
)
from searchphase import sgd as _sgd  # noqa: E402
from searchphase.cli import compare_theory_experiment, main as cli_main, write_csv  # noqa: E402

LINEAR, ERF, RELU, SIGMOID, HE2, HE3, HE4 = (
    builtin(n) for n in ("linear", "erf", "relu", "sigmoid", "hermite2", "hermite3", "hermite4"))


def _feed(h, value) -> None:
    """Feeds value's bytes to h: arrays with their dtype and shape, and
    dataclasses, tuples, lists and dicts item by item."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
    elif isinstance(value, (tuple, list)):
        h.update(b"(%d" % len(value))
        for v in value:
            _feed(h, v)
    elif value is None or isinstance(value, (bool, int, str)):
        h.update(repr(value).encode())
    else:
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def digest(thunk) -> str:
    """SHA-256 of what thunk returns or raises, and of the warnings it gives."""
    h = hashlib.sha256()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _feed(h, thunk())
        except Exception as exc:  # an item may fail by design; its error is its value
            h.update(f"raised {type(exc).__name__}: {exc}".encode())
    for w in caught:
        h.update(f"warned {w.category.__name__}: {w.message}".encode())
    return h.hexdigest()


def _worker(on: bool, run, cfg):
    """run(cfg) with the draw-ahead worker forced on (every run draws ahead)
    or off (none does)."""
    saved = _sgd._ENGAGE_ITEMS
    _sgd._ENGAGE_ITEMS = 1 if on else math.inf
    try:
        return run(cfg)
    finally:
        _sgd._ENGAGE_ITEMS = saved


def _flows():
    acts = {"linear": (LINEAR, 2), "erf": (ERF, 40), "hermite2": (HE2, 25), "hermite3": (HE3, 25),
            "relu": (RELU, 25)}
    for name, (act, k_max) in acts.items():
        for method in ("rk4", "euler"):
            for mu in (0.3, 0.7):
                cfg = ModelConfig(teacher=act, student=act, mu=mu, k_max=k_max)
                settings = FlowSettings(dt=0.05, t_max=60.0, method=method, record_every=5)
                yield (f"{name} {method} mu{mu}",
                       partial(integrate_flow, cfg, OrderParameterState(0.05, 0.05), settings))


def _oscillators():
    lin = linearize_search_phase(ModelConfig(teacher=HE3, student=HE3, mu=0.3))
    for g0, v0 in ((0.05, 0.0), (-0.4, 0.2), (0.01, -0.05)):
        yield f"he3 g0={g0} v0={v0}", partial(oscillator_trajectory, lin, g0, v0, 0.01, 20.0)


def _committee_flows():
    for rank in (1, 2, 3):
        cfg = CommitteeConfig(mu=(0.3, 0.6, 1.0), rank=rank, d=400)
        for coupled in (True, False):
            flow = partial(integrate_committee, cfg, committee_reduced_init(cfg), 0.05, 30.0, coupled, 7)
            yield f"rank{rank} coupled={coupled}", flow
    cfg = CommitteeConfig(mu=(0.5, 0.8, 1.0, 1.0), rank=3, d=400)
    state = integrate_committee(cfg, committee_reduced_init(cfg), 0.05, 5.0)
    start = CommitteeState(state.u[-1], state.m[-1], np.eye(3))
    yield "committee_ode_step", partial(committee_ode_step, cfg, start, 0.05)


_SGD = {
    "linear aligned stop": SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=300, batch_size=60,
                                     learning_rate=0.2, n_steps=300, stop_when_aligned=True, k_max=2),
    "linear aligned stop re5": SimConfig(teacher=LINEAR, student=LINEAR, mu=0.3, d=1000, batch_size=500,
                                         learning_rate=0.2, n_steps=600, record_every=5,
                                         stop_when_aligned=True, k_max=2, seed=4),
    "he3": SimConfig(teacher=HE3, student=HE3, mu=0.325, d=1000, batch_size=500,
                     learning_rate=scaled_learning_rate(0.04, HE3), n_steps=400, record_every=50,
                     init_overlap=0.4, k_max=25),
    "he3 re1": SimConfig(teacher=HE3, student=HE3, mu=0.2, d=300, batch_size=100,
                         learning_rate=scaled_learning_rate(0.05, HE3), n_steps=300, k_max=25, seed=2),
    "he3 d1000 long": SimConfig(teacher=HE3, student=HE3, mu=0.2, d=1000, batch_size=500,
                                learning_rate=scaled_learning_rate(0.04, HE3), n_steps=2000,
                                record_every=500, k_max=25, seed=1),
    "he4 erf teacher": SimConfig(teacher=ERF, student=HE4, mu=0.3, d=300, batch_size=100,
                                 learning_rate=scaled_learning_rate(0.05, HE4), n_steps=300,
                                 record_every=20, k_max=25, init_overlap=0.2),
    "erf mixed mse": SimConfig(teacher=ERF, student=ERF, mu=0.4, d=300, batch_size=80, learning_rate=0.1,
                               n_steps=300, record_every=7, k_max=20, frozen_mode="mixed"),
    "erf mixed correlation": SimConfig(teacher=ERF, student=ERF, mu=0.4, d=300, batch_size=80,
                                       learning_rate=0.1, n_steps=300, record_every=3, k_max=20,
                                       frozen_mode="mixed", objective="correlation"),
    "erf aligned": SimConfig(teacher=ERF, student=ERF, mu=0.6, d=1000, batch_size=200,
                             learning_rate=0.1, n_steps=300, record_every=10, k_max=20, seed=3),
    "curriculum he3": SimConfig(teacher=HE3, student=HE3, mu=0.325, d=100, batch_size=100,
                                learning_rate=scaled_learning_rate(0.04, HE3), n_steps=400,
                                record_every=7, k_max=25, curriculum=Curriculum(0.5), init_overlap=0.45),
    "curriculum he2": SimConfig(teacher=HE2, student=HE2, mu=0.3, d=200, batch_size=100,
                                learning_rate=scaled_learning_rate(0.05, HE2), n_steps=300,
                                record_every=1, k_max=25, curriculum=Curriculum(0.3), init_overlap=0.3),
    "literal": SimConfig(teacher=ERF, student=ERF, mu=0.4, d=100, batch_size=50, learning_rate=0.1,
                         n_steps=60, record_every=7, k_max=20, sampler="literal"),
    "d20000": SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=20_000, batch_size=100,
                        learning_rate=0.1, n_steps=40, record_every=10, k_max=2),
    "d20000 mixed": SimConfig(teacher=ERF, student=ERF, mu=0.4, d=20_000, batch_size=100,
                              learning_rate=0.1, n_steps=40, record_every=10, k_max=20,
                              frozen_mode="mixed", seed=6),
}


def _sgd_runs():
    small = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=100, batch_size=40,
                      learning_rate=0.2, n_steps=40, record_every=10, k_max=2)
    runs = {"linear small": small, **_SGD}
    for name, cfg in runs.items():
        for on in (False, True):
            yield f"{name} worker={'on' if on else 'off'}", partial(_worker, on, run_simulation, cfg)
    erf = _SGD["erf aligned"]
    state = init_state(erf)
    yield "measure_test_mse", partial(measure_test_mse, erf, state, 20_000, 3)
    for sampler in ("subspace", "literal"):
        cfg = dataclasses.replace(_SGD["erf mixed mse"], sampler=sampler)
        yield f"measure_drift {sampler}", partial(measure_drift, cfg, init_state(cfg), 50)


def _lockstep(on: bool, cfg, alone: bool = False):
    """cfg's outcome through run_lockstep, the worker forced on or off: as
    the group of one when alone, else as the middle member of a group with
    siblings at mu 0.25 and 0.75; raises when the group did not answer."""
    group = [cfg] if alone else [dataclasses.replace(cfg, mu=0.25), cfg, dataclasses.replace(cfg, mu=0.75)]
    outcomes = _worker(on, run_lockstep, group)
    if outcomes is None:
        raise RuntimeError("the lockstep group did not answer")
    outcome = outcomes[len(group) // 2]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _lockstep_runs():
    for alone in (False, True):
        for name, cfg in _SGD.items():
            for on in (False, True):
                item = f"{name} worker={'on' if on else 'off'}{' alone' * alone}"
                yield item, partial(_lockstep, on, cfg, alone)


def _committee_runs():
    runs = {
        "rank1 small": CommitteeConfig(mu=(0.5, 1.0), rank=1, d=60, batch_size=50, n_steps=40,
                                       record_every=10),
        "rank3 K4": CommitteeConfig(mu=(0.5, 1.0, 1.0, 1.0), rank=3, d=300, batch_size=100,
                                    n_steps=300, record_every=7),
        "rank2 K9": CommitteeConfig(mu=(0.4, 0.6) + (1.0,) * 7, rank=2, d=400, batch_size=200,
                                    n_steps=300, record_every=20, seed=5),
        "rank1 d1000": CommitteeConfig(mu=(0.5, 1.0, 1.0, 1.0), rank=1, d=1000, n_steps=300,
                                       record_every=50),
    }
    for name, cfg in runs.items():
        for on in (False, True):
            yield f"{name} worker={'on' if on else 'off'}", partial(_worker, on, committee_sgd, cfg)


def _series_item(act, k_max: int, mu: float) -> list:
    cfg = ModelConfig(teacher=act, student=act, mu=mu, k_max=k_max)
    out = [linearize_search_phase(cfg)]
    for u, m in ((0.01, 0.02), (0.2, -0.1), (0.5, 0.5), (0.9, 0.95)):
        out.append(population_loss(cfg, OrderParameterState(u, m)))
    return out


def _series():
    acts = {"linear": LINEAR, "erf": ERF, "relu": RELU, "sigmoid": SIGMOID, "hermite2": HE2,
            "hermite3": HE3, "hermite5": builtin("hermite5")}
    for name, act in acts.items():
        for k_max in (6, 25, 40):
            for mu in (0.1, 0.3, 0.6, 0.9):
                yield f"{name} k{k_max} mu{mu}", partial(_series_item, act, k_max, mu)
    z = np.linspace(-4.0, 4.0, 90)
    yield "erf slope", partial(ERF.slope, z)


def _compare_item(mu, tau, exit_epoch) -> dict:
    """The report on a theory CSV of (mu, tau) and an experiment CSV of
    (mu, exit_epoch) at d = 1000."""
    with tempfile.TemporaryDirectory() as tmp:
        theory, exper = os.path.join(tmp, "theory.csv"), os.path.join(tmp, "exper.csv")
        write_csv(theory, {}, ["mu", "tau"], zip(mu, tau))
        write_csv(exper, {"d": 1000}, ["mu", "exit_epoch"], zip(mu, exit_epoch))
        return compare_theory_experiment(theory, exper)


def _compares():
    mu = (0.1, 0.3, 0.5, 0.7, 0.9)
    tau = [(1.0 + math.sqrt(1.0 + 4.0 * (1.0 - m) ** 2)) / (2.0 * (1.0 - m) ** 2) for m in mu]
    exact = [t * math.log(1000.0) / 2.0 for t in tau]
    yield "exact scaling", partial(_compare_item, mu, tau, exact)
    tied = (3.5, 3.5, 8.25, 40.0, 40.0)
    yield "tied exit epochs", partial(_compare_item, mu, tau, tied)
    yield "reversed ranking", partial(_compare_item, mu, tau, [1.07 * e for e in reversed(exact)])


def _readme_commands() -> list[list[str]]:
    """The arguments after `searchphase` of each command of the README's
    command-line block, the backslash continuations joined."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    text = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("searchphase ")]


def _out(argv: list[str]) -> str:
    return argv[argv.index("--out") + 1]


def _cli_item(commands: list[list[str]]) -> dict:
    """The exit code of each of commands, run in order through the CLI in a
    temporary directory, and the text of each CSV the last one writes."""
    cwd, out, codes, texts = os.getcwd(), _out(commands[-1]), [], {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in commands:
                with contextlib.redirect_stdout(io.StringIO()):  # status lines, with times
                    codes.append(cli_main(argv))
            for name in sorted(os.listdir(out)):
                if name.endswith(".csv"):
                    with open(os.path.join(out, name), newline="") as fh:
                        texts[name] = fh.read()
        finally:
            os.chdir(cwd)
    return {"codes": codes, "csv": texts}


def _cli():
    commands = _readme_commands()
    for i, argv in enumerate(commands):
        reads = [c for c in commands[:i] if any(a.startswith(_out(c) + "/") for a in argv)]
        yield f"{argv[0]} {_out(argv)}", partial(_cli_item, reads + [argv])


# kind -> its items; the first item of each kind is a small one
KINDS = {
    "flow": _flows,
    "oscillator": _oscillators,
    "committee_flow": _committee_flows,
    "sgd": _sgd_runs,
    "committee_sgd": _committee_runs,
    "series": _series,
    "compare": _compares,
    "lockstep": _lockstep_runs,
    "cli": _cli,
}


def items():
    """(name, thunk) of every item, named 'kind/item'."""
    for kind, make in KINDS.items():
        for name, thunk in make():
            yield f"{kind}/{name}", thunk


def main(argv=None) -> int:
    prefixes = tuple(sys.argv[1:] if argv is None else argv)
    thunks, hashes, code = dict(items()), {}, 0
    for name, thunk in thunks.items():
        if prefixes and not name.startswith(prefixes):
            continue
        hashes[name] = digest(thunk)
        print(hashes[name], name, flush=True)
        if name.startswith("lockstep/"):
            alone = "sgd/" + name.split("/", 1)[1].removesuffix(" alone")
            if alone not in hashes:
                hashes[alone] = digest(thunks[alone])
            if hashes[alone] != hashes[name]:
                print(f"{name} differs from {alone}", file=sys.stderr)
                code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
