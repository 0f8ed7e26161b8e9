"""Per-layer probes for the traced run.

Each layer of the package (its modules) is timed from outside, by calling
its public functions directly under a span charged to that layer.  Times
are medians over a few repeats; the repeat and call counts are fixed so
that a probe's figure compares across commits.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from searchphase import (
    CommitteeConfig,
    FlowSettings,
    OrderParameterState,
    SimConfig,
    builtin,
    committee_linear_rates,
    committee_ode_step,
    committee_reduced_init,
    committee_sgd,
    find_singularities,
    init_state,
    integrate_flow,
    loss_gradients,
    measure_drift,
    population_loss,
    project_activation,
    run_simulation,
    tau_curve,
)

from workloads import TEST_SAMPLES_PER_RECORD, CliSweep, _matching, step_bytes

REPEATS = 3
LINEAR, ERF, HE2, HE3 = (builtin(n) for n in ("linear", "erf", "hermite2", "hermite3"))

def _median_time(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _timed(tracer, name, layer, fn, repeats=REPEATS, **counts) -> float:
    """Median seconds of ``fn`` over repeats, one span per call."""

    def call():
        with tracer.span(name, layer) as sp:
            fn()
            sp.count(**counts)

    return _median_time(call, repeats)


def _lin(d, **kw):
    base = dict(teacher=LINEAR, student=LINEAR, mu=0.5, d=d, batch_size=500,
                learning_rate=0.05, n_steps=1, seed=0, k_max=2)
    base.update(kw)
    return SimConfig(**base)


def probe_sgd(tracer, m: dict) -> None:
    for d, n in ((1000, 200), (10_000, 100), (100_000, 20), (1_000_000, 4)):
        cfg = _lin(d)
        state = init_state(cfg)
        t = _timed(tracer, "measure_drift", "sgd", lambda: measure_drift(cfg, state, n), sgd_steps=n)
        m[f"sgd.step_us.lin_d{d}"] = t / n * 1e6
    cfg = SimConfig(teacher=HE3, student=HE3, mu=0.325, d=1000, batch_size=500,
                    learning_rate=5.5e-5, n_steps=1, seed=0, k_max=25)
    state = init_state(cfg)
    t = _timed(tracer, "measure_drift", "sgd", lambda: measure_drift(cfg, state, 500), sgd_steps=500)
    m["sgd.step_us.he3_d1000"] = t / 500 * 1e6

    n_steps = 200
    dense, sparse = _lin(1000, n_steps=n_steps, record_every=1), _lin(1000, n_steps=n_steps, record_every=n_steps)
    rec_dense, rec_sparse = n_steps + 1, 2
    t_dense = _timed(tracer, "run_simulation", "sgd", lambda: run_simulation(dense),
                     sgd_steps=n_steps, sgd_records=rec_dense,
                     test_samples=rec_dense * TEST_SAMPLES_PER_RECORD)
    t_sparse = _timed(tracer, "run_simulation", "sgd", lambda: run_simulation(sparse),
                      sgd_steps=n_steps, sgd_records=rec_sparse,
                      test_samples=rec_sparse * TEST_SAMPLES_PER_RECORD)
    m["sgd.record_us.lin_d1000"] = (t_dense - t_sparse) / (rec_dense - rec_sparse) * 1e6
    m["sgd.record_share"] = (t_dense - t_sparse) / t_dense

    big = _lin(1_000_000)
    m["sgd.init_ms.d1000000"] = _timed(tracer, "init_state", "sgd", lambda: init_state(big)) * 1e3
    for d in (1000, 10_000, 100_000, 1_000_000):
        m[f"sgd.step_bytes.d{d}"] = float(step_bytes(d))


def probe_activations(tracer, m: dict) -> None:
    x = np.random.default_rng(0).standard_normal(500)
    n = 2000

    def batch():
        for _ in range(n):
            HE3.evaluate(x)

    m["activations.eval_he3_us"] = _timed(tracer, "evaluate", "activations", batch) / n * 1e6


FLOW_CELLS = (("linear", LINEAR, 0.01, 2), ("erf", ERF, 0.02, 40), ("he2", HE2, 0.01, 25))


def probe_theory(tracer, m: dict) -> None:
    state = OrderParameterState(0.05, 0.1)
    n = 500
    for tag, act, _, k_max in FLOW_CELLS:
        cfg = _matching(act, 0.3, k_max)

        def batch():
            for _ in range(n):
                loss_gradients(cfg, state)

        m[f"theory.loss_gradients_us.{tag}"] = _timed(tracer, "loss_gradients", "theory", batch) / n * 1e6
    cfg = _matching(ERF, 0.3, 40)

    def loss_batch():
        for _ in range(n):
            population_loss(cfg, state)

    m["theory.population_loss_us"] = _timed(tracer, "population_loss", "theory", loss_batch) / n * 1e6
    grid = np.linspace(0.05, 0.95, 19)
    m["theory.tau_curve_ms"] = _timed(
        tracer, "tau_curve", "theory", lambda: tau_curve(ERF, ERF, grid, k_max=60)) * 1e3
    m["theory.find_singularities_ms"] = _timed(
        tracer, "find_singularities", "theory", lambda: find_singularities(HE3, HE3, k_max=25)) * 1e3


def probe_hermite(tracer, m: dict) -> None:
    n = 500

    def batch():
        for _ in range(n):
            project_activation(ERF, 0.09, 40)

    m["hermite.project_us"] = _timed(tracer, "project_activation", "hermite", batch) / n * 1e6


def probe_ode(tracer, m: dict) -> None:
    n = 300
    rk4 = lg = 0.0
    for tag, act, dt, k_max in FLOW_CELLS:
        cfg = _matching(act, 0.3, k_max)
        settings = FlowSettings(dt=dt, t_max=n * dt, record_every=n)
        t = _timed(tracer, "integrate_flow", "ode",
                   lambda: integrate_flow(cfg, OrderParameterState(1e-3, 1e-3), settings), rk4_steps=n)
        m[f"ode.rk4_step_us.{tag}"] = t / n * 1e6
        rk4 += m[f"ode.rk4_step_us.{tag}"]
        lg += m[f"theory.loss_gradients_us.{tag}"]
    m["ode.rhs_share"] = 4.0 * lg / rk4


def probe_committee(tracer, m: dict) -> None:
    n = 300
    for rank in (1, 3):
        cfg = CommitteeConfig(mu=(0.5, 1.0, 1.0, 1.0), rank=rank, d=1000, batch_size=500,
                              learning_rate=0.1, n_steps=n, seed=0, record_every=n)
        t = _timed(tracer, "committee_sgd", "committee", lambda: committee_sgd(cfg), committee_steps=n)
        m[f"committee.step_us.r{rank}"] = t / n * 1e6
    cfg = CommitteeConfig(mu=(0.5, 1.0, 1.0, 1.0), rank=3)
    state0 = committee_reduced_init(cfg)
    k = 2000

    def batch():
        state = state0
        for _ in range(k):
            state = committee_ode_step(cfg, state, 0.01)

    m["committee.ode_step_us"] = _timed(tracer, "committee_ode_step", "committee", batch) / k * 1e6


def probe_cli(tracer, m: dict, scratch: str, seed: int) -> None:
    from searchphase import cli

    rows = np.random.default_rng(0).standard_normal((2001, 7)).tolist()
    cols = ["t_epoch", "u", "m", "m_eff", "r", "train_mse", "test_mse"]
    path = os.path.join(scratch, f"probe-{os.getpid()}.csv")
    m["cli.csv_write_ms"] = _timed(
        tracer, "write_csv", "cli", lambda: cli.write_csv(path, {"kind": "probe"}, cols, rows), repeats=5) * 1e3
    os.remove(path)

    # the cli_sweep cells through main, then the same layer calls directly
    sweep = CliSweep(seed, scratch)
    out = sweep.new_dir()
    t0 = time.perf_counter()
    sweep.run_cli(tracer, out)
    t_cli = time.perf_counter() - t0

    t0 = time.perf_counter()
    with tracer.span("tau_curve", "theory"):
        tau_curve(LINEAR, LINEAR, np.array(sweep.SGD_MUS), k_max=25)
    for mu in sweep.SGD_MUS:
        for s in (2 * seed, 2 * seed + 1):
            cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=mu, d=1000, batch_size=500,
                            learning_rate=0.2, n_steps=sweep.SGD_STEPS, seed=s,
                            record_every=sweep.SGD_RECORD_EVERY, k_max=25)
            with tracer.span("run_simulation", "sgd") as sp:
                run_simulation(cfg)
                records = sweep.SGD_STEPS // sweep.SGD_RECORD_EVERY + 1
                sp.count(sgd_steps=sweep.SGD_STEPS, sgd_records=records,
                         test_samples=records * TEST_SAMPLES_PER_RECORD)
    for rank in sweep.RANKS:
        cfg = CommitteeConfig(mu=(0.5, 1.0, 1.0, 1.0), rank=rank, d=1000, batch_size=500,
                              learning_rate=0.1, n_steps=sweep.COMMITTEE_STEPS, seed=seed,
                              record_every=sweep.COMMITTEE_RECORD_EVERY, onset_threshold=0.3)
        with tracer.span("committee_sgd", "committee") as sp:
            committee_linear_rates(cfg)
            committee_sgd(cfg)
            sp.count(committee_steps=sweep.COMMITTEE_STEPS)
    with tracer.span("compare_theory_experiment", "cli"):
        cli.compare_theory_experiment(f"{out}/tau/tau_linear.csv", f"{out}/sgd/sgd_summary.csv")
    t_direct = time.perf_counter() - t0
    m["cli.overhead_s"] = t_cli - t_direct
    sweep.cleanup([[{"dir": out}]])


def run_probes(tracer, scratch: str, seed: int) -> dict:
    m: dict = {}
    with tracer.span("probes", "bench"):
        probe_sgd(tracer, m)
        probe_activations(tracer, m)
        probe_theory(tracer, m)
        probe_hermite(tracer, m)
        probe_ode(tracer, m)
        probe_committee(tracer, m)
        probe_cli(tracer, m, scratch, seed)
    return m
