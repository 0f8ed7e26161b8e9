"""High-dimensional one-pass SGD: sampling, drift, measurement, curricula."""

import dataclasses
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import searchphase.sgd as sgd_module
from searchphase.activations import ActivationSpec, LabelTransform, builtin, transform_teacher
from searchphase.committee import CommitteeConfig, committee_sgd
from searchphase.ode import NumericalBlowupError
from searchphase.sgd import (
    Curriculum,
    SimConfig,
    SimState,
    _MEASURE_STREAM,
    _TRAIN_STREAM,
    _Lockstep,
    counter_stream,
    epoch_time_scale,
    init_state,
    lockstep_groups,
    measure_drift,
    measure_test_mse,
    run_lockstep,
    run_simulation,
    scaled_learning_rate,
    sgd_step,
    step_rng,
)
from searchphase.theory import ModelConfig, OrderParameterState, loss_gradients

LINEAR = builtin("linear")
ERF = builtin("erf")
HE3 = builtin("hermite(3)")


def test_config_validation():
    good = dict(teacher=LINEAR, student=LINEAR, mu=0.5, d=100, batch_size=10,
                learning_rate=0.1, n_steps=5)
    SimConfig(**good)
    for bad in (
        dict(good, mu=0.0),
        dict(good, mu=1.0),
        dict(good, d=2),
        dict(good, batch_size=0),
        dict(good, learning_rate=0.0),
        dict(good, frozen_mode="random"),
        dict(good, objective="hinge"),
        dict(good, sampler="approximate"),
        dict(good, record_every=0),
        dict(good, align_threshold=0.0),
    ):
        with pytest.raises(ValueError):
            SimConfig(**bad)
    with pytest.raises(ValueError):
        Curriculum(switch_threshold=1.0)
    # a non-integer count or seed is refused, not truncated or failed on deep in NumPy
    for name, value in (("seed", 1.5), ("record_every", 2.5), ("d", 50.0), ("n_steps", 6.0),
                        ("batch_size", 10.0)):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{**good, "n_steps": 6, name: value})
    SimConfig(**dict(good, d=np.int64(100), n_steps=np.int32(5), seed=np.uint64(2**63)))


@pytest.mark.parametrize("make", [
    partial(SimConfig, teacher=LINEAR, student=LINEAR, mu=0.5, d=100),
    partial(CommitteeConfig, mu=(0.5, 1.0), rank=1, d=100),
], ids=["SimConfig", "CommitteeConfig"])
@pytest.mark.parametrize("fault, message", [
    ({"batch_size": 0}, "batch_size and n_steps must be positive"),
    ({"n_steps": 0}, "batch_size and n_steps must be positive"),
    ({"learning_rate": math.nan}, "learning_rate must be positive and finite"),
    ({"record_every": 0}, "record_every must be >= 1"),
    ({"seed": -1}, "seed must lie in [0, 2**64)"),
    ({"seed": 2**64}, "seed must lie in [0, 2**64)"),
])
def test_both_configs_refuse_a_shared_field_alike(make, fault, message):
    with pytest.raises(ValueError) as exc:
        make(**{"batch_size": 10, "learning_rate": 0.1, "n_steps": 5, **fault})
    assert str(exc.value) == message


@pytest.mark.parametrize("field, value", [
    ("learning_rate", math.nan),
    ("learning_rate", math.inf),
    ("init_magnitude", math.nan),
    ("init_magnitude", math.inf),
])
def test_a_non_finite_rate_or_magnitude_is_refused(field, value):
    # these used to end in NumericalBlowupError at step 1
    with pytest.raises(ValueError, match=field):
        SimConfig(**{**dict(teacher=LINEAR, student=LINEAR, mu=0.5, d=100, batch_size=10,
                            learning_rate=0.1, n_steps=5), field: value})


@pytest.mark.parametrize("overlap", [-1.0, 1.0, 1.5, math.nan])
def test_an_initial_overlap_outside_the_open_interval_is_refused(overlap):
    # init_state used to refuse it only once the run had begun
    with pytest.raises(ValueError, match="init_overlap"):
        SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=100, batch_size=10,
                  learning_rate=0.1, n_steps=5, init_overlap=overlap)


def test_counter_rng_is_deterministic_and_separated():
    a = step_rng(0, 1, 5).standard_normal(8)
    assert np.array_equal(a, step_rng(0, 1, 5).standard_normal(8))
    assert not np.array_equal(a, step_rng(0, 2, 5).standard_normal(8))
    assert not np.array_equal(a, step_rng(0, 1, 6).standard_normal(8))
    assert not np.array_equal(a, step_rng(1, 1, 5).standard_normal(8))


def test_initial_geometry_is_pinned():
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.4, d=900, batch_size=10,
                    learning_rate=0.1, n_steps=1, k_max=2)
    st = init_state(cfg)
    root_d = math.sqrt(cfg.d)
    assert st.u == pytest.approx(1.0 / root_d, abs=1e-14)
    assert st.m == pytest.approx(1.0 / root_d, abs=1e-12)
    assert np.linalg.norm(st.omega) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(st.omega_star) == pytest.approx(1.0, abs=1e-12)
    assert st.xi is None
    np.testing.assert_allclose(st.omega_tilde, cfg.mu * st.omega_star, atol=1e-14)

    mixed = init_state(replace(cfg, frozen_mode="mixed"))
    assert mixed.xi is not None
    assert abs(mixed.xi @ mixed.omega_star) < 1e-12
    assert np.linalg.norm(mixed.xi) == pytest.approx(1.0, abs=1e-12)
    want = cfg.mu * mixed.omega_star + (1.0 - cfg.mu) * mixed.xi
    np.testing.assert_allclose(mixed.omega_tilde, want, atol=1e-14)


def test_sphere_constraint_maintained():
    cfg = SimConfig(teacher=ERF, student=ERF, mu=0.5, d=300, batch_size=100,
                    learning_rate=0.05, n_steps=1, k_max=40, sampler="literal")
    st = init_state(cfg)
    for _ in range(50):
        st = sgd_step(cfg, st)
        assert abs(np.linalg.norm(st.omega) - 1.0) < 1e-10


def test_one_step_drift_matches_reduced_flow():
    # mean single-step increments agree with the population-gradient
    # prediction du = -2 lr dL/du, dm = -2 lr (1 - m^2) dL/dm
    for act, k_max in ((LINEAR, 2), (ERF, 40)):
        cfg = SimConfig(teacher=act, student=act, mu=0.5, d=1000, batch_size=500,
                        learning_rate=0.01, n_steps=1, k_max=k_max)
        st = init_state(cfg)
        drift = measure_drift(cfg, st, 400)
        mcfg = ModelConfig(teacher=act, student=act, mu=cfg.mu, k_max=k_max)
        du_t, dm_t = loss_gradients(mcfg, OrderParameterState(st.u, st.m))
        pred_u = -2.0 * cfg.learning_rate * du_t
        pred_m = -2.0 * cfg.learning_rate * (1.0 - st.m**2) * dm_t
        assert abs(drift.du - pred_u) <= 4.0 * drift.du_stderr
        assert abs(drift.dm - pred_m) <= 4.0 * drift.dm_stderr


def test_subspace_and_literal_samplers_agree():
    # the reduced-coordinate sampler and the full d-dimensional sampler are
    # two routes to the same distribution: mean drifts must be statistically
    # indistinguishable at a matched state
    cfg_s = SimConfig(teacher=ERF, student=ERF, mu=0.4, d=300, batch_size=200,
                      learning_rate=0.05, n_steps=1, sampler="subspace", k_max=40,
                      init_overlap=0.2, init_magnitude=0.3)
    cfg_l = replace(cfg_s, sampler="literal")
    st = init_state(cfg_s)
    d_s = measure_drift(cfg_s, st, 500)
    d_l = measure_drift(cfg_l, st, 500)
    z_u = (d_s.du - d_l.du) / math.hypot(d_s.du_stderr, d_l.du_stderr)
    z_m = (d_s.dm - d_l.dm) / math.hypot(d_s.dm_stderr, d_l.dm_stderr)
    assert abs(z_u) < 4.0
    assert abs(z_m) < 4.0


def test_learning_rate_and_time_scalings():
    assert scaled_learning_rate(0.01, LINEAR) == pytest.approx(0.01)
    assert scaled_learning_rate(0.01, HE3) == pytest.approx(0.01 / (math.factorial(3) * 3))
    cfg = SimConfig(teacher=HE3, student=HE3, mu=0.3, d=100, batch_size=10,
                    learning_rate=0.02, n_steps=1)
    assert epoch_time_scale(cfg) == pytest.approx(2.0 * 0.02 * math.factorial(3) * 3)


def test_test_mse_at_reference_states():
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.3, d=500, batch_size=100,
                    learning_rate=0.1, n_steps=1, k_max=2)
    st = init_state(cfg)
    perfect = SimState(u=1.0 - cfg.mu, omega=st.omega_star, omega_star=st.omega_star,
                       omega_tilde=st.omega_tilde, xi=None, step=0)
    est = measure_test_mse(cfg, perfect, n_samples=50_000)
    assert abs(est.mc) < 1e-12
    assert est.series == pytest.approx(0.0, abs=1e-12)

    zero_u = SimState(u=0.0, omega=st.omega, omega_star=st.omega_star,
                      omega_tilde=st.omega_tilde, xi=None, step=0)
    est0 = measure_test_mse(cfg, zero_u, n_samples=200_000)
    want = (1.0 - cfg.mu) ** 2
    assert abs(est0.mc - want) <= 3.0 * est0.stderr
    assert est0.series == pytest.approx(want, rel=1e-12)


def test_test_mse_monte_carlo_agrees_with_series():
    rng = np.random.default_rng(7)
    for i in range(20):
        act, k_max = [(LINEAR, 2), (ERF, 40), (HE3, 25)][i % 3]
        cfg = SimConfig(teacher=act, student=act, mu=float(rng.uniform(0.15, 0.85)),
                        d=400, batch_size=100, learning_rate=0.1, n_steps=1,
                        k_max=k_max, seed=i,
                        init_overlap=float(rng.uniform(-0.7, 0.7)),
                        init_magnitude=float(rng.uniform(0.05, 0.8)))
        st = init_state(cfg)
        est = measure_test_mse(cfg, st, n_samples=200_000, block=i)
        assert abs(est.mc - est.series) <= 3.0 * est.stderr


def test_one_pass_prefix_property():
    # a longer run replays the shorter run exactly: batch at step j depends
    # only on (seed, stream, j), never on how many steps follow
    base = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=200, batch_size=50,
                     learning_rate=0.1, n_steps=60, k_max=2, record_every=1)
    short = run_simulation(replace(base, n_steps=30))
    full = run_simulation(base)
    n = len(short.u)
    assert np.array_equal(short.u, full.u[:n])
    assert np.array_equal(short.m, full.m[:n])


def test_reduced_state_projection():
    cfg = SimConfig(teacher=ERF, student=ERF, mu=0.4, d=300, batch_size=10,
                    learning_rate=0.1, n_steps=1, k_max=40,
                    init_overlap=0.25, init_magnitude=0.6)
    st = init_state(cfg)
    assert st.u == pytest.approx(0.6, abs=1e-12)
    assert st.m == pytest.approx(0.25, abs=1e-12)


def test_exit_and_alignment_bookkeeping():
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=1000, batch_size=500,
                    learning_rate=0.2, n_steps=2000, k_max=2, record_every=1,
                    stop_when_aligned=True)
    res = run_simulation(cfg)
    assert res.exit_step is not None
    assert res.aligned_step is not None
    assert res.exit_step <= res.aligned_step
    assert res.final_state.m >= cfg.align_threshold
    assert res.init_m == pytest.approx(1.0 / math.sqrt(cfg.d), abs=1e-12)


def test_curriculum_switches_and_aligns():
    # threshold below the initial overlap: stage two starts immediately and
    # the run proceeds to alignment on the original labels
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=1000, batch_size=500,
                    learning_rate=0.2, n_steps=2000, k_max=2, record_every=1,
                    curriculum=Curriculum(switch_threshold=0.01),
                    stop_when_aligned=True)
    res = run_simulation(cfg)
    assert res.switch_step is not None and res.switch_step <= 2
    assert res.aligned_step is not None
    assert res.final_state.m >= cfg.align_threshold


def test_mixed_mode_reaches_exact_recovery_geometry():
    # with frozen part mu w* + (1-mu) xi, zero loss for the linear pair
    # requires u w = (1-mu)(w* - xi): the adapter overlap saturates at
    # 1/sqrt(2) while the effective overlap reaches 1
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=1000, batch_size=500,
                    learning_rate=0.2, n_steps=2000, k_max=2, record_every=1,
                    frozen_mode="mixed")
    res = run_simulation(cfg)
    assert res.m[-1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)
    assert res.m_eff[-1] == pytest.approx(1.0, abs=1e-3)
    assert res.test_mse[-1] < 1e-4


def test_mixed_mode_preserves_search_phenomenology():
    # both pre-training geometries show the same trapped-then-escape shape;
    # the bulk direction adds a decaying channel, so escape epochs stay
    # within a factor of two of each other
    base = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=1000, batch_size=500,
                     learning_rate=0.2, n_steps=2000, k_max=2, record_every=1)
    for seed in (0, 1):
        ra = run_simulation(replace(base, seed=seed, frozen_mode="aligned"))
        rm = run_simulation(replace(base, seed=seed, frozen_mode="mixed"))
        ea = int(np.argmax(np.abs(ra.m) >= 0.45))
        em = int(np.argmax(np.abs(rm.m) >= 0.45))
        assert ea > 0 and em > 0
        assert 0.5 <= ea / em <= 2.0


def test_mixed_mode_bulk_overlap_balance():
    # during the search phase the drifts of m = w.w* and q = w.xi cancel to
    # leading order for the linear pair: m + q stays near its initial value
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=1000, batch_size=500,
                    learning_rate=0.2, n_steps=400, k_max=2, frozen_mode="mixed")
    st = init_state(cfg)
    start = st.m + float(st.omega @ st.xi)
    while st.step < cfg.n_steps and abs(st.m) < 0.35:
        st = sgd_step(cfg, st)
        balance = st.m + float(st.omega @ st.xi)
        assert abs(balance - start) < 0.05


def test_correlation_objective_runs():
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=500, batch_size=200,
                    learning_rate=0.05, n_steps=50, k_max=2, objective="correlation")
    res = run_simulation(cfg)
    assert len(res.m) == 51
    assert np.isfinite(res.m).all()


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    overlap=st.floats(-0.8, 0.8),
    magnitude=st.floats(0.05, 1.0),
    frozen_mode=st.sampled_from(["aligned", "mixed"]),
    objective=st.sampled_from(["mse", "correlation"]),
)
def test_samplers_agree_in_law_over_states(overlap, magnitude, frozen_mode, objective):
    # d / batch and the learning rate are large enough that the residual
    # (off-frame) noise moves the drift of m through the renormalization,
    # so the residual's law is checked as well as the in-frame part
    cfg_s = SimConfig(teacher=ERF, student=ERF, mu=0.4, d=400, batch_size=40,
                      learning_rate=0.2, n_steps=1, k_max=40, init_overlap=overlap,
                      init_magnitude=magnitude, frozen_mode=frozen_mode, objective=objective)
    cfg_l = replace(cfg_s, sampler="literal")
    st_ = init_state(cfg_s)
    d_s = measure_drift(cfg_s, st_, 400)
    d_l = measure_drift(cfg_l, st_, 400)
    assert abs(d_s.du - d_l.du) < 4.0 * math.hypot(d_s.du_stderr, d_l.du_stderr)
    assert abs(d_s.dm - d_l.dm) < 4.0 * math.hypot(d_s.dm_stderr, d_l.dm_stderr)


@pytest.mark.parametrize("curriculum", [None, Curriculum(switch_threshold=0.5)])
def test_train_mse_is_the_error_of_the_consumed_batch(curriculum):
    cfg = SimConfig(teacher=HE3, student=HE3, mu=0.3, d=60, batch_size=40, learning_rate=0.01,
                    n_steps=40, sampler="literal", curriculum=curriculum, init_overlap=0.45,
                    k_max=30)
    res = run_simulation(cfg)
    squared = transform_teacher(HE3, LabelTransform(kind="square"))
    state, stage1 = init_state(cfg), curriculum is not None
    errors = []
    for _ in range(cfg.n_steps):
        teacher = squared if stage1 else HE3
        x = step_rng(cfg.seed, _TRAIN_STREAM, state.step).standard_normal((cfg.batch_size, cfg.d))
        pre = x @ state.omega_tilde + state.u * (x @ state.omega)
        errors.append(np.mean((teacher.evaluate(x @ state.omega_star) - HE3.evaluate(pre)) ** 2))
        state = sgd_step(cfg, state, teacher)
        stage1 = stage1 and state.m < curriculum.switch_threshold
    if curriculum is not None:
        assert res.switch_step is not None and res.switch_step < cfg.n_steps
    # record 0 pairs the initial state with the first batch
    np.testing.assert_allclose(res.train_mse, [errors[0]] + errors, rtol=1e-12)


@pytest.mark.parametrize("sampler", ["subspace", "literal"])
def test_first_two_records_share_the_first_batch_error(sampler):
    cfg = SimConfig(teacher=ERF, student=ERF, mu=0.4, d=100, batch_size=50, learning_rate=0.05,
                    n_steps=3, sampler=sampler, k_max=40)
    res = run_simulation(cfg)
    assert res.train_mse[0] == res.train_mse[1]
    assert res.train_mse[1] != res.train_mse[2]


@pytest.mark.parametrize("frozen_mode", ["aligned", "mixed"])
def test_held_out_error_matches_literal_draws(frozen_mode):
    # the frame-coordinate sampler against full d-dimensional inputs, at a
    # state a few steps in, where w has left the plane it started in
    cfg = SimConfig(teacher=ERF, student=ERF, mu=0.4, d=40, batch_size=20, learning_rate=0.2,
                    n_steps=5, k_max=40, frozen_mode=frozen_mode, init_overlap=0.3,
                    init_magnitude=0.5)
    st_ = run_simulation(cfg).final_state
    n = 100_000
    est = measure_test_mse(cfg, st_, n_samples=n)
    x = np.random.default_rng(5).standard_normal((n, cfg.d))
    pre = x @ st_.omega_tilde + st_.u * (x @ st_.omega)
    sq = (ERF.evaluate(x @ st_.omega_star) - ERF.evaluate(pre)) ** 2
    ref, ref_stderr = sq.mean(), sq.std() / math.sqrt(n)
    assert abs(est.mc - ref) < 4.0 * math.hypot(est.stderr, ref_stderr)


@pytest.mark.parametrize("n_samples", [0, 1, -3, 1.7, 2.5])
def test_measure_test_mse_refuses_fewer_than_two_samples(n_samples):
    # below two samples the mean and stderr are NaN or silently one sample's,
    # and a non-integer count would be truncated; so would a block, and a
    # block is no counter outside [0, 2**64)
    cfg = SimConfig(teacher=ERF, student=ERF, mu=0.4, d=40, batch_size=20, learning_rate=0.2,
                    n_steps=5, k_max=40)
    with pytest.raises(ValueError, match="n_samples must be an integer >= 2"):
        measure_test_mse(cfg, init_state(cfg), n_samples=n_samples)
    for block in (1.5, 1.9, np.float64(2.0), -1, 2**64):
        with pytest.raises(ValueError, match=r"block must be an integer in \[0, 2\*\*64\)"):
            measure_test_mse(cfg, init_state(cfg), block=block)


@pytest.mark.parametrize("n_batches", [0, 1, 2.5])
def test_measure_drift_refuses_fewer_than_two_batches(n_batches):
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.4, d=40, batch_size=20, learning_rate=0.2,
                    n_steps=5, k_max=2)
    with pytest.raises(ValueError, match="n_batches must be an integer >= 2"):
        measure_drift(cfg, init_state(cfg), n_batches)


def test_measure_counts_take_numpy_integers():
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.4, d=40, batch_size=20, learning_rate=0.2,
                    n_steps=5, k_max=2)
    state = init_state(cfg)
    assert measure_test_mse(cfg, state, np.int64(50)) == measure_test_mse(cfg, state, 50)
    assert measure_test_mse(cfg, state, 50, np.uint64(3)) == measure_test_mse(cfg, state, 50, 3)
    measure_test_mse(cfg, state, 50, np.uint64(2**64 - 1))
    assert measure_drift(cfg, state, np.int32(3)).du == measure_drift(cfg, state, 3).du


def test_counter_stream_draws_match_step_rng():
    # the run's one reset Philox serves the batch and residual draws of a
    # freshly built step_rng, whatever it served before
    at = counter_stream(3, _TRAIN_STREAM)
    at(77).standard_normal(5)
    for t in (0, 5, 123456, 2**40):
        ref, gen = step_rng(3, _TRAIN_STREAM, t), at(t)
        assert ref.standard_normal((500, 3)).tobytes() == gen.standard_normal((500, 3)).tobytes()
        buf = np.empty(1001)
        assert gen.standard_normal(1001, out=buf) is buf
        assert ref.standard_normal(1001).tobytes() == buf.tobytes()


def _state_bytes(s):
    return [s.u, s.step] + [a.tobytes() for a in (s.omega, s.omega_star, s.omega_tilde, s.xi)
                            if a is not None]


@pytest.mark.parametrize("sampler", ["subspace", "literal"])
def test_measure_drift_leaves_its_state_alone(sampler):
    # and so do sgd_step and measure_test_mse: a caller's state is never a
    # run's frame
    cfg = SimConfig(teacher=ERF, student=ERF, mu=0.3, d=80, batch_size=40, learning_rate=0.1,
                    n_steps=1, frozen_mode="mixed", sampler=sampler, k_max=40)
    st_ = init_state(cfg)
    before = _state_bytes(st_)
    for call in (partial(measure_drift, cfg, st_, 6), partial(sgd_step, cfg, st_),
                 partial(measure_test_mse, cfg, st_, 500)):
        first = call()
        assert _state_bytes(st_) == before
        again = call()
        if isinstance(first, SimState):
            first, again = _state_bytes(first), _state_bytes(again)
        assert again == first


@pytest.mark.parametrize("frozen_mode", ["aligned", "mixed"])
def test_a_lone_run_holds_each_d_vector_once(frozen_mode):
    # the kernel's d-vectors are the frame rows w_star, [xi,] v, then w, the
    # residual and the gradient: f + 3 of them, since the run's initial rows
    # become its frame, copied nowhere, and the frozen part is remade in the
    # residual's row when a frame is projected
    d, f = 200_000, 2 + (frozen_mode == "mixed")
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=d, batch_size=50, learning_rate=0.1,
                    n_steps=3, record_every=2, frozen_mode=frozen_mode, k_max=2)
    tracemalloc.start()
    try:
        run_simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (f + 4) * 8 * d, peak / (8 * d)


@pytest.mark.parametrize("frozen_mode", ["aligned", "mixed"])
@pytest.mark.parametrize("sampler", ["subspace", "literal"])
@pytest.mark.parametrize("mu", [0.03, 0.97])
def test_a_final_state_keeps_the_initial_frozen_part(mu, sampler, frozen_mode):
    # a run remakes its frozen part rather than carry it, alone and as a
    # member of a group, and ends with init_state's bytes, also when it
    # stops aligned between records (at mu 0.03)
    cfg = SimConfig(teacher=ERF, student=ERF, mu=mu, d=60, batch_size=30, learning_rate=0.1,
                    n_steps=40, record_every=7, frozen_mode=frozen_mode, sampler=sampler, k_max=20,
                    stop_when_aligned=True, align_threshold=0.3, init_overlap=0.25)
    want = init_state(cfg).omega_tilde.tobytes()
    assert run_simulation(cfg).final_state.omega_tilde.tobytes() == want
    cfgs = [replace(cfg, mu=0.5), cfg, replace(cfg, mu=1.0 - mu)]
    members = run_lockstep(cfgs)
    assert [r.final_state.omega_tilde.tobytes() for r in members] == [
        init_state(c).omega_tilde.tobytes() for c in cfgs]


@pytest.mark.parametrize("frozen_mode", ["aligned", "mixed"])
def test_a_state_whose_frozen_part_is_not_its_configs_is_refused(frozen_mode):
    # the kernel remakes omega_tilde from mu, w_star and xi, so a state that
    # carries another one is refused rather than silently replaced
    cfg = SimConfig(teacher=ERF, student=ERF, mu=0.3, d=80, batch_size=40, learning_rate=0.1,
                    n_steps=1, frozen_mode=frozen_mode, k_max=40)
    st_ = init_state(cfg)
    other_mu = replace(st_, omega_tilde=0.35 * st_.omega_star)
    bad = [other_mu]
    if frozen_mode == "mixed":
        bad.append(replace(st_, omega_tilde=cfg.mu * st_.omega_star + (1.0 - cfg.mu) * -st_.xi))
    for state in bad:
        for call in (partial(measure_drift, cfg, state, 3), partial(sgd_step, cfg, state),
                     partial(measure_test_mse, cfg, state, 100)):
            with pytest.raises(ValueError, match="omega_tilde"):
                call()


@pytest.mark.parametrize("frozen_mode", ["aligned", "mixed"])
def test_runs_and_states_share_no_buffers(frozen_mode):
    # runs share nothing; the states of one run share only the fixed
    # w_star, xi and omega_tilde, never w or a workspace buffer
    cfg = SimConfig(teacher=ERF, student=ERF, mu=0.3, d=80, batch_size=40, learning_rate=0.1,
                    n_steps=6, frozen_mode=frozen_mode, record_every=2, k_max=20)
    first = run_simulation(cfg)
    kept = _state_bytes(first.final_state)
    later = run_simulation(replace(cfg, seed=1, n_steps=9))
    assert _state_bytes(first.final_state) == kept
    s0 = init_state(cfg)
    group = _Lockstep([cfg], [s0])
    assert group.frames.shape == (1, 2 + (frozen_mode == "mixed"), cfg.d)  # w_star, [xi,] w

    def step(s):  # a step of the kernel from s0, on the batch of s's step, into a new w
        group.step(s.step)
        w = np.empty(cfg.d)
        group.advance(w)
        return SimState(float(group.u_next), w, s0.omega_star, s0.omega_tilde, s0.xi, s.step + 1)

    s1 = step(s0)
    kept = _state_bytes(s1)
    s2 = step(s1)
    assert _state_bytes(s1) == kept

    def fields(s):
        return [a for a in (s.omega, s.omega_star, s.omega_tilde, s.xi) if a is not None]

    runs = [fields(first.final_state), fields(later.final_state), fields(s0) + [s1.omega, s2.omega]]
    buffers = [group.frames, group.ws.res, group.wt, group.grad]
    for i, run in enumerate(runs):
        others = [a for other in runs[i + 1:] for a in other] + buffers
        assert not any(np.shares_memory(a, b) for a in run for b in others)
    for w in (s0.omega, s1.omega, s2.omega):
        assert not any(np.shares_memory(w, b) for b in runs[2] if b is not w)
    # lockstep members: each member's RunResult and final state own their arrays
    members = run_lockstep([cfg, replace(cfg, mu=0.5), replace(cfg, mu=0.7, learning_rate=0.05)])
    owned = [[a for a in _arrays(r) if a.dtype != object] for r in members]
    for i, own in enumerate(owned):
        others = [a for other in owned[i + 1:] for a in other] + buffers
        assert not any(np.shares_memory(a, b) for a in own for b in others)


def test_seeds_above_2_63_key_distinct_streams():
    # a float64 round trip would merge these two seeds into one key
    lo, hi = 2**64 - 2049, 2**64 - 2048
    a = step_rng(lo, _TRAIN_STREAM, 0).standard_normal(8)
    assert not np.array_equal(a, step_rng(hi, _TRAIN_STREAM, 0).standard_normal(8))
    assert np.array_equal(a, counter_stream(lo, _TRAIN_STREAM)(0).standard_normal(8))
    top = step_rng(2**64 - 1, _TRAIN_STREAM, 0).standard_normal(8)
    assert not np.array_equal(top, step_rng(0, _TRAIN_STREAM, 0).standard_normal(8))


def test_config_rejects_seeds_outside_uint64():
    good = dict(teacher=LINEAR, student=LINEAR, mu=0.5, d=100, batch_size=10,
                learning_rate=0.1, n_steps=5)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            SimConfig(**good, seed=seed)
    SimConfig(**good, seed=2**64 - 1)


# --- draw ahead: a worker process draws a run's batches before the run
# needs them; the bits must be those of the in-line draws

@pytest.mark.parametrize("f", [2, 3, 7])  # aligned, mixed, and a committee's K + R = 4 + 3
def test_draws_into_views_of_one_buffer_are_the_draws_of_fresh_arrays(f):
    # every draw of an item fills arrays with out= (_draw): the worker views
    # into one flat shared buffer, the main np.empty arrays; either holds the
    # bits of fresh arrays drawn from one reset generator: coordinates, then
    # the residual
    n, d, m = 500, 1000, 10_000
    flat = np.empty(3 + 2 * (n * f + d) + m * f)
    train, measure = counter_stream(9, _TRAIN_STREAM), counter_stream(9, _MEASURE_STREAM)
    for t in (0, 1, 2**33):
        ref = train(t)
        coords, res = ref.standard_normal((n, f)), ref.standard_normal(d)
        held = measure(t).standard_normal((m, f))
        for off in (3, 3 + n * f + d):  # a view at an offset, then the next one
            gen = train(t)
            view = flat[off:off + n * f].reshape(n, f)
            assert gen.standard_normal(out=view) is view
            gen.standard_normal(out=flat[off + n * f:off + n * f + d])
            assert view.tobytes() == coords.tobytes()
            assert flat[off + n * f:off + n * f + d].tobytes() == res.tobytes()
        off = 3 + 2 * (n * f + d)
        measure(t).standard_normal(out=flat[off:].reshape(m, f))
        assert flat[off:].tobytes() == held.tobytes()


def _engage(monkeypatch, on: bool) -> None:
    """Forces every run to draw ahead, or none to."""
    monkeypatch.setattr(sgd_module, "_ENGAGE_ITEMS", 1 if on else math.inf)


def _arrays(result) -> list:
    out = []
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        out += _arrays(value) if dataclasses.is_dataclass(value) else [np.asarray(value)]
    return out


def _inline_draws(monkeypatch) -> list:
    """Counts the generator resets of the main process: an item the worker
    drew costs the main none."""
    calls, real = [], sgd_module.counter_stream

    def counting(seed, stream):
        at = real(seed, stream)

        def counted(step):
            calls.append(step)
            return at(step)

        return counted

    monkeypatch.setattr(sgd_module, "counter_stream", counting)
    return calls


_DRAW_AHEAD_RUNS = {
    "aligned re1": SimConfig(teacher=ERF, student=ERF, mu=0.4, d=200, batch_size=50,
                             learning_rate=0.1, n_steps=300, record_every=1, k_max=20),
    "mixed re7": SimConfig(teacher=ERF, student=ERF, mu=0.4, d=200, batch_size=50,
                           learning_rate=0.1, n_steps=300, record_every=7, k_max=20,
                           frozen_mode="mixed"),
    "curriculum": SimConfig(teacher=HE3, student=HE3, mu=0.325, d=100, batch_size=100,
                            learning_rate=scaled_learning_rate(0.04, HE3), n_steps=400,
                            record_every=7, k_max=25, curriculum=Curriculum(0.5),
                            init_overlap=0.45),
    "stop when aligned": SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=200,
                                   batch_size=50, learning_rate=0.2, n_steps=400,
                                   stop_when_aligned=True, k_max=2),
}


def _worker_labels(monkeypatch) -> list:
    """Counts, per run, the step batches whose labels the main took from the worker."""
    counts, real = [], sgd_module._Ahead.take

    def take(self, *args):
        drawn = real(self, *args)
        if drawn is not None and drawn[1] is not None:
            counts[-1] += 1
        return drawn

    monkeypatch.setattr(sgd_module._Ahead, "take", take)
    return counts


def test_drawing_ahead_keeps_every_bit(monkeypatch):
    calls = _inline_draws(monkeypatch)
    labelled = _worker_labels(monkeypatch)
    runs = [(run_simulation, cfg) for cfg in _DRAW_AHEAD_RUNS.values()]
    runs.append((committee_sgd, CommitteeConfig(mu=(0.5, 1.0, 1.0, 1.0), rank=3, d=200,
                                                batch_size=100, n_steps=300, record_every=7)))
    # nine teachers: the label's add.reduce over a row of 8 or more sums pairwise
    runs.append((committee_sgd, CommitteeConfig(mu=(0.4, 0.6) + (1.0,) * 7, rank=2, d=300,
                                                batch_size=100, n_steps=300, record_every=20)))
    inline = {}
    for on in (False, True):
        _engage(monkeypatch, on)
        del calls[:]
        results = []
        for run, cfg in runs:
            labelled.append(0)
            results.append(run(cfg))
        inline[on] = len(calls)
        if on:
            for a, b in zip(reference, results):
                assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))
        reference = results
    assert reference[2].switch_step is not None  # the curriculum switched
    assert reference[3].final_state.step < 400  # the run stopped early
    assert reference[5].onset_step is not None  # the nine-teacher committee escaped
    assert inline[True] < inline[False]  # the worker drew some of the batches
    assert labelled[:len(runs)] == [0] * len(runs)  # no worker, no labels from one
    assert all(n > 0 for n in labelled[len(runs):])  # and each run took some of its labels


def _outcome(cfg):
    """run_simulation(cfg), or the NumericalBlowupError it raises."""
    try:
        return run_simulation(cfg)
    except NumericalBlowupError as exc:
        return exc


def _lockstep_groups():
    """Lockstep groups of three, named by what their members differ in."""
    mse = SimConfig(teacher=ERF, student=ERF, mu=0.4, d=200, batch_size=50, learning_rate=0.1,
                    n_steps=300, record_every=7, k_max=20)
    mixed = replace(mse, frozen_mode="mixed", objective="correlation")
    curriculum = _DRAW_AHEAD_RUNS["curriculum"]
    stop = _DRAW_AHEAD_RUNS["stop when aligned"]
    blowup = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=200, batch_size=50,
                       learning_rate=0.05, n_steps=300, record_every=10, k_max=2)
    literal = SimConfig(teacher=ERF, student=ERF, mu=0.4, d=100, batch_size=50, learning_rate=0.1,
                        n_steps=60, record_every=7, k_max=20, sampler="literal")
    return {
        "aligned mse": [mse, replace(mse, mu=0.6), replace(mse, mu=0.2, init_magnitude=0.3)],
        "mixed correlation": [mixed, replace(mixed, mu=0.6), replace(mixed, learning_rate=0.2)],
        # the third switches at once: its threshold is below its initial m
        "curriculum": [curriculum, replace(curriculum, init_overlap=0.4),
                       replace(curriculum, mu=0.3, curriculum=Curriculum(0.4))],
        "stop when aligned": [stop, replace(stop, mu=0.3), replace(stop, mu=0.7, learning_rate=0.25)],
        "blowup": [blowup, replace(blowup, learning_rate=1.2), replace(blowup, mu=0.7)],
        "literal": [literal, replace(literal, mu=0.6), replace(literal, learning_rate=0.2)],
    }


@pytest.mark.parametrize("on", [False, True])
@pytest.mark.parametrize("name", sorted(_lockstep_groups()))
def test_lockstep_members_get_the_bits_of_their_runs_alone(monkeypatch, name, on):
    _engage(monkeypatch, on)
    cfgs = _lockstep_groups()[name]
    assert lockstep_groups(cfgs) == [[0, 1, 2]]
    alone = [_outcome(cfg) for cfg in cfgs]
    together = run_lockstep(cfgs)
    for a, b in zip(alone, together):
        if isinstance(a, Exception):
            assert type(b) is type(a) and str(b) == str(a)
        else:
            assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))
    if name == "curriculum":
        assert len({r.switch_step for r in alone}) == 3
    if name == "stop when aligned":
        assert len({r.final_state.step for r in alone}) == 3
        assert all(r.final_state.step == r.aligned_step < 400 for r in alone)
    if name == "blowup":
        assert [type(r) for r in alone] == [sgd_module.RunResult, NumericalBlowupError,
                                            sgd_module.RunResult]
        assert str(alone[1]) == "SGD diverged at step 71"


def test_lockstep_groups_follow_the_draws_and_the_step_formula():
    base = _DRAW_AHEAD_RUNS["aligned re1"]
    cfgs = [base, replace(base, mu=0.6, learning_rate=0.2, init_overlap=0.3, align_threshold=0.9,
                          stop_when_aligned=True, curriculum=Curriculum(0.5), k_max=5),
            replace(base, seed=1), replace(base, record_every=2), replace(base, objective="correlation"),
            replace(base, teacher=builtin("erf"), student=builtin("erf")), replace(base, mu=0.2)]
    # a spec made anew is another teacher to the key, though it labels alike
    assert lockstep_groups(cfgs) == [[0, 1, 6], [2], [3], [4], [5]]
    with pytest.raises(ValueError, match="one lockstep group"):
        run_lockstep(cfgs[:3])


@pytest.mark.parametrize("frozen_mode", ["aligned", "mixed"])
def test_a_member_whose_frame_loses_its_row_leaves_the_group(frozen_mode):
    # w on w_star has no residual off the fixed rows: a lone run's frame
    # drops the row, as orthonormal_frame does, and regains it once w is
    # off w_star again; a group of two ends its attempt
    cfg = SimConfig(teacher=ERF, student=ERF, mu=0.4, d=50, batch_size=20, learning_rate=0.1,
                    n_steps=5, k_max=20, frozen_mode=frozen_mode)
    f = 2 + (frozen_mode == "mixed")
    for cfgs in ([cfg], [cfg, replace(cfg, mu=0.6)]):
        states = [init_state(c) for c in cfgs]
        group = _Lockstep(cfgs, states)
        group.wt[0, 0] = states[0].omega_star
        group.m = sgd_module._dots(group.w, states[0].omega_star)
        if len(cfgs) == 2:
            with pytest.raises(ArithmeticError, match="lost its row"):
                group.frame()
            continue
        group.frame()
        assert group.F.shape == (f - 1, cfg.d)
        group.step(0)
        group.advance()
        group.frame()
        assert group.F.shape == (f, cfg.d)  # the stepped w is off w_star again


_STEEP = ActivationSpec("steep sigmoid", lambda z: 1.0 / (1.0 + np.exp(-300.0 * z)), None)


def test_a_lockstep_group_that_warns_leaves_every_member_to_run_alone():
    cfg = SimConfig(teacher=_STEEP, student=ERF, mu=0.4, d=200, batch_size=40, learning_rate=0.05,
                    n_steps=30, record_every=30, k_max=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # none reaches the caller
        assert run_lockstep([cfg, replace(cfg, mu=0.6)]) is None


def test_a_lockstep_group_stops_at_its_first_warning(monkeypatch):
    cfg = SimConfig(teacher=_STEEP, student=ERF, mu=0.4, d=200, batch_size=40, learning_rate=0.05,
                    n_steps=300, record_every=30, k_max=20)
    steps = []
    step = _Lockstep.step

    def counted(self, *args):
        steps.append(args[0])
        return step(self, *args)

    monkeypatch.setattr(_Lockstep, "step", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_lockstep([cfg, replace(cfg, mu=0.6)]) is None
    assert 0 < len(steps) < cfg.n_steps


@pytest.mark.parametrize("teacher", [
    # its exp overflows, with a RuntimeWarning, on the batches that hold a
    # sample below about -2.4, while its labels stay finite
    ActivationSpec("steep sigmoid", lambda z: 1.0 / (1.0 + np.exp(-300.0 * z)), None),
    # its exp underflows on almost every batch, which the main ignores, and
    # so does the worker
    ActivationSpec("narrow bump", lambda z: np.exp(-400.0 * z * z), None),
])
def test_a_labelling_that_warns_is_redone_in_line_with_the_same_warnings(monkeypatch, teacher):
    labelled = _worker_labels(monkeypatch)
    cfg = SimConfig(teacher=teacher, student=ERF, mu=0.4, d=200, batch_size=40,
                    learning_rate=0.05, n_steps=300, record_every=300, k_max=20)
    got = {}
    for on in (False, True):
        _engage(monkeypatch, on)
        labelled.append(0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run_simulation(cfg)
        got[on] = res, [(w.category, str(w.message)) for w in caught]
    (ref, ref_warned), (res, warned) = got[False], got[True]
    assert all(np.array_equal(x, y) for x, y in zip(_arrays(ref), _arrays(res)))
    assert warned == ref_warned
    if teacher.name == "steep sigmoid":
        # more warnings than the two records give, one per batch that overflowed
        assert len(warned) > 2 and {w[1] for w in warned} == {"overflow encountered in exp"}
    else:
        assert warned == []
    # the worker labelled the other batches
    assert labelled == [0, labelled[1]] and 0 < labelled[1] <= cfg.n_steps + 2 - len(warned)


def _started_workers(monkeypatch) -> list:
    started, real = [], sgd_module._Ahead.start

    def start(cls, *args):
        started.append(real(*args))
        return started[-1]

    monkeypatch.setattr(sgd_module._Ahead, "start", classmethod(start))
    return started


def _gone(pid: int) -> bool:
    """Whether process pid has ended (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.parametrize("case", ["returns", "blows up", "stops when aligned"])
def test_no_worker_outlives_its_run(monkeypatch, case):
    started = _started_workers(monkeypatch)
    cfg = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=200, batch_size=50,
                    learning_rate=0.05, n_steps=1000, record_every=10, k_max=2)
    if case == "blows up":
        with pytest.raises(NumericalBlowupError, match="step 71"):
            run_simulation(replace(cfg, learning_rate=1.2))
    else:
        res = run_simulation(replace(cfg, stop_when_aligned=case == "stops when aligned"))
        assert (res.final_state.step < cfg.n_steps) == (case == "stops when aligned")
    assert len(started) == 1 and started[0] is not None
    assert started[0].proc.exitcode is not None and _gone(started[0].proc.pid)
    assert multiprocessing.active_children() == []


def test_a_killed_worker_costs_time_only_and_warns_once(monkeypatch):
    cfg = _DRAW_AHEAD_RUNS["aligned re1"]
    _engage(monkeypatch, False)
    reference = run_simulation(cfg)
    _engage(monkeypatch, True)
    real_take = sgd_module._Ahead.take

    def take(self, *args):
        if self.j == 100:  # mid-run, after the worker has drawn some items
            os.kill(self.proc.pid, signal.SIGKILL)
            self.proc.join()
        return real_take(self, *args)

    monkeypatch.setattr(sgd_module._Ahead, "take", take)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_simulation(cfg)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "exited with code -9" in str(caught[0].message)
    assert all(np.array_equal(x, y) for x, y in zip(_arrays(reference), _arrays(res)))


def test_a_worker_ends_when_its_parent_is_killed():
    # the parent prints its worker's pid and runs on; it is then killed
    # with no chance to stop the worker
    script = textwrap.dedent("""
        from searchphase import sgd
        from searchphase.activations import builtin

        real = sgd._Ahead.start

        def start(cls, *args):
            ahead = real(*args)
            print(ahead.proc.pid, flush=True)
            return ahead

        sgd._Ahead.start = classmethod(start)
        lin = builtin("linear")
        sgd.run_simulation(sgd.SimConfig(teacher=lin, student=lin, mu=0.5, d=1000,
                                         batch_size=500, learning_rate=1e-6, n_steps=10**7,
                                         record_every=10**6, k_max=2))
    """)
    src = os.path.dirname(os.path.dirname(sgd_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, env=env, text=True)
    try:
        worker = int(parent.stdout.readline())
        time.sleep(0.2)
        assert not _gone(worker)
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
    deadline = time.monotonic() + 2.0
    while not _gone(worker) and time.monotonic() < deadline:
        time.sleep(0.01)
    if not _gone(worker):
        os.kill(worker, signal.SIGKILL)
        pytest.fail("the worker outlived its parent by 2 s")
