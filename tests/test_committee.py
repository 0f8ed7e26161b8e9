"""Multi-direction (committee) frozen-plus-adapter dynamics, linear pair."""

import math
from dataclasses import replace

import numpy as np
import pytest

from searchphase.committee import (
    CommitteeConfig,
    CommitteeState,
    aggregate_overlap,
    committee_linear_rates,
    committee_loss,
    committee_reduced_init,
    committee_sgd,
    integrate_committee,
)
from searchphase.ode import NumericalBlowupError


def single_adapted(rank, **kw):
    return CommitteeConfig(mu=(0.5, 1.0, 1.0, 1.0), rank=rank, d=1000, **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        CommitteeConfig(mu=(), rank=1)
    with pytest.raises(ValueError):
        CommitteeConfig(mu=(0.0, 1.0), rank=1)
    with pytest.raises(ValueError):
        CommitteeConfig(mu=(0.5, 1.2), rank=1)
    with pytest.raises(ValueError):
        CommitteeConfig(mu=(0.5,), rank=0)
    with pytest.raises(ValueError):
        CommitteeConfig(mu=(0.5, 1.0), rank=2, d=4)
    with pytest.raises(ValueError):
        CommitteeConfig(mu=(0.5,), rank=1, onset_threshold=1.0)
    # a non-integer count, rank or seed is refused, not truncated or failed on deep in NumPy
    for name, value in (("seed", 2.7), ("record_every", 2.5), ("d", 50.0), ("n_steps", 6.0),
                        ("batch_size", 10.0), ("rank", 1.5)):
        with pytest.raises(ValueError, match=name):
            CommitteeConfig(**{"mu": (0.5, 1.0), "rank": 1, "n_steps": 6, name: value})
    CommitteeConfig(mu=(0.5, 1.0), rank=np.int64(2), d=np.int32(60), seed=np.uint64(2**63))


def test_linear_rates_closed_form_and_rank_independence():
    rates = {r: committee_linear_rates(single_adapted(r)) for r in (1, 2, 3)}
    want_tau = 8.0 * (1.0 + math.sqrt(2.0))
    for r in (1, 2, 3):
        assert rates[r].tau[0] == pytest.approx(want_tau, rel=1e-12)
        assert rates[r].lambda_plus[0] == pytest.approx(1.0 / want_tau, rel=1e-12)
        np.testing.assert_array_equal(rates[r].lambda_plus, rates[1].lambda_plus)
        np.testing.assert_array_equal(rates[r].tau, rates[1].tau)
    # frozen directions never escape
    assert rates[1].lambda_plus[1] == 0.0
    assert math.isinf(rates[1].tau[1])


def test_reduced_init_is_pinned():
    cfg = CommitteeConfig(mu=(0.3, 1.0, 0.8), rank=2, d=400)
    st = committee_reduced_init(cfg)
    v = 1.0 / math.sqrt(400.0)
    np.testing.assert_allclose(st.u[0], v, atol=1e-15)
    np.testing.assert_allclose(st.m[2], v, atol=1e-15)
    np.testing.assert_array_equal(st.u[1], 0.0)
    np.testing.assert_array_equal(st.m[1], 0.0)
    np.testing.assert_array_equal(st.q, np.eye(2))
    with pytest.raises(ValueError):
        CommitteeState(u=np.zeros((3, 2)), m=np.zeros((3, 1)), q=np.eye(2))


def test_overflowing_step_count_is_a_value_error():
    # t_max / dt overflows to inf: bad input, not an OverflowError
    cfg = single_adapted(1)
    with pytest.raises(ValueError, match="finite number of steps"):
        integrate_committee(cfg, committee_reduced_init(cfg), dt=1e-9, t_max=1e300)


def test_a_flow_of_no_step_is_a_value_error():
    # t_max / dt rounds to 0: the run would silently return only t = 0
    cfg = single_adapted(1)
    with pytest.raises(ValueError, match="at least 1"):
        integrate_committee(cfg, committee_reduced_init(cfg), dt=10.0, t_max=1.0)


@pytest.mark.parametrize("dt, t_max", [(-0.1, 1.0), (-0.1, -1.0)])
def test_a_negative_step_is_a_value_error(dt, t_max):
    cfg = single_adapted(1)
    with pytest.raises(ValueError, match="must be positive"):
        integrate_committee(cfg, committee_reduced_init(cfg), dt=dt, t_max=t_max)


def test_a_thinned_flow_keeps_its_final_state():
    cfg = single_adapted(2)
    full = integrate_committee(cfg, committee_reduced_init(cfg), dt=0.05, t_max=40.0)
    thin = integrate_committee(cfg, committee_reduced_init(cfg), dt=0.05, t_max=40.0,
                               record_every=3)
    assert thin.t[-1] == pytest.approx(40.0)
    # every third state, then the last one (800 steps are not a multiple of 3)
    for name in ("t", "u", "m", "loss"):
        np.testing.assert_array_equal(getattr(thin, name)[:-1], getattr(full, name)[:-1:3])
        np.testing.assert_array_equal(getattr(thin, name)[-1], getattr(full, name)[-1])


@pytest.mark.parametrize("learning_rate", [math.nan, math.inf])
def test_a_non_finite_learning_rate_is_refused(learning_rate):
    with pytest.raises(ValueError, match="learning_rate"):
        CommitteeConfig(mu=(0.5,), rank=1, learning_rate=learning_rate)


@pytest.mark.parametrize("record_every", [0, -2])
def test_a_record_interval_below_one_is_refused(record_every):
    # refused when built, not at step 1 (0) or as if it were 2 (-2)
    with pytest.raises(ValueError, match="record_every must be >= 1"):
        CommitteeConfig(mu=(0.5,), rank=1, record_every=record_every)


def test_reduced_flow_escapes_at_the_linear_rate():
    for rank in (1, 2):
        cfg = single_adapted(rank)
        traj = integrate_committee(
            cfg, committee_reduced_init(cfg), dt=0.05, t_max=80.0, record_every=2
        )
        rho = aggregate_overlap(cfg, traj.m).max(axis=1)
        lam = committee_linear_rates(cfg).lambda_plus[0]
        # fit after the decaying mode has died, before saturation bends the curve
        win = (rho > 0.06) & (rho < 0.2)
        assert win.sum() > 50
        slope = np.polyfit(traj.t[win], np.log(rho[win]), 1)[0]
        assert abs(slope - lam) / lam < 0.03


def test_coupling_term_is_inert_at_rank_one():
    cfg = single_adapted(1)
    st = committee_reduced_init(cfg)
    coupled = integrate_committee(cfg, st, dt=0.05, t_max=80.0, include_coupling=True)
    free = integrate_committee(cfg, st, dt=0.05, t_max=80.0, include_coupling=False)
    np.testing.assert_array_equal(coupled.m, free.m)
    np.testing.assert_array_equal(coupled.u, free.u)


def test_coupling_negligible_before_escape_at_higher_rank():
    cfg = single_adapted(2)
    st = committee_reduced_init(cfg)
    coupled = integrate_committee(cfg, st, dt=0.05, t_max=80.0)
    free = integrate_committee(cfg, st, dt=0.05, t_max=80.0, include_coupling=False)
    early = aggregate_overlap(cfg, coupled.m).max(axis=1) < 0.2
    assert early.sum() > 300
    assert np.max(np.abs(coupled.m[early] - free.m[early])) < 0.01


def test_reduced_flow_loss_decreases():
    cfg = single_adapted(2)
    coupled = integrate_committee(cfg, committee_reduced_init(cfg), dt=0.05, t_max=80.0)
    assert coupled.loss[-1] < coupled.loss[0]
    # rank > 1 shows tiny transient upticks from the cross-adapter term
    assert np.max(np.diff(coupled.loss)) < 1e-5
    free = integrate_committee(
        cfg, committee_reduced_init(cfg), dt=0.05, t_max=80.0, include_coupling=False
    )
    assert np.all(np.diff(free.loss) <= 1e-12)
    # two adapted directions: the frozen-Gram reduced model is a search-phase
    # description, so only the decrease is asserted, not the terminal value
    two = CommitteeConfig(mu=(0.3, 0.7, 1.0, 1.0), rank=2, d=1000)
    t2 = integrate_committee(two, committee_reduced_init(two), dt=0.05, t_max=120.0)
    assert t2.loss[-1] < 0.5 * t2.loss[0]
    assert np.max(np.diff(t2.loss)) < 1e-5


def test_sgd_tracks_reduced_flow():
    # seed-averaged adapted-direction overlaps follow the reduced flow; the
    # bound absorbs escape-front timing jitter at d=1000
    cfg = single_adapted(
        2, batch_size=500, learning_rate=0.05, n_steps=6000, record_every=20
    )
    runs = [committee_sgd(replace(cfg, seed=s)) for s in (0, 1, 2)]
    t_flow = runs[0].t_epoch * 2.0 * cfg.learning_rate
    ode = integrate_committee(
        cfg, committee_reduced_init(cfg), dt=0.01, t_max=float(t_flow[-1]) + 0.1
    )
    ref = np.stack(
        [np.interp(t_flow, ode.t, ode.m[:, 0, j]) for j in range(cfg.rank)], axis=1
    )
    mean_m = np.mean([r.m[:, 0, :] for r in runs], axis=0)
    assert float(np.max(np.abs(mean_m - ref))) < 0.05
    # frozen-direction overlaps stay at finite-size noise level
    assert max(float(np.max(np.abs(r.m[:, 1:, :]))) for r in runs) < 0.02


def test_sgd_bookkeeping_and_init():
    cfg = single_adapted(2, batch_size=500, learning_rate=0.1, n_steps=3000,
                         record_every=10)
    res = committee_sgd(cfg)
    v = 1.0 / math.sqrt(cfg.d)
    np.testing.assert_allclose(res.init_m[0], v, atol=1e-12)
    np.testing.assert_allclose(res.init_m[1:], 0.0, atol=1e-12)
    assert res.onset_step is not None
    k = int(np.searchsorted(res.t_epoch, res.onset_step))
    assert np.max(np.abs(res.rho[k])) >= cfg.onset_threshold - 0.05
    assert np.max(np.abs(res.rho[: max(k - 5, 1)])) < cfg.onset_threshold
    # frozen directions carry m_eff = 1 exactly; adapted ones approach it
    np.testing.assert_allclose(res.m_eff[:, 1:], 1.0, atol=5e-3)
    assert res.m_eff[-1, 0] == pytest.approx(1.0, abs=0.02)
    assert res.final_q.shape == (2, 2)
    np.testing.assert_allclose(res.final_q, res.final_q.T, atol=1e-12)
    assert res.test_mse[0] > res.test_mse[-1]
    assert res.test_mse[-1] < 1e-3


def test_all_frozen_committee_is_inert():
    cfg = CommitteeConfig(mu=(1.0, 1.0, 1.0), rank=2, d=500, n_steps=200)
    assert cfg.adapted == ()
    assert committee_loss(cfg, committee_reduced_init(cfg)) == 0.0
    res = committee_sgd(cfg)
    np.testing.assert_array_equal(res.u, 0.0)
    np.testing.assert_array_equal(res.test_mse, 0.0)
    np.testing.assert_array_equal(res.rho, 0.0)
    assert res.onset_step is None


def test_rank_does_not_change_final_error():
    # the learnable residual is rank one, so a single adapter suffices:
    # extra rank must not improve (or hurt) the final fit
    final = {}
    for rank in (1, 2):
        cfg = CommitteeConfig(mu=(0.3, 0.7, 1.0, 1.0), rank=rank, d=1000,
                              batch_size=500, learning_rate=0.1, n_steps=6000,
                              record_every=50)
        res = committee_sgd(cfg)
        assert res.onset_step is not None
        final[rank] = res.test_mse[-1]
    assert abs(final[1]) < 1e-8
    assert abs(final[2]) < 1e-8


def test_aggregate_overlap_arithmetic():
    cfg = CommitteeConfig(mu=(0.5, 0.5, 1.0), rank=2, d=100)
    m = np.zeros((3, 2))
    m[0, 0], m[1, 0], m[2, 0] = 0.3, 0.5, 9.9  # frozen row must be ignored
    got = aggregate_overlap(cfg, m)
    assert got[0] == pytest.approx(0.8 / math.sqrt(2.0), rel=1e-12)
    assert got[1] == 0.0
    frozen = CommitteeConfig(mu=(1.0, 1.0), rank=3, d=100)
    np.testing.assert_array_equal(
        aggregate_overlap(frozen, np.ones((2, 3))), np.zeros(3)
    )


def test_sgd_divergence_raises_blowup():
    cfg = CommitteeConfig(mu=(0.5, 1.0, 1.0, 1.0), rank=2, d=100, batch_size=50,
                          learning_rate=50.0, n_steps=200)
    with pytest.raises(NumericalBlowupError):
        committee_sgd(cfg)


def test_config_rejects_seeds_outside_uint64():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            CommitteeConfig(mu=(0.5,), rank=1, seed=seed)
    CommitteeConfig(mu=(0.5,), rank=1, seed=2**64 - 1)


def test_reduced_flow_divergence_raises_blowup():
    cfg = CommitteeConfig(mu=(0.5, 1.0, 1.0), rank=2)
    with np.errstate(all="ignore"), pytest.raises(NumericalBlowupError):
        integrate_committee(cfg, committee_reduced_init(cfg), dt=20.0, t_max=400.0)
