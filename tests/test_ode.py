"""Reduced-order flow integration, linearized comparison, descent checks."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from searchphase.activations import builtin
from searchphase.ode import (
    FlowSettings,
    NumericalBlowupError,
    fixed_step,
    integrate_flow,
    integrate_linearized,
    oscillator_trajectory,
    verify_descent,
)
from searchphase.theory import (
    ModelConfig,
    OrderParameterState,
    SearchPhaseLinearization,
    drift_eigenvalues,
    linearize_search_phase,
)

HE3 = builtin("hermite(3)")
HE4 = builtin("hermite(4)")
LINEAR = builtin("linear")
ERF = builtin("erf")


def cubic_config(mu=0.2):
    return ModelConfig(teacher=HE3, student=HE3, mu=mu)


def test_flow_settings_validation():
    with pytest.raises(ValueError):
        FlowSettings(dt=0.0)
    with pytest.raises(ValueError):
        FlowSettings(t_max=-1.0)
    with pytest.raises(ValueError):
        FlowSettings(method="rk45")
    with pytest.raises(ValueError):
        FlowSettings(exit_fraction=0.0)
    with pytest.raises(ValueError):
        FlowSettings(record_every=0)


def _unchecked_settings(**fields):
    settings = FlowSettings()
    for name, value in fields.items():
        object.__setattr__(settings, name, value)
    return settings


@pytest.mark.parametrize("entry", ["FlowSettings", "integrate_flow", "oscillator_trajectory"])
def test_overflowing_step_count_is_a_value_error(entry):
    # t_max / dt overflows to inf: bad input, not an OverflowError
    bad = dict(dt=1e-9, t_max=1e300)
    with pytest.raises(ValueError, match="finite number of steps"):
        if entry == "FlowSettings":
            FlowSettings(**bad)
        elif entry == "integrate_flow":
            cfg = ModelConfig(teacher=LINEAR, student=LINEAR, mu=0.5, k_max=2)
            integrate_flow(cfg, OrderParameterState(1e-3, 1e-3), _unchecked_settings(**bad))
        else:
            oscillator_trajectory(linearize_search_phase(cubic_config()), g0=0.1, **bad)


def test_exit_time_stable_under_step_halving():
    cfg = cubic_config()
    x0 = 1.0 / math.sqrt(1000.0)
    state = OrderParameterState(x0, x0)
    coarse = integrate_flow(
        cfg, state, FlowSettings(dt=0.01, t_max=600.0, record_every=10, stop_at_exit=True)
    )
    fine = integrate_flow(
        cfg, state, FlowSettings(dt=0.005, t_max=600.0, record_every=20, stop_at_exit=True)
    )
    assert coarse.exited and fine.exited
    assert coarse.t_exit == pytest.approx(414.805, rel=1e-4)
    assert abs(coarse.t_exit - fine.t_exit) <= 1e-3 * fine.t_exit


def test_no_exit_within_short_horizon():
    cfg = cubic_config()
    rec = integrate_flow(
        cfg, OrderParameterState(1e-4, 1e-4), FlowSettings(dt=0.01, t_max=5.0)
    )
    assert not rec.exited
    assert rec.t_exit is None


def test_long_horizon_reaches_full_alignment():
    cfg = ModelConfig(teacher=ERF, student=ERF, mu=0.3, k_max=40)
    rec = integrate_flow(
        cfg,
        OrderParameterState(1e-3, 1e-3),
        FlowSettings(dt=0.02, t_max=400.0, record_every=5),
    )
    assert abs(abs(rec.m_eff[-1]) - 1.0) < 1e-6
    assert abs(rec.loss[-1]) < 1e-9


def test_even_teacher_flow_terminates_at_fixed_point():
    cfg = ModelConfig(teacher=HE4, student=HE4, mu=0.1)
    rec = integrate_flow(
        cfg,
        OrderParameterState(1e-3, 1e-3),
        FlowSettings(dt=0.01, t_max=300.0, record_every=5),
    )
    assert rec.exited
    assert rec.m[-1] == pytest.approx(1.0, abs=1e-9)
    assert rec.m_eff[-1] == pytest.approx(1.0, abs=1e-9)
    # the end state is stationary: both coordinates have stopped moving
    assert abs(rec.u[-1] - rec.u[-2]) < 1e-10
    assert abs(rec.m[-1] - rec.m[-2]) < 1e-10


def test_loss_is_a_lyapunov_function():
    for cfg, settings in (
        (cubic_config(), FlowSettings(dt=0.01, t_max=500.0, record_every=5)),
        (
            ModelConfig(teacher=HE4, student=HE4, mu=0.1),
            FlowSettings(dt=0.01, t_max=300.0, record_every=5),
        ),
    ):
        rec = integrate_flow(cfg, OrderParameterState(1e-3, 1e-3), settings)
        inc = np.diff(rec.loss)
        bound = 1e-8 * (1.0 + np.abs(rec.loss[:-1]))
        assert np.all(inc <= bound)


def test_linearized_flow_matches_full_flow_in_search_region():
    cfg = cubic_config()
    lin = linearize_search_phase(cfg)
    rec = integrate_flow(
        cfg, OrderParameterState(1e-4, 1e-4), FlowSettings(dt=0.01, t_max=600.0)
    )
    traj = integrate_linearized(lin, 1e-4, 1e-4, rec.t, mu=cfg.mu)
    inside = np.maximum(np.abs(rec.u), np.abs(rec.m)) <= 0.05 * cfg.mu
    assert inside.sum() > 1000
    rel_u = np.abs(rec.u[inside] - traj.u[inside]) / np.maximum(np.abs(traj.u[inside]), 1e-15)
    rel_m = np.abs(rec.m[inside] - traj.m[inside]) / np.maximum(np.abs(traj.m[inside]), 1e-15)
    assert rel_u.max() < 1e-3
    assert rel_m.max() < 1e-3


def test_linearized_exit_time_interpolation():
    lp, lm = drift_eigenvalues(1.0, -1.0)
    lin = SearchPhaseLinearization(
        A=1.0, B=-1.0, lambda_plus=lp, lambda_minus=lm, tau=1.0 / lp, converged=True
    )
    t = np.linspace(0.0, 40.0, 4001)
    traj = integrate_linearized(lin, 1e-4, 1e-4, t, mu=0.5)
    assert traj.t_exit is not None
    # the growing mode dominates: crossing time ~ log(threshold/c)/lambda_plus
    i = int(np.searchsorted(t, traj.t_exit))
    below = max(abs(traj.u[i - 1]), abs(traj.m[i - 1]))
    above = max(abs(traj.u[i]), abs(traj.m[i]))
    assert below < 0.5 <= above + 1e-9


def test_blowup_detected_and_reported():
    cfg = ModelConfig(teacher=HE4, student=HE4, mu=0.1)
    with pytest.raises(NumericalBlowupError):
        integrate_flow(
            cfg,
            OrderParameterState(0.5, 0.5),
            FlowSettings(dt=50.0, t_max=5000.0, method="euler"),
        )


@pytest.mark.parametrize("act, dt", [
    (LINEAR, 50.0),
    # erf's series tail is above tolerance at the out-of-band stage states
    pytest.param(ERF, 30.0, marks=pytest.mark.filterwarnings(
        "ignore::searchphase.theory.SeriesConvergenceWarning")),
])
def test_stage_leaving_the_band_is_a_blowup(act, dt):
    # the first RK4 stages of so large a step put m far outside [-1, 1]
    cfg = ModelConfig(teacher=act, student=act, mu=0.3, k_max=25)
    with pytest.raises(NumericalBlowupError, match=r"\|m\| <= 1"):
        integrate_flow(cfg, OrderParameterState(1e-3, 1e-3), FlowSettings(dt=dt, t_max=1000.0))


def test_descent_report_on_clean_run():
    cfg = ModelConfig(teacher=LINEAR, student=LINEAR, mu=0.3, k_max=2)
    rec = integrate_flow(
        cfg,
        OrderParameterState(1e-3, 1e-3),
        FlowSettings(dt=0.01, t_max=60.0, record_every=5),
    )
    rep = verify_descent(rec)
    assert rep.n_fit_points >= 3
    assert rep.r_squared >= 0.99
    assert rep.sign_constant
    assert rep.loss_monotone
    assert rep.terminal_m_eff_gap < 1e-3
    assert rep.rate > 0.0


def test_descent_report_without_alignment_is_nan():
    rec = integrate_flow(
        cubic_config(), OrderParameterState(1e-4, 1e-4), FlowSettings(dt=0.01, t_max=5.0)
    )
    rep = verify_descent(rec)
    assert rep.n_fit_points == 0
    assert math.isnan(rep.rate)
    assert math.isnan(rep.r_squared)


def test_oscillator_energy_dissipates_for_negative_damping():
    lin = linearize_search_phase(cubic_config())
    assert lin.B < 0.0
    osc = oscillator_trajectory(lin, g0=1e-2, v0=0.0, dt=0.01, t_max=50.0)
    assert np.all(np.diff(osc.energy) <= 1e-12)


def test_oscillator_escapes_monotonically():
    lp, lm = drift_eigenvalues(1.0, -1.0)
    lin = SearchPhaseLinearization(
        A=1.0, B=-1.0, lambda_plus=lp, lambda_minus=lm, tau=1.0 / lp, converged=True
    )
    osc = oscillator_trajectory(lin, g0=0.1, v0=0.0, dt=0.01, t_max=30.0)
    assert np.all(np.diff(osc.g) > 0.0)
    np.testing.assert_allclose(osc.m, np.tanh(osc.g), atol=1e-12)


def test_oscillator_reduces_to_linearized_alignment_at_small_amplitude():
    lin = linearize_search_phase(cubic_config())
    u0 = m0 = 1e-4
    osc = oscillator_trajectory(lin, g0=m0, v0=lin.A * u0, dt=0.01, t_max=400.0)
    traj = integrate_linearized(lin, u0, m0, osc.t)
    small = np.abs(osc.g) < 0.05
    assert small.all()
    rel = np.abs(osc.g - traj.m) / np.maximum(np.abs(traj.m), 1e-12)
    assert rel.max() < 1e-3


def test_record_thinning_preserves_grid():
    cfg = ModelConfig(teacher=LINEAR, student=LINEAR, mu=0.5, k_max=2)
    rec = integrate_flow(
        cfg,
        OrderParameterState(1e-3, 1e-3),
        FlowSettings(dt=0.01, t_max=10.0, record_every=7),
    )
    assert rec.t[0] == 0.0
    np.testing.assert_allclose(np.diff(rec.t)[:-1], 0.07, atol=1e-12)
    for arr in (rec.u, rec.m, rec.m_eff, rec.r, rec.loss):
        assert arr.shape == rec.t.shape


@pytest.mark.parametrize("method, dt, order", [("rk4", 0.1, 4), ("euler", 0.005, 1)])
def test_fixed_step_order_against_matrix_exponential(method, dt, order):
    # y' = A y from y0 over [0, 2]: halving dt divides the error by 2**order
    A = np.array([[-0.5, 1.0], [-1.0, -0.2]])
    y0 = np.array([1.0, 0.5])
    exact = expm(2.0 * A) @ y0

    def error(h):
        y = y0
        for _ in range(int(round(2.0 / h))):
            y = fixed_step(lambda v: A @ v, y, h, method)
        return np.linalg.norm(y - exact)

    ratio = error(dt) / error(dt / 2)
    assert ratio == pytest.approx(2.0**order, rel=0.05)


def test_nonfinite_stage_is_a_blowup():
    from searchphase.ode import _flow_rhs

    cfg = ModelConfig(teacher=LINEAR, student=LINEAR, mu=0.3, k_max=2)
    for y in ([math.nan, 0.1], [0.1, math.nan], [math.inf, 0.1], [0.1, -math.inf]):
        with pytest.raises(NumericalBlowupError):
            _flow_rhs(cfg, np.array(y))


@pytest.mark.parametrize("act", [LINEAR, builtin("hermite2")])
def test_stage_whose_variance_overflows_is_a_blowup(act):
    # m = 1 stays in the band, but the stages of so large a step put u near
    # 1e154, where u^2, and so r, is infinite
    cfg = ModelConfig(teacher=act, student=act, mu=0.3, k_max=25)
    with pytest.raises(NumericalBlowupError, match=r"\|u\| <= 1e\+06"):
        integrate_flow(cfg, OrderParameterState(1e5, 1.0), FlowSettings(dt=1e150, t_max=1e150))
