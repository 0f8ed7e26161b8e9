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


@pytest.mark.parametrize("dt, t_max", [(10.0, 1.0), (math.inf, 1.0)])
def test_a_flow_of_no_step_is_a_value_error(dt, t_max):
    # t_max / dt rounds to 0: a run would silently return only t = 0
    cfg = ModelConfig(teacher=LINEAR, student=LINEAR, mu=0.5, k_max=2)
    with pytest.raises(ValueError, match="at least 1"):
        FlowSettings(dt=dt, t_max=t_max)
    with pytest.raises(ValueError, match="at least 1"):
        integrate_flow(cfg, OrderParameterState(1e-3, 1e-3), _unchecked_settings(dt=dt, t_max=t_max))
    with pytest.raises(ValueError, match="at least 1"):
        oscillator_trajectory(linearize_search_phase(cubic_config()), g0=0.1, dt=dt, t_max=t_max)


@pytest.mark.parametrize("dt, t_max", [(-0.1, 1.0), (0.1, -1.0), (-0.1, -1.0), (math.nan, 1.0)])
def test_a_non_positive_step_or_horizon_is_refused(dt, t_max):
    # (-0.1, -1.0) has a positive step count: it would run the flow backwards
    cfg = ModelConfig(teacher=LINEAR, student=LINEAR, mu=0.5, k_max=2)
    with pytest.raises(ValueError, match="must be positive"):
        FlowSettings(dt=dt, t_max=t_max)
    with pytest.raises(ValueError, match="must be positive"):
        integrate_flow(cfg, OrderParameterState(1e-3, 1e-3),
                       _unchecked_settings(dt=dt, t_max=t_max))
    with pytest.raises(ValueError, match="must be positive"):
        oscillator_trajectory(linearize_search_phase(cubic_config()), g0=0.1, dt=dt, t_max=t_max)


@pytest.mark.parametrize("exit_fraction", [math.nan, math.inf])
def test_a_non_finite_exit_fraction_is_refused(exit_fraction):
    # a NaN or infinite threshold is never crossed, so the flow would never exit
    with pytest.raises(ValueError, match="exit_fraction"):
        FlowSettings(exit_fraction=exit_fraction)


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
    state = OrderParameterState(1e-3, 1e-3)
    settings = FlowSettings(dt=0.02, t_max=400.0, record_every=5)
    rec = integrate_flow(cfg, state, settings)
    assert abs(abs(rec.m_eff[-1]) - 1.0) < 1e-6
    assert abs(rec.loss[-1]) < 1e-9
    # the same bits, and the same clip count, as array_step on the 2-vector
    assert_same_record(rec, vector_flow(cfg, state, settings))


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


def test_linearized_flow_without_coupling_and_from_past_the_threshold():
    lp, lm = drift_eigenvalues(0.0, -1.0)
    lin = SearchPhaseLinearization(
        A=0.0, B=-1.0, lambda_plus=lp, lambda_minus=lm, tau=math.inf, converged=True
    )
    t = np.linspace(0.0, 5.0, 11)
    # A = 0: u decays at rate B and m stays where it started
    traj = integrate_linearized(lin, 0.2, 0.1, t, mu=0.5)
    np.testing.assert_allclose(traj.u, 0.2 * np.exp(-t), rtol=1e-15)
    np.testing.assert_array_equal(traj.m, 0.1)
    assert traj.t_exit is None
    # a start already past mu exits at the first time of the grid
    assert integrate_linearized(lin, 0.2, 0.6, t[3:], mu=0.5).t_exit == t[3]


def test_oscillator_blowup_is_reported():
    lp, lm = drift_eigenvalues(1.0, 5.0)
    lin = SearchPhaseLinearization(
        A=1.0, B=5.0, lambda_plus=lp, lambda_minus=lm, tau=1.0 / lp, converged=True
    )
    # g' grows like e^{5 t}, past BLOWUP_LIMIT well before t_max
    with pytest.raises(NumericalBlowupError, match="oscillator diverged"):
        oscillator_trajectory(lin, g0=0.1, dt=0.01, t_max=10.0)


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
    # (u, m)' = A (u, m) from (1, 0.5) over [0, 2]: halving dt divides the
    # error by 2**order
    A = np.array([[-0.5, 1.0], [-1.0, -0.2]])
    exact = expm(2.0 * A) @ np.array([1.0, 0.5])

    def rhs(u, m):
        return A[0, 0] * u + A[0, 1] * m, A[1, 0] * u + A[1, 1] * m

    def error(h):
        u, m = 1.0, 0.5
        for _ in range(int(round(2.0 / h))):
            u, m = fixed_step(rhs, u, m, h, method)
        return math.hypot(u - exact[0], m - exact[1])

    ratio = error(dt) / error(dt / 2)
    assert ratio == pytest.approx(2.0**order, rel=0.05)


def test_nonfinite_stage_is_a_blowup():
    from searchphase.ode import _flow_stage

    cfg = ModelConfig(teacher=LINEAR, student=LINEAR, mu=0.3, k_max=2)
    for u, m in ([math.nan, 0.1], [0.1, math.nan], [math.inf, 0.1], [0.1, -math.inf]):
        with pytest.raises(NumericalBlowupError):
            _flow_stage(cfg, u, m)


@pytest.mark.parametrize("act", [LINEAR, builtin("hermite2")])
def test_stage_whose_variance_overflows_is_a_blowup(act):
    # m = 1 stays in the band, but the stages of so large a step put u near
    # 1e154, where u^2, and so r, is infinite
    cfg = ModelConfig(teacher=act, student=act, mu=0.3, k_max=25)
    with pytest.raises(NumericalBlowupError, match=r"\|u\| <= 1e\+06"):
        integrate_flow(cfg, OrderParameterState(1e5, 1.0), FlowSettings(dt=1e150, t_max=1e150))


def array_step(f, y, dt, method="rk4"):
    """The reference for fixed_step's pair form: one step of y' = f(y) by
    explicit Euler or classical RK4, y an ndarray of any shape and f
    returning one of the same shape."""
    k1 = f(y)
    if method == "euler":
        return y + dt * k1
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def vector_flow(cfg, state0, settings):
    """The reference flow: integrate_flow's loop on array_step, each RK4
    stage an array (u, m), each step clipped and recorded as integrate_flow
    does."""
    from searchphase.ode import BLOWUP_LIMIT, TrajectoryRecord, _crossing_time
    from searchphase.theory import M_BAND, population_loss

    def rhs(y):
        u, m = y.tolist()
        if not abs(m) <= M_BAND:
            raise NumericalBlowupError(f"a flow stage left |m| <= 1 (m={m:.6g})")
        if not abs(u) <= BLOWUP_LIMIT:
            raise NumericalBlowupError(f"a flow stage left |u| <= {BLOWUP_LIMIT:g} (u={u:.6g})")
        du, dm = cfg.series.loss_gradients(u, m)
        return np.array([-cfg.delta * du, -cfg.delta * (1.0 - m * m) * dm])

    dt, mu = settings.dt, cfg.mu
    n_steps = int(round(settings.t_max / dt))
    threshold = settings.exit_fraction * mu
    u, m = float(state0.u), float(state0.m)
    prev_gap = max(abs(u), abs(m)) - threshold
    t_exit = 0.0 if prev_gap >= 0.0 else None
    clips, rows = 0, []

    def record(t, u, m):
        s = OrderParameterState(u, m)
        rows.append((t, u, m, s.m_eff(mu), s.r(mu), population_loss(cfg, s)))

    record(0.0, u, m)
    for step in range(1, n_steps + 1):
        u_new, m_new = array_step(rhs, np.array([u, m]), dt, settings.method).tolist()
        if not (math.isfinite(u_new) and math.isfinite(m_new)) or abs(u_new) > BLOWUP_LIMIT:
            raise NumericalBlowupError(f"flow diverged at t={step * dt:.6g}")
        clipped = min(1.0, max(-1.0, m_new))
        clips += clipped != m_new
        m_new = clipped
        t = step * dt
        gap = max(abs(u_new), abs(m_new)) - threshold
        if t_exit is None and gap >= 0.0:
            t_exit = _crossing_time(t - dt, dt, prev_gap, gap)
        prev_gap, u, m = gap, u_new, m_new
        if step % settings.record_every == 0 or step == n_steps:
            record(t, u, m)
        if settings.stop_at_exit and t_exit is not None:
            break
    return TrajectoryRecord(*map(np.array, zip(*rows)), t_exit=t_exit, exited=t_exit is not None,
                            m_clips=clips)


def assert_same_record(got, want):
    for name in ("t", "u", "m", "m_eff", "r", "loss"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.t_exit, got.exited, got.m_clips) == (want.t_exit, want.exited, want.m_clips)


# each flow escapes well inside t_max = 40 from (x0, x0)
_ORACLE_FLOWS = [
    ("linear", 2, 0.3, 0.02),
    ("hermite2", 25, 0.3, 0.02),
    ("hermite3", 25, 0.7, 0.02),
    ("erf", 40, 0.3, 0.02),
    pytest.param("relu", 25, 0.3, 0.02, marks=pytest.mark.filterwarnings(
        "ignore::searchphase.theory.SeriesConvergenceWarning")),
]


@pytest.mark.parametrize("name, k_max, mu, x0", _ORACLE_FLOWS)
@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("stop_at_exit", [False, True])
def test_scalar_flow_keeps_every_bit_of_the_vector_flow(name, k_max, mu, x0, method,
                                                         record_every, stop_at_exit):
    act = builtin(name)
    cfg = ModelConfig(teacher=act, student=act, mu=mu, k_max=k_max)
    state = OrderParameterState(x0, x0)
    settings = FlowSettings(dt=0.05, t_max=40.0, method=method, record_every=record_every,
                            stop_at_exit=stop_at_exit)
    rec = integrate_flow(cfg, state, settings)
    assert rec.exited and rec.m_clips == 0  # a search-phase flow never needs clipping
    assert_same_record(rec, vector_flow(cfg, state, settings))


def test_clipped_steps_are_counted():
    # Euler steps this long overshoot m = 1 once, and clipping holds m there
    cfg = ModelConfig(teacher=LINEAR, student=LINEAR, mu=0.3, k_max=2)
    state = OrderParameterState(1e-3, 1e-3)
    settings = FlowSettings(dt=2.0, t_max=1000.0, method="euler")
    rec = integrate_flow(cfg, state, settings)
    assert rec.m_clips == 1 and rec.m[-1] == 1.0
    assert_same_record(rec, vector_flow(cfg, state, settings))


def _plain_gradient_sums(ser, u, m):
    # gradient_sums as four 1-D expressions, each summed on its own
    mu = ser.mu
    r = mu * mu + u * u + 2.0 * mu * u * m
    sh, sbh = ser.coefficients(r)
    me_pow = (mu + u * m) ** ser.ks
    c1 = float(np.add.reduce(ser.inv_fact * sh * sbh * r**ser.ks_m1))
    sa = float(np.add.reduce(ser.lead_k * me_pow[:-1] * sh[1:]))
    sb = float(np.add.reduce(ser.lead_k * me_pow[1:] * sh[1:] / r))
    sc = float(np.add.reduce(ser.lead_0 * me_pow * sbh / r))
    return c1, sa, sb, sc


@pytest.mark.parametrize("name, k_max", [("linear", 2), ("linear", 40), ("hermite2", 25),
                                         ("hermite5", 9), ("erf", 40), ("relu", 25),
                                         ("sigmoid", 60)])
def test_gradient_sums_are_the_plain_sums_bit_for_bit(name, k_max):
    act = builtin(name)
    rng = np.random.default_rng(20)
    for mu in (0.1, 0.3, 0.7, 0.95):
        ser = ModelConfig(teacher=act, student=act, mu=mu, k_max=k_max).series
        for u, m in zip(rng.uniform(-1.2, 1.2, 50), rng.uniform(-1.0, 1.0, 50)):
            u, m = float(u), float(m)
            if mu * mu + u * u + 2.0 * mu * u * m < 1e-3:
                continue  # near the variance floor quadrature series are 0/0
            assert ser.gradient_sums(u, m) == _plain_gradient_sums(ser, u, m), (mu, u, m)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("coupled", [True, False])
def test_committee_flow_steps_as_the_array_integrator_on_the_stacked_state(rank, coupled):
    # the pair (U, M) through fixed_step, against array_step on the stacked
    # (2, K, R) state with the rhs stacked alike
    from searchphase.committee import (CommitteeConfig, _committee_rhs, committee_reduced_init,
                                       integrate_committee)

    cfg = CommitteeConfig(mu=(0.3, 0.6, 1.0), rank=rank, d=400)
    state0 = committee_reduced_init(cfg)
    dt, t_max, every = 0.05, 30.0, 7

    def stacked_rhs(y):
        return np.array(_committee_rhs(cfg, state0.q, coupled)(*y))

    traj = integrate_committee(cfg, state0, dt, t_max, coupled, every)
    y = np.array([state0.u, state0.m])
    us, ms = [y[0]], [y[1]]
    n_steps = int(round(t_max / dt))
    for i in range(1, n_steps + 1):
        u, m = array_step(stacked_rhs, y, dt)
        y = np.array([u, np.clip(m, -1.0, 1.0)])
        if i % every == 0 or i == n_steps:
            us.append(y[0])
            ms.append(y[1])
    assert np.array_equal(traj.u, np.array(us)) and np.array_equal(traj.m, np.array(ms))
    assert np.max(np.abs(traj.m[-1])) > 10 * np.max(np.abs(traj.m[0]))  # the flow escaped


@pytest.mark.parametrize("lin, g0, v0", [
    (linearize_search_phase(cubic_config()), 0.05, 0.0),
    (SearchPhaseLinearization(0.3, -1.2, *drift_eigenvalues(0.3, -1.2), tau=math.inf), -0.4, 0.2),
    (SearchPhaseLinearization(1.1, 0.1, *drift_eigenvalues(1.1, 0.1), tau=math.inf), 0.01, -0.05),
])
def test_oscillator_steps_as_the_array_integrator_on_the_stacked_state(lin, g0, v0):
    # the pair of floats (g, g') through fixed_step, against array_step on
    # the 2-vector (g, g') with the rhs stacked alike
    A, B = lin.A, lin.B
    dt, t_max = 0.01, 20.0
    rec = oscillator_trajectory(lin, g0, v0, dt=dt, t_max=t_max)

    def stacked_rhs(y):
        g, v = y
        return np.array([v, B * v + A * A * np.tanh(g)])

    gv = [np.array([g0, v0])]
    for _ in range(int(round(t_max / dt))):
        gv.append(array_step(stacked_rhs, gv[-1], dt))
    g, v = np.array(gv).T
    assert np.array_equal(rec.g, g) and np.array_equal(rec.velocity, v)
