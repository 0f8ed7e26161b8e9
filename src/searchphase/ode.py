"""Deterministic reduced-order flows for the two order parameters.

The full flow integrates

    du/dt = -delta * dL/du
    dm/dt = -delta * (1 - m^2) * dL/dm

with L the population loss of a ModelConfig (the (1 - m^2) factor is the
spherical constraint on the trainable direction, delta the config's time
rescaling), next to its linearization and its late-phase oscillator form.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .theory import (
    M_BAND,
    ModelConfig,
    OrderParameterState,
    SearchPhaseLinearization,
    effective_potential,
    population_loss,
)

# state magnitudes beyond this abort the integration as a blow-up
BLOWUP_LIMIT = 1e6


class NumericalBlowupError(RuntimeError):
    """The flow left the representable region (bad step size or bad state)."""


def _n_steps(t_max: float, dt: float) -> int:
    """Number of fixed steps of size dt to t_max; ValueError when dt or t_max
    is not positive, or t_max / dt is not a finite number or rounds to no
    step at all."""
    if not (dt > 0 and t_max > 0):
        raise ValueError("dt and t_max must be positive")
    n = t_max / dt
    if not math.isfinite(n) or round(n) < 1:
        raise ValueError("t_max / dt must be a finite number of steps, at least 1")
    return int(round(n))


@dataclass(frozen=True)
class FlowSettings:
    """Integration controls for integrate_flow.

    exit_fraction sets the escape threshold: the first time
    max(|u|, |m|) >= exit_fraction * mu is reported as t_exit.
    stop_at_exit ends the run there instead of continuing to t_max.
    """

    dt: float = 0.01
    t_max: float = 1e3
    exit_fraction: float = 1.0
    method: str = "rk4"
    record_every: int = 1
    stop_at_exit: bool = False

    def __post_init__(self):
        _n_steps(self.t_max, self.dt)
        if not (0.0 < self.exit_fraction < math.inf):
            raise ValueError("exit_fraction must be positive and finite")
        if self.method not in ("rk4", "euler"):
            raise ValueError("method must be 'rk4' or 'euler'")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Sampled flow trajectory with derived observables.

    t_exit is the (linearly interpolated) first crossing of the escape
    threshold, or None if the trajectory never crossed it.  m_clips counts
    the steps on which clipping m to [-1, 1] changed it.
    """

    t: np.ndarray
    u: np.ndarray
    m: np.ndarray
    m_eff: np.ndarray
    r: np.ndarray
    loss: np.ndarray
    t_exit: float | None
    exited: bool
    m_clips: int


def fixed_step(f: Callable, u, m, dt: float, method: str = "rk4") -> tuple:
    """One step of the pair (u, m)' = f(u, m) by explicit Euler or classical
    RK4; u and m are floats or arrays of one shape, and f returns a pair of
    the same kind.  It is the package's one integrator, and a pair of floats
    (integrate_flow's) builds no array per stage."""
    a1, b1 = f(u, m)
    if method == "euler":
        return u + dt * a1, m + dt * b1
    h = 0.5 * dt
    a2, b2 = f(u + h * a1, m + h * b1)
    a3, b3 = f(u + h * a2, m + h * b2)
    a4, b4 = f(u + dt * a3, m + dt * b3)
    return (u + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            m + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4))


def _crossing_time(t0: float, width: float, g0: float, g1: float) -> float:
    """Linear interpolation of a threshold crossing inside [t0, t0 + width],
    from the gaps g0 < 0 <= g1 to the threshold at its ends."""
    frac = g0 / (g0 - g1) if g1 != g0 else 1.0
    return float(t0 + min(1.0, max(0.0, frac)) * width)


def _flow_stage(cfg: ModelConfig, u: float, m: float) -> tuple[float, float]:
    # an RK4 stage of too large a step can leave the band or the representable
    # region; the negated comparisons also catch a NaN
    if not abs(m) <= M_BAND:
        raise NumericalBlowupError(f"a flow stage left |m| <= 1 (m={m:.6g})")
    if not abs(u) <= BLOWUP_LIMIT:
        raise NumericalBlowupError(f"a flow stage left |u| <= {BLOWUP_LIMIT:g} (u={u:.6g})")
    du, dm = cfg.series.loss_gradients(u, m)
    return -cfg.delta * du, -cfg.delta * (1.0 - m * m) * dm


def integrate_flow(
    cfg: ModelConfig,
    state0: OrderParameterState,
    settings: FlowSettings = FlowSettings(),
) -> TrajectoryRecord:
    """Integrate the full gradient flow from state0.

    Fixed-step RK4 (or explicit Euler) by fixed_step on the two floats u
    and m, recording t = 0, every record_every-th step and the step that
    reaches t_max.  m is clipped to [-1, 1] after each step: the (1 - m^2)
    factor makes the band invariant exactly, clipping only removes rounding
    excursions, and the record counts the steps whose m it changed.  Raises
    NumericalBlowupError when the state, or the state of an RK4 stage,
    leaves the representable region (|u| beyond BLOWUP_LIMIT, |m| beyond 1,
    or not finite).
    """
    dt = settings.dt
    stage = partial(_flow_stage, cfg)
    n_steps = _n_steps(settings.t_max, dt)
    mu = cfg.mu
    threshold = settings.exit_fraction * mu
    u, m = float(state0.u), float(state0.m)
    t_exit: float | None = None
    prev_gap = max(abs(u), abs(m)) - threshold
    if prev_gap >= 0.0:
        t_exit = 0.0
    m_clips = 0

    rows: list[tuple[float, ...]] = []  # one per record, in TrajectoryRecord's field order

    def record(t: float, u: float, m: float) -> None:
        s = OrderParameterState(u, m)
        rows.append((t, u, m, s.m_eff(mu), s.r(mu), population_loss(cfg, s)))

    record(0.0, u, m)
    for step in range(1, n_steps + 1):
        u_new, m_new = fixed_step(stage, u, m, dt, settings.method)
        if not (math.isfinite(u_new) and math.isfinite(m_new)) or abs(u_new) > BLOWUP_LIMIT:
            raise NumericalBlowupError(f"flow diverged at t={step * dt:.6g}")
        if not -1.0 <= m_new <= 1.0:
            m_new = min(1.0, max(-1.0, m_new))
            m_clips += 1
        t = step * dt
        gap = max(abs(u_new), abs(m_new)) - threshold
        if t_exit is None and gap >= 0.0:
            t_exit = _crossing_time(t - dt, dt, prev_gap, gap)
        prev_gap = gap
        u, m = u_new, m_new
        if step % settings.record_every == 0 or step == n_steps:
            record(t, u, m)
        if settings.stop_at_exit and t_exit is not None:
            break
    return TrajectoryRecord(*map(np.array, zip(*rows)), t_exit=t_exit, exited=t_exit is not None,
                            m_clips=m_clips)


@dataclass(frozen=True, eq=False)
class LinearizedTrajectory:
    """Closed-form solution of the linearized search-phase flow."""

    t: np.ndarray
    u: np.ndarray
    m: np.ndarray
    loss: np.ndarray
    t_exit: float | None


def integrate_linearized(
    lin: SearchPhaseLinearization,
    u0: float,
    m0: float,
    t_grid,
    mu: float | None = None,
) -> LinearizedTrajectory:
    """Exact solution of du/dt = B u + A m, dm/dt = A u on a time grid.

    The quadratic form -(B u^2/2 + A u m) is reported in the loss channel;
    it is a local Lyapunov function of the linearized flow (zero at the
    origin).  When mu is given, t_exit is the interpolated first time
    max(|u|, |m|) >= mu, the escape threshold that integrate_flow uses at
    FlowSettings' default exit_fraction and SGD uses for its exit step.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    A, B = lin.A, lin.B
    if A == 0.0:
        u = u0 * np.exp(B * t)
        m = np.full_like(t, m0)
    else:
        lam_p, lam_m = lin.lambda_plus, lin.lambda_minus
        # state = a (lam_p, A) e^{lam_p t} + b (lam_m, A) e^{lam_m t}
        det = A * (lam_p - lam_m)
        a = (A * u0 - lam_m * m0) / det
        b = (lam_p * m0 - A * u0) / det
        ep = np.exp(lam_p * t)
        em = np.exp(lam_m * t)
        u = a * lam_p * ep + b * lam_m * em
        m = a * A * ep + b * A * em
    loss = -(0.5 * B * u * u + A * u * m)
    t_exit = None
    if mu is not None:
        gap = np.maximum(np.abs(u), np.abs(m)) - mu
        above = np.nonzero(gap >= 0.0)[0]
        if len(above) > 0:
            i = int(above[0])
            if i == 0:
                t_exit = float(t[0])
            else:
                t_exit = _crossing_time(t[i - 1], t[i] - t[i - 1], gap[i - 1], gap[i])
    return LinearizedTrajectory(t=t, u=u, m=m, loss=loss, t_exit=t_exit)


@dataclass(frozen=True)
class DescentReport:
    """Late-phase convergence diagnostics from verify_descent."""

    rate: float
    r_squared: float
    sign_constant: bool
    loss_monotone: bool
    terminal_m_eff_gap: float
    n_fit_points: int


def verify_descent(record: TrajectoryRecord) -> DescentReport:
    """Fit log(1 - |m|) ~ -rate * t past the alignment threshold |m| = 0.9.

    Uses the samples with |m| > 0.9 and 1 - |m| > 1e-11; below that floor
    1 - |m| is dominated by double-precision rounding of m near 1, so those
    samples measure the float format rather than the decay.  Reports the
    least-squares rate, its R^2, whether sign(m) stays constant after the
    threshold, whether the loss is nonincreasing along the whole record
    (within 1e-10 per step, relative to 1 + |loss|), and |1 - |m_eff|| at the
    final sample.
    """
    absm = np.abs(record.m)
    mask = (absm > 0.9) & (1.0 - absm > 1e-11)
    n_fit = int(np.sum(mask))
    if n_fit >= 3:
        tt = record.t[mask]
        yy = np.log(1.0 - absm[mask])
        slope, intercept = np.polyfit(tt, yy, 1)
        resid = yy - (slope * tt + intercept)
        ss_tot = float(np.sum((yy - yy.mean()) ** 2))
        r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
        rate = -float(slope)
    else:
        rate, r_squared = float("nan"), float("nan")
    post = record.m[absm > 0.9]
    sign_constant = bool(len(post) == 0 or np.all(post > 0) or np.all(post < 0))
    dl = np.diff(record.loss)
    slack = 1e-10 * (1.0 + np.abs(record.loss[:-1]))
    loss_monotone = bool(np.all(dl <= slack))
    terminal_gap = abs(1.0 - abs(float(record.m_eff[-1])))
    return DescentReport(
        rate=rate,
        r_squared=r_squared,
        sign_constant=sign_constant,
        loss_monotone=loss_monotone,
        terminal_m_eff_gap=terminal_gap,
        n_fit_points=n_fit,
    )


@dataclass(frozen=True, eq=False)
class OscillatorRecord:
    """Trajectory of the damped-oscillator form of the alignment variable."""

    t: np.ndarray
    g: np.ndarray
    velocity: np.ndarray
    m: np.ndarray
    energy: np.ndarray


def oscillator_trajectory(
    lin: SearchPhaseLinearization,
    g0: float,
    v0: float = 0.0,
    dt: float = 0.01,
    t_max: float = 100.0,
) -> OscillatorRecord:
    """Integrate g'' - B g' - A^2 tanh(g) = 0 by fixed_step RK4 on the floats (g, g').

    m = tanh(g); the reported energy is g'^2/2 + V(g) with
    V(g) = -A^2 log cosh g, so dE/dt = B g'^2 (nonincreasing for B < 0,
    checkable against the recorded velocities).
    """
    A, B = lin.A, lin.B

    def rhs(g, v):
        return v, B * v + A * A * np.tanh(g)

    n_steps = _n_steps(t_max, dt)
    t = dt * np.arange(n_steps + 1)
    gv = np.empty((n_steps + 1, 2))
    g, v = gv[0] = float(g0), float(v0)
    for i in range(1, n_steps + 1):
        g, v = gv[i] = fixed_step(rhs, g, v, dt)
        if not (np.isfinite(g) and np.isfinite(v)) or abs(g) > BLOWUP_LIMIT:
            raise NumericalBlowupError(f"oscillator diverged at t={i * dt:.6g}")
    g_arr, v_arr = np.ascontiguousarray(gv.T)
    V, _ = effective_potential(lin, g_arr)
    energy = 0.5 * v_arr**2 + V
    return OscillatorRecord(t=t, g=g_arr, velocity=v_arr, m=np.tanh(g_arr), energy=energy)
