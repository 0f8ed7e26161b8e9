"""Rank-R adaptation of a K-direction linear committee.

The target is y = (1/sqrt K) sum_k (w_k* . x) over orthonormal directions
w_k*; the model is yhat = (1/sqrt K) sum_k (mu_k w_k* + sum_r u_{k,r} a_r) . x
with shared unit adapter directions a_1..a_R and per-pair magnitudes
u_{k,r}.  Directions with mu_k = 1 are frozen: their magnitudes stay 0 and
receive no updates.  Order parameters are m_{k,r} = w_k* . a_r and
q_{rs} = a_r . a_s.

The reduced description treats each (k, r) pair as its own two-dimensional
search problem coupled only through q and through C = U^T U:

    du_{k,r}/dt = (1/K) [ D_k m_{k,r} - sum_s q_{rs} u_{k,s} ]
    dm_{k,r}/dt = (1/K) [ D_k u_{k,r} (1 - m_{k,r}^2)
                          - sum_{s != r} C_{rs} (m_{k,s} - m_{k,r} q_{rs}) ]

with D_k = 1 - mu_k.  Its per-direction escape rate is
lambda_k = (-1 + sqrt(1 + 4 D_k^2)) / (2K), independent of the rank R.

The SGD counterpart, committee_sgd, draws its batches and lifts its
batch-mean gradient through the frame sampler of the single-index
simulator (sgd._Workspace), with the teachers as the frame's fixed rows and
the adapters as its free ones.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import inf, isfinite, sqrt

import numpy as np

from .ode import BLOWUP_LIMIT, NumericalBlowupError, _n_steps, fixed_step
from .sgd import _INIT_STREAM, _Workspace, orthonormal_frame, step_rng


@dataclass(frozen=True)
class CommitteeConfig:
    """Configuration of a committee run (activation fixed to linear)."""

    mu: tuple
    rank: int
    d: int = 1000
    batch_size: int = 500
    learning_rate: float = 0.1
    n_steps: int = 1000
    seed: int = 0
    record_every: int = 1
    onset_threshold: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        if len(self.mu) < 1:
            raise ValueError("need at least one direction")
        if any(not (0.0 < v <= 1.0) for v in self.mu):
            raise ValueError("each mu_k must lie in (0, 1]")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.d < len(self.mu) + self.rank + 1:
            raise ValueError("d too small for the requested directions")
        if self.batch_size < 1 or self.n_steps < 1:
            raise ValueError("batch_size and n_steps must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if not (0.0 < self.learning_rate < inf):
            raise ValueError("learning_rate must be positive and finite")
        if not (0.0 < self.onset_threshold < 1.0):
            raise ValueError("onset_threshold must lie in (0, 1)")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must lie in [0, 2**64)")

    @property
    def n_directions(self) -> int:
        return len(self.mu)

    @property
    def adapted(self) -> tuple:
        return tuple(k for k, v in enumerate(self.mu) if v < 1.0)


@dataclass(frozen=True, eq=False)
class CommitteeState:
    """Reduced committee state: magnitudes, overlaps, adapter Gram matrix."""

    u: np.ndarray  # (K, R)
    m: np.ndarray  # (K, R)
    q: np.ndarray  # (R, R)

    def __post_init__(self):
        if self.u.shape != self.m.shape or self.q.shape != (self.u.shape[1],) * 2:
            raise ValueError("inconsistent state shapes")


def committee_reduced_init(cfg: CommitteeConfig) -> CommitteeState:
    """Deterministic reduced init matching the simulator's pinned geometry:
    m_{k,r} = u_{k,r} = 1/sqrt(d) on adapted directions, 0 on frozen ones,
    q = I."""
    u = np.zeros((cfg.n_directions, cfg.rank))
    u[list(cfg.adapted)] = 1.0 / sqrt(cfg.d)
    return CommitteeState(u=u, m=u.copy(), q=np.eye(cfg.rank))


def _committee_rhs(
    cfg: CommitteeConfig, q: np.ndarray, include_coupling: bool, u: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    K = cfg.n_directions
    delta = 1.0 - np.asarray(cfg.mu)  # D_k
    du = (delta[:, None] * m - u @ q) / K
    dm = delta[:, None] * u * (1.0 - m * m) / K
    if include_coupling:
        c = u.T @ u
        cross = m @ (c - np.diag(np.diag(c))) - m * (np.sum(c * q, axis=0) - np.diag(c) * np.diag(q))
        dm = dm - cross / K
    frozen = delta == 0.0
    du[frozen] = 0.0
    return du, dm


def committee_ode_step(
    cfg: CommitteeConfig, state: CommitteeState, dt: float, include_coupling: bool = True
) -> CommitteeState:
    """One fixed_step RK4 step of the reduced committee flow on (U, M), q held fixed.

    include_coupling=False drops the C = U^T U cross-direction term, which
    decouples the system into K*R independent rank-one problems when q = I.
    """
    rhs = partial(_committee_rhs, cfg, state.q, include_coupling)
    u_new, m_new = fixed_step(rhs, state.u, state.m, dt)
    return replace(state, u=u_new, m=np.clip(m_new, -1.0, 1.0))


def committee_loss(cfg: CommitteeConfig, state: CommitteeState) -> float:
    """Population error of the reduced state:

    (1/2K) sum_k [ D_k^2 - 2 D_k sum_r u_{k,r} m_{k,r}
                   + sum_{r,s} u_{k,r} u_{k,s} q_{rs} ].
    """
    delta = 1.0 - np.asarray(cfg.mu)
    per_k = (
        delta**2
        - 2.0 * delta * np.sum(state.u * state.m, axis=1)
        + np.einsum("kr,ks,rs->k", state.u, state.u, state.q)
    )
    return float(np.sum(per_k)) / (2.0 * cfg.n_directions)


@dataclass(frozen=True, eq=False)
class CommitteeRates:
    """Per-direction linear escape rates (rank-independent)."""

    lambda_plus: np.ndarray
    tau: np.ndarray


def committee_linear_rates(cfg: CommitteeConfig) -> CommitteeRates:
    """lambda_k = (-1 + sqrt(1 + 4 D_k^2)) / (2K) and tau_k = 1/lambda_k.

    Frozen directions (D_k = 0) report lambda 0 and tau +infinity.  The
    rank enters the linearized per-pair problem only through q = I, so the
    rates do not depend on cfg.rank.
    """
    delta = 1.0 - np.asarray(cfg.mu)
    disc = np.sqrt(1.0 + 4.0 * delta * delta)
    lam = (disc - 1.0) / (2.0 * cfg.n_directions)
    tau = np.where(delta == 0.0, inf, np.divide(1.0, np.where(lam > 0, lam, 1.0)))
    return CommitteeRates(lambda_plus=lam, tau=tau)


@dataclass(frozen=True, eq=False)
class CommitteeTrajectory:
    """Recorded reduced flow: times plus stacked (u, m) histories."""

    t: np.ndarray
    u: np.ndarray  # (n_rec, K, R)
    m: np.ndarray
    loss: np.ndarray


def integrate_committee(
    cfg: CommitteeConfig,
    state0: CommitteeState,
    dt: float,
    t_max: float,
    include_coupling: bool = True,
    record_every: int = 1,
) -> CommitteeTrajectory:
    """Fixed-step RK4 integration of the reduced committee flow, recording t = 0,
    every record_every-th step and the last; raises NumericalBlowupError when
    a magnitude stops being finite or exceeds BLOWUP_LIMIT."""
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n_steps = _n_steps(t_max, dt)
    state = state0
    rows = [(0.0, state.u, state.m, committee_loss(cfg, state))]  # np.array copies each row
    for i in range(1, n_steps + 1):
        state = committee_ode_step(cfg, state, dt, include_coupling)
        # false for NaN as well as for magnitudes beyond the limit
        if not float(np.max(np.abs(state.u))) <= BLOWUP_LIMIT:
            raise NumericalBlowupError(f"committee flow diverged at t={i * dt:.6g}")
        if i % record_every == 0 or i == n_steps:
            rows.append((i * dt, state.u, state.m, committee_loss(cfg, state)))
    return CommitteeTrajectory(*map(np.array, zip(*rows)))


def aggregate_overlap(cfg: CommitteeConfig, m: np.ndarray) -> np.ndarray:
    """Overlap of each adapter with the aggregate residual direction.

    With equal frozen weights the learnable signal is the single direction
    sum_{k adapted} w_k* (the residual is rank one), so per-pair overlaps
    saturate at 1/sqrt(K) and cannot index escape.  The escape-bearing
    statistic is rho_r = sum_{k adapted} m_{k,r} / sqrt(n_adapted), the
    adapter's overlap with that aggregate direction, which saturates at 1.
    """
    adapted = np.array(cfg.adapted, dtype=int)
    if len(adapted) == 0:
        return np.zeros(m.shape[-1])
    return np.sum(m[..., adapted, :], axis=-2) / sqrt(len(adapted))


@dataclass(frozen=True, eq=False)
class CommitteeRunResult:
    """High-dimensional committee SGD record.

    m_eff has one column per direction: mu_k + sum_r u_{k,r} m_{k,r}.
    rho holds the aggregate-direction overlaps (one column per adapter);
    onset_step is the first step at which max_r |rho_r| reaches the onset
    threshold (None if never).
    """

    t_epoch: np.ndarray
    u: np.ndarray  # (n_rec, K, R)
    m: np.ndarray
    m_eff: np.ndarray  # (n_rec, K)
    rho: np.ndarray  # (n_rec, R)
    test_mse: np.ndarray
    onset_step: int | None
    final_q: np.ndarray
    init_m: np.ndarray


def _exact_test_mse(cfg: CommitteeConfig, u: np.ndarray, m: np.ndarray, q: np.ndarray) -> float:
    # (1/K) || sum_k D_k w_k* - sum_r U_r a_r ||^2 with U_r = sum_k u_{k,r}
    delta = 1.0 - np.asarray(cfg.mu)
    U = np.sum(u, axis=0)
    return (
        float(np.sum(delta**2))
        + float(U @ q @ U)
        - 2.0 * float(delta @ m @ U)
    ) / cfg.n_directions


def committee_sgd(cfg: CommitteeConfig) -> CommitteeRunResult:
    """One-pass SGD on the full d-dimensional committee.

    Teachers are drawn orthonormal; each adapter starts as
    sum_{k adapted} w_k*/sqrt(d) plus an orthonormal remainder, giving every
    adapted pair the pinned initial overlap 1/sqrt(d); adapted magnitudes
    start at 1/sqrt(d).  Updates are batch means of per-sample gradients of
    (y - yhat)^2; adapters are renormalized to unit length each step.  The
    batch is sampled through its exact frame law by the SGD simulator's
    frame sampler, sgd._Workspace: coordinates along the frame of
    (teachers, adapters), rebuilt in place each step, and the batch-mean
    gradient lifted from one residual d-vector, so the cost per step is
    O(batch + d).  Step t draws from counter t - 1 of the training stream;
    a long run draws ahead on a second core, with the same bits
    (_Workspace.drawing_ahead).
    Raises NumericalBlowupError when a magnitude or overlap stops being
    finite or a magnitude exceeds BLOWUP_LIMIT.
    """
    K, R, d = cfg.n_directions, cfg.rank, cfg.d
    rng = step_rng(cfg.seed, _INIT_STREAM, 0)
    teachers = np.linalg.qr(rng.standard_normal((d, K)))[0].T  # (K, d) orthonormal
    adapted = np.array(cfg.adapted, dtype=int)
    n_a = len(adapted)
    core = np.sum(teachers[adapted], axis=0) / sqrt(d) if n_a else np.zeros(d)
    # the frame sampler: the K teachers are its fixed rows, the R adapters
    # its free ones; its residual d-vector is the init's scratch
    ws = _Workspace(cfg.seed, teachers, R, d)
    draws = rng.standard_normal((R, d))
    for g in draws:
        g -= teachers.T @ (teachers @ g)
    residuals = orthonormal_frame(draws, [], ws.res)
    adapters = core + sqrt(max(1.0 - n_a / d, 0.0)) * residuals
    adapters = np.array([a / np.linalg.norm(a) for a in adapters])
    grad = np.empty(d)  # each step's batch-mean gradient
    buf = np.empty((R, d))  # scratch of each step's adapter update and row norms

    u = np.zeros((K, R))
    u[adapted] = 1.0 / sqrt(d)
    mu_vec = np.asarray(cfg.mu)
    sqK = sqrt(K)

    rows: list[tuple] = []  # one per record: t_epoch, u, m, m_eff, rho, test_mse
    onset_step = None

    def overlaps() -> tuple[np.ndarray, np.ndarray]:
        return teachers @ adapters.T, adapters @ adapters.T  # m (K,R), q (R,R)

    def record(step: int, m: np.ndarray, q: np.ndarray) -> None:
        rows.append((
            float(step), u.copy(), m, mu_vec + np.sum(u * m, axis=1), aggregate_overlap(cfg, m),
            _exact_test_mse(cfg, u, m, q),
        ))

    m, q = overlaps()
    init_m = m.copy()
    record(0, m, q)

    with ws.drawing_ahead(cfg.n_steps, cfg.batch_size):
        for step in range(1, cfg.n_steps + 1):
            # frame: K teacher rows (already orthonormal) + adapter residuals
            F = ws.frame(adapters)
            coords = ws.batch(ws.train, step - 1, cfg.batch_size)

            lam_star = coords[:, :K]  # teacher pre-activations
            adapter_coords = F @ adapters.T  # (f, R)
            lam_a = coords @ adapter_coords  # (B, R)
            U_col = np.sum(u, axis=0)  # U_r
            y = np.sum(lam_star, axis=1) / sqK
            yhat = (lam_star @ mu_vec + lam_a @ U_col) / sqK
            eps = y - yhat

            du_row = cfg.learning_rate * 2.0 / sqK * (eps @ lam_a) / cfg.batch_size  # (R,)
            # shared mean-gradient direction: w = mean(eps_i x_i)
            w = ws.lift(eps, coords, grad)
            u[adapted] += du_row[None, :]
            # np.outer's and np.linalg.norm's operations (the norm is
            # sqrt(add.reduce(a * a))) in their order, so every bit is kept
            np.multiply.outer(U_col, w, out=buf)
            buf *= cfg.learning_rate * 2.0 / sqK
            adapters += buf
            np.multiply(adapters, adapters, out=buf)
            adapters /= np.sqrt(np.add.reduce(buf, axis=1, keepdims=True))

            m, q = overlaps()
            # false for NaN as well as for magnitudes beyond the limit
            if not (float(np.max(np.abs(u))) <= BLOWUP_LIMIT and isfinite(float(np.sum(m)))):
                raise NumericalBlowupError(f"committee SGD diverged at step {step}")
            if onset_step is None and n_a and np.max(np.abs(aggregate_overlap(cfg, m))) >= cfg.onset_threshold:
                onset_step = step
            if step % cfg.record_every == 0 or step == cfg.n_steps:
                record(step, m, q)

    return CommitteeRunResult(
        *map(np.array, zip(*rows)),
        onset_step=onset_step,
        final_q=q,
        init_m=init_m,
    )
