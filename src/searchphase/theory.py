"""Reduced-order theory: population loss, gradients, linearization, tau(mu).

Everything here lives on the two order parameters

    u    : the trainable low-rank magnitude
    m    : overlap of the trainable direction with the target direction

with derived quantities m_eff = mu + u*m (effective alignment) and
r = mu^2 + u^2 + 2*mu*u*m (pre-activation variance).  The student's scaled
Hermite coefficients are re-evaluated at the instantaneous r; the teacher's
live at variance 1.  Series are computed with coefficients rescaled by
r^{-k} (sigma_k / r^k stays O(1) as r -> 0) so that small-mu
linearizations do not underflow, each through its ModelConfig's
SeriesKernel.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, inf, isfinite

import numpy as np

from .activations import ActivationSpec, builtin
from .hermite import CoefficientSource, series_workspace

# largest admissible |m|: the band [-1, 1] plus rounding slack
M_BAND = 1.0 + 1e-12

# minimum admissible pre-activation variance before the state is declared
# collapsed (the expansion measure degenerates)
R_FLOOR = 1e-12

# |A| below this is treated as exactly singular: tau reported as +infinity
A_SINGULAR_TOL = 1e-10

# series tail rule: last three retained terms must all be below this fraction
# of the partial sum for the expansion to count as converged
TAIL_RTOL = 1e-10

# looser rule for the loss value itself: smooth non-polynomial pairs carry a
# genuine ~1e-7-relative truncation tail at the default k_max, which is far
# below every tolerance the loss feeds into; only warn when it gets material
LOSS_TAIL_RTOL = 1e-6


class DegenerateStateError(RuntimeError):
    """The pre-activation variance collapsed below the admissible floor."""


class SeriesConvergenceWarning(UserWarning):
    """Truncated Hermite series did not meet the tail tolerance."""


@dataclass(frozen=True, eq=False)
class ModelConfig:
    """One (teacher, student, mu) setting of the reduced model.

    delta is the time rescaling of the flow, default_delta(student) when None.
    """

    teacher: ActivationSpec
    student: ActivationSpec
    mu: float
    k_max: int = 25
    delta: float | None = None

    def __post_init__(self):
        if not (0.0 < self.mu < 1.0):
            raise ValueError("mu must lie strictly inside (0, 1)")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        for spec in (self.teacher, self.student):
            kp = spec.pure_hermite_degree
            if kp is not None and kp > self.k_max:
                raise ValueError("k_max must cover the pure Hermite degree")
        if self.delta is None:
            object.__setattr__(self, "delta", default_delta(self.student))
        elif not (0.0 < self.delta < inf):
            raise ValueError("delta must be positive and finite")

    @cached_property
    def series(self) -> SeriesKernel:
        """The config's SeriesKernel, built on first use and kept as long as
        the config."""
        return SeriesKernel(self)


def default_delta(student: ActivationSpec) -> float:
    """1/(k*! * k*) for a pure Hermite student of degree k*, else 1."""
    kp = student.pure_hermite_degree
    if kp is not None and kp >= 1:
        return 1.0 / (factorial(kp) * kp)
    return 1.0


@dataclass(frozen=True)
class OrderParameterState:
    """The reduced state (u, m)."""

    u: float
    m: float

    def __post_init__(self):
        if abs(self.m) > M_BAND:
            raise ValueError("|m| must not exceed 1")

    def r(self, mu: float) -> float:
        return mu * mu + self.u * self.u + 2.0 * mu * self.u * self.m

    def m_eff(self, mu: float) -> float:
        return mu + self.u * self.m


@dataclass(frozen=True)
class SearchPhaseLinearization:
    """Drift coefficients (A, B) of the linearized search phase.

    The linearized system is du/dt = B u + A m, dm/dt = A u, with
    lambda_pm = (B +- sqrt(B^2 + 4A^2))/2 and tau = 1/lambda_plus
    (reported +infinity when |A| is below the singular tolerance).
    """

    A: float
    B: float
    lambda_plus: float
    lambda_minus: float
    tau: float
    converged: bool = True


def _tail_ok(terms: np.ndarray, total: float, rtol: float = TAIL_RTOL) -> bool:
    # total is the terms' sum; a finite expansion (trailing zeros) always passes
    if len(terms) < 4:
        return True
    mag = np.abs(terms)
    scale = max(abs(total), float(np.maximum.reduce(mag)), 1e-300)
    return float(np.maximum.reduce(mag[-3:])) <= rtol * scale + 1e-300


@lru_cache(maxsize=64)
def _teacher_coefficients_cached(teacher: ActivationSpec, k_max: int) -> np.ndarray:
    # read-only, and shared by every config of one tau curve or singularity scan
    phi, _ = CoefficientSource(teacher, k_max)(1.0)
    phi.setflags(write=False)
    return phi


class SeriesKernel:
    """The state-independent part of a ModelConfig's series, built once per
    config as ``cfg.series``, through which the loss, the gradients, the
    correlation objective, the linearization and the flow's right-hand side
    evaluate, so that a call does only the state-dependent arithmetic.

    It holds the teacher's phi_k, the degrees ks and 1/k!, ks - 1, the
    leftmost factors of the gradient sums, (k/k!) phi_k for k >= 1 and
    phi_k/k!, and the student's CoefficientSource.  Each cached factor is
    the leftmost operand of the product it starts, so every product keeps
    the operands and association, and therefore the bits, of writing it out
    in full.  All held arrays are read-only, bar the private scratch that
    gradient_sums makes on its first call and writes on every call, so one
    kernel serves one thread at a time.  The scratch keeps every bit: its
    products take the operands of the written-out sums in the same order,
    and a row-wise reduce sums each row as the 1-D reduce of that row does.
    """

    __slots__ = ("mu", "phi", "ks", "inv_fact", "ks_m1", "half_phi_sq", "lead_k", "lead_0",
                 "student", "_scratch")

    def __init__(self, cfg: ModelConfig):
        self.mu = cfg.mu
        self.phi = _teacher_coefficients_cached(cfg.teacher, cfg.k_max)
        self.ks, self.inv_fact = series_workspace(cfg.k_max)
        self.ks_m1 = self.ks - 1.0
        self.half_phi_sq = 0.5 * self.phi**2
        self.lead_k = (self.inv_fact * self.ks)[1:] * self.phi[1:]
        self.lead_0 = self.inv_fact * self.phi
        for a in (self.ks_m1, self.half_phi_sq, self.lead_k, self.lead_0):
            a.setflags(write=False)
        self.student = CoefficientSource(cfg.student, cfg.k_max)
        self._scratch = None

    def _new_scratch(self) -> tuple:
        # made on the first call, as a tau curve or singularity scan makes a
        # kernel per mu and never calls it: a (2, K) buffer for sh and m_eff^k,
        # the pair the student's source writes into (sh is row 0), the
        # windows m_eff^{k-1} and m_eff^k (k >= 1) of row 1 as one view, and
        # the leftmost factors of C1 and Sc, 1/k! and phi_k/k!, as two rows
        sh, sbh = self.student(1.0)
        buf = np.stack((sh, sh))
        rows = np.ndarray((2, len(sh) - 1), buffer=buf[1], strides=(buf.itemsize,) * 2)
        self._scratch = buf, (buf[0], sbh), rows, np.stack((self.inv_fact, self.lead_0))
        return self._scratch

    def coefficients(self, r: float, floor: float = R_FLOOR) -> tuple[np.ndarray, np.ndarray]:
        """The student's (sigma_k[r], sigmabar_k[r]) / r^k; r below floor raises
        DegenerateStateError (linearize_search_phase passes 0 to admit any mu)."""
        if r < floor:
            raise DegenerateStateError(f"pre-activation variance collapsed: r={r:.3e}")
        return self.student(r)

    def gradient_sums(self, u: float, m: float) -> tuple[float, float, float, float]:
        """(C1, Sa, Sb, Sc) at the state (u, m)."""
        buf, coef, me_rows, lead_c = self._scratch or self._new_scratch()
        mu = self.mu
        r = mu * mu + u * u + 2.0 * mu * u * m  # as OrderParameterState.r
        if r < R_FLOOR:  # as coefficients
            raise DegenerateStateError(f"pre-activation variance collapsed: r={r:.3e}")
        sh, sbh = self.student(r, coef)
        np.power(mu + u * m, self.ks, out=buf[1])  # m_eff as OrderParameterState.m_eff
        # row 0, C1 = sum sigma_k sigmabar_k / (k! r^{k+1}) = sum sh*sbh*r^{k-1}/k!
        # row 1, Sc = sum_{k>=0} phi_k m_eff^k sigmabar_k / (k! r^{k+1})
        c_terms = lead_c * buf
        c_terms *= sbh
        c_terms[0] *= r**self.ks_m1
        c_terms[1] /= r
        c1, sc = np.add.reduce(c_terms, axis=1).tolist()
        # row 0, Sa = sum_{k>=1} phi_k m_eff^{k-1} sigma_k / ((k-1)! r^k)
        # row 1, Sb = sum_{k>=1} phi_k m_eff^k sigma_k / ((k-1)! r^{k+1})
        ab_terms = self.lead_k * me_rows * sh[1:]
        ab_terms[1] /= r
        sa, sb = np.add.reduce(ab_terms, axis=1).tolist()
        return c1, sa, sb, sc

    def loss_gradients(self, u: float, m: float) -> tuple[float, float]:
        """(dL/du, dL/dm) at the state (u, m)."""
        c1, sa, sb, sc = self.gradient_sums(u, m)
        g = c1 + sb - sc
        drive = u + self.mu * m
        return drive * g - m * sa, u * self.mu * g - u * sa


def population_loss(cfg: ModelConfig, s: OrderParameterState) -> float:
    """Series value of the (1/2)-convention population loss L(u, m).

    L = sum_k (1/k!) [ phi_k^2/2 + sigma_k^2/(2 r^k) - sigma_k phi_k m_eff^k / r^k ].

    Emits SeriesConvergenceWarning when the truncation tail is not negligible.
    """
    ser = cfg.series
    r, me = s.r(cfg.mu), s.m_eff(cfg.mu)
    sh, _ = ser.coefficients(r)
    ks = ser.ks
    # sigma_k^2/r^k = sh^2 * r^k ; sigma_k/r^k = sh
    terms = ser.inv_fact * (ser.half_phi_sq + 0.5 * sh * sh * r**ks - sh * ser.phi * me**ks)
    total = float(np.add.reduce(terms))
    if not _tail_ok(terms, total, LOSS_TAIL_RTOL):
        warnings.warn("population loss series tail above tolerance", SeriesConvergenceWarning)
    return total


def loss_gradients(cfg: ModelConfig, s: OrderParameterState) -> tuple[float, float]:
    """(dL/du, dL/dm) of the population loss, by the exact coefficient series."""
    return cfg.series.loss_gradients(s.u, s.m)


def correlation_loss(cfg: ModelConfig, s: OrderParameterState) -> float:
    """Correlation objective 1 - E[y yhat] in series form."""
    ser = cfg.series
    sh, _ = ser.coefficients(s.r(cfg.mu))
    return 1.0 - float((ser.lead_0 * sh * s.m_eff(cfg.mu) ** ser.ks).sum())


def correlation_gradients(cfg: ModelConfig, s: OrderParameterState) -> tuple[float, float]:
    """(d/du, d/dm) of the correlation objective.

    For linear matching activations this is exactly (-m, -u), independent
    of mu.
    """
    _, sa, sb, sc = cfg.series.gradient_sums(s.u, s.m)
    drive = s.u + cfg.mu * s.m
    dldu = -(drive * (sc - sb) + s.m * sa)
    dldm = -(s.u * cfg.mu * (sc - sb) + s.u * sa)
    return dldu, dldm


def linearize_search_phase(cfg: ModelConfig) -> SearchPhaseLinearization:
    """Drift coefficients (A, B) at the search-phase base point r = mu^2.

    A = -sum_k sigmabar_k/(k! mu^{k+1}) (-phi_k + sigma_k/mu^k)
    B = -[ sum_k sigmabar_k sigma_k/(k! mu^{2k+2})
           + sum_{k>=1} phi_k/((k-1)! mu^{k+2}) (sigma_k - sigmabar_k/k) ]

    both evaluated at r = mu^2 and scaled by cfg.delta.  B's second sum
    starts at k = 1, so it leaves out the flow Jacobian's k = 0 term
    delta * phi_0 * sigmabar_0 / mu^2, which is nonzero for relu.
    """
    mu = cfg.mu
    ser = cfg.series
    phi, ks, inv_fact = ser.phi, ser.ks, ser.inv_fact
    sh, sbh = ser.coefficients(mu * mu, floor=0.0)
    mu_pow = mu**ks
    # sigmabar_k/mu^{k+1} = sbh mu^{k-1};  sigma_k/mu^k = sh mu^k
    a_terms = -inv_fact * (sbh * mu_pow / mu) * (-phi + sh * mu_pow)
    # sigmabar_k sigma_k/mu^{2k+2} = sbh sh mu^{2k-2}
    b1_terms = inv_fact * sbh * sh * mu_pow * mu_pow / (mu * mu)
    # phi_k (sigma_k - sigmabar_k/k)/((k-1)! mu^{k+2}) with sigma/mu^{2k} rescaling
    b2_terms = np.zeros_like(b1_terms)
    b2_terms[1:] = ser.lead_k * (sh[1:] - sbh[1:] / ks[1:]) * mu_pow[1:] / (mu * mu)
    b_terms = -(b1_terms + b2_terms)
    a_sum, b_sum = float(a_terms.sum()), float(b_terms.sum())
    A = cfg.delta * a_sum
    B = cfg.delta * b_sum
    converged = _tail_ok(a_terms, a_sum) and _tail_ok(b_terms, b_sum)
    lam_plus, lam_minus = drift_eigenvalues(A, B)
    tau = inf if abs(A) < A_SINGULAR_TOL else 1.0 / lam_plus
    return SearchPhaseLinearization(
        A=A, B=B, lambda_plus=lam_plus, lambda_minus=lam_minus, tau=tau, converged=converged
    )


def drift_eigenvalues(A: float, B: float) -> tuple[float, float]:
    """(lambda_plus, lambda_minus) = (B +- sqrt(B^2 + 4A^2))/2, cancellation-safe.

    The root that would cancel against B is computed through the conjugate
    form 2A^2/(disc -+ B), so tiny |A| never collapses to an exact zero by
    rounding.
    """
    disc = float(np.hypot(B, 2.0 * A))
    if disc == 0.0:
        return 0.0, 0.0
    if B <= 0.0:
        lam_plus = 2.0 * A * A / (disc - B) if disc - B > 0.0 else 0.0
        lam_minus = (B - disc) / 2.0
    else:
        lam_plus = (B + disc) / 2.0
        lam_minus = -2.0 * A * A / (disc + B)
    return lam_plus, lam_minus


def _grid_array(mu_grid) -> np.ndarray:
    grid = np.asarray(mu_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("mu grid must be a nonempty 1-D array")
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError("mu grid must lie strictly inside (0, 1)")
    return grid


@dataclass(frozen=True, eq=False)
class TauCurve:
    """Per-mu linearization table over a grid."""

    mu: np.ndarray
    A: np.ndarray
    B: np.ndarray
    lambda_plus: np.ndarray
    tau: np.ndarray
    converged: np.ndarray


def tau_curve(
    teacher: ActivationSpec,
    student: ActivationSpec,
    mu_grid,
    k_max: int = 25,
) -> TauCurve:
    """linearize_search_phase evaluated along a mu grid, at default_delta(student)."""
    grid = _grid_array(mu_grid)
    rows = [
        linearize_search_phase(
            ModelConfig(teacher=teacher, student=student, mu=float(mu), k_max=k_max)
        )
        for mu in grid
    ]
    return TauCurve(
        mu=grid,
        A=np.array([x.A for x in rows]),
        B=np.array([x.B for x in rows]),
        lambda_plus=np.array([x.lambda_plus for x in rows]),
        tau=np.array([x.tau for x in rows]),
        converged=np.array([x.converged for x in rows], dtype=bool),
    )


def find_singularities(
    teacher: ActivationSpec,
    student: ActivationSpec,
    mu_grid=None,
    k_max: int = 25,
) -> list[float]:
    """Roots of A(mu) on (0,1): bracket sign changes, refine by bisection.

    The grid must resolve the curve at 1e-3 or finer.  Returns sorted roots
    with |A(root)| < 1e-10; empty list when A never changes sign.
    """
    if mu_grid is None:
        mu_grid = np.arange(1e-3, 0.9995, 1e-3)
    grid = _grid_array(mu_grid)
    if len(grid) > 1 and float(np.max(np.diff(grid))) > 1e-3 + 1e-12:
        raise ValueError("mu grid resolution must be <= 1e-3")

    def a_of(mu: float) -> float:
        return linearize_search_phase(
            ModelConfig(teacher=teacher, student=student, mu=mu, k_max=k_max)
        ).A

    vals = np.array([a_of(float(mu)) for mu in grid])
    roots: list[float] = []
    for i, v in enumerate(vals):
        if abs(v) < A_SINGULAR_TOL:
            roots.append(float(grid[i]))
    for i in range(len(grid) - 1):
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo, fhi = float(vals[i]), float(vals[i + 1])
        if abs(flo) < A_SINGULAR_TOL or abs(fhi) < A_SINGULAR_TOL:
            continue
        if flo * fhi > 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = a_of(mid)
            if abs(fm) < A_SINGULAR_TOL or hi - lo < 1e-15:
                break
            if fm * flo > 0.0:
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


def asymptotic_tau(k_star: int, mu: float, regime: str) -> float:
    """Limiting tau(mu) laws for matching pure Hermite models.

    near_one:  4 / ((2k-1)^2 (mu^2-1)^2)
    near_zero: even k = 2p   -> 1/B_0
               odd  k = 2p+1 -> -B_0/(c_p^2 mu^2), c_p = (2p-1)!/(p!(p-1)! 2^{2p-1})
    with B_0 taken as the numerical limit B(mu=1e-4).  For odd k, A ~ -c_p mu
    near mu = 0 and tau = 1/lambda_+ ~ -B/A^2 tends to -B_0/(c_p^2 mu^2).
    """
    if regime == "near_one":
        if k_star < 1:
            raise ValueError("k_star must be >= 1")
        return 4.0 / ((2 * k_star - 1) ** 2 * (mu * mu - 1.0) ** 2)
    if regime != "near_zero":
        raise ValueError("regime must be 'near_one' or 'near_zero'")
    if k_star < 3:
        raise ValueError("near_zero branches need k_star >= 3")
    act = builtin(f"hermite({k_star})")
    b0 = linearize_search_phase(
        ModelConfig(teacher=act, student=act, mu=1e-4, k_max=k_star + 2)
    ).B
    if k_star % 2 == 0:
        return 1.0 / b0
    p = (k_star - 1) // 2
    c_p = factorial(2 * p - 1) / (factorial(p) * factorial(p - 1) * 2 ** (2 * p - 1))
    return -b0 / (c_p * c_p * mu * mu)


def effective_potential(lin: SearchPhaseLinearization, g):
    """Potential V(g) = -A^2 log cosh g and force -dV/dg = A^2 tanh g."""
    if not isfinite(lin.A):
        raise ValueError("A must be finite")
    g = np.asarray(g, dtype=float)
    # log cosh computed overflow-free: |g| + log1p(e^{-2|g|}) - log 2
    logcosh = np.abs(g) + np.log1p(np.exp(-2.0 * np.abs(g))) - np.log(2.0)
    V = -lin.A**2 * logcosh
    force = lin.A**2 * np.tanh(g)
    if V.ndim == 0:
        return float(V), float(force)
    return V, force
