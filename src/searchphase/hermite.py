"""Scaled Hermite polynomial algebra.

Probabilists' Hermite polynomials generalized to a Gaussian measure of
variance r, written He_k^[r], with

    E[He_k^[r](z) He_m^[r](z)] = delta_km * k! * r^k  for z ~ N(0, r).

Conventions
-----------
A unit-variance coefficient vector c represents

    f(z) = sum_k c_k He_k(z) / k!

so c_k = E[f(z) He_k(z)], z ~ N(0,1).  Scaled coefficients are

    sigma_k[r]    = E[f(z) He_k^[r](z)],           z ~ N(0, r)
    sigmabar_k[r] = r^{(k+1)/2} E[x He_k(x) f'(sqrt(r) x)],  x ~ N(0,1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, inf

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.hermite_e import hermemul


class ConfigurationError(ValueError):
    """A numerical setting cannot support the requested computation."""


class DegenerateFunctionError(ValueError):
    """All Hermite coefficients of degree >= 1 vanish below tolerance."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Hermite rule for E[f(x)] with x ~ N(0,1): abscissas on the
    standard-normal scale and positive weights summing to 1 (probabilists'
    normalization).  A rule of n nodes is exact for polynomials of degree
    <= 2n - 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) < 1 or len(self.nodes) != len(self.weights):
            raise ValueError("inconsistent quadrature arrays")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")


@lru_cache(maxsize=64)
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Build (and cache) the order-point rule for the standard normal."""
    if order < 1:
        raise ValueError("order must be >= 1")
    x, w = hermgauss(order)
    # physicists' weights integrate against exp(-x^2); rescale to N(0,1)
    return QuadratureRule(nodes=x * np.sqrt(2.0), weights=w / np.sqrt(np.pi))


def eval_scaled_hermite(k: int, r: float, z):
    """Evaluate He_k^[r](z) by the three-term recurrence.

    He_{k+1}^[r](z) = z He_k^[r](z) - k r He_{k-1}^[r](z), He_0 = 1, He_1 = z.

    The degree k is >= 0 and the variance r positive and finite.  Returns a
    new array (or a float for scalar z), never z itself.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    _check_variance(r)
    z = np.asarray(z, dtype=float)
    if k == 0:
        cur = np.ones_like(z)
    elif k == 1:
        cur = z.copy()  # never the caller's array
    else:
        cur = _recurrence(k, r, z)[1]
    return cur if cur.ndim else float(cur)


def _recurrence(k: int, r: float, z: np.ndarray) -> tuple:
    # (He_{k-1}^[r](z), He_k^[r](z)) for k >= 2; He_{k-1} is z itself at k = 2
    prev, cur = 1.0, z
    for j in range(1, k):
        prev, cur = cur, z * cur - j * r * prev
    return prev, cur


def hermite_value_and_slope(k: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(He_k(z), k He_{k-1}(z)) for an array z and k >= 1: bit for bit
    eval_scaled_hermite(k, 1.0, z) and k * eval_scaled_hermite(k - 1, 1.0, z),
    from one pass of the recurrence when k >= 2, without the argument checks."""
    if k < 2:
        return eval_scaled_hermite(k, 1.0, z), k * eval_scaled_hermite(k - 1, 1.0, z)
    prev, cur = _recurrence(k, 1.0, z)
    return cur, k * prev


def scaled_hermite_table(k_max: int, r: float, z) -> np.ndarray:
    """Rows 0..k_max of He_k^[r] evaluated at z, shape (k_max+1,) + z.shape;
    row k is eval_scaled_hermite(k, r, z), bit for bit, at O(k_max**2) cost."""
    return np.stack([eval_scaled_hermite(k, r, z) for k in range(k_max + 1)])


@dataclass(frozen=True, eq=False)
class HermiteCoefficients:
    """Truncated coefficient vectors of one activation under N(0, variance)."""

    variance: float
    sigma_k: np.ndarray
    sigma_bar_k: np.ndarray

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")
        if len(self.sigma_k) != len(self.sigma_bar_k):
            raise ValueError("sigma_k and sigma_bar_k must have identical length")


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # read-only views, so a cached array cannot be changed through them
    views = tuple(a.view() for a in arrays)
    for v in views:
        v.setflags(write=False)
    return views


@lru_cache(maxsize=64)
def series_workspace(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached (k, 1/k!) arrays for degrees 0..k_max (read-only)."""
    ks = np.arange(k_max + 1, dtype=float)
    inv_fact = np.ones(k_max + 1)
    for k in range(1, k_max + 1):
        inv_fact[k] = inv_fact[k - 1] / k
    return _frozen(ks, inv_fact)


def _check_variance(r: float) -> None:
    if not (0.0 < r < inf):
        raise ConfigurationError("variance must be positive and finite")


@lru_cache(maxsize=64)
def _projection_matrices(k_max: int):
    # the nodes of the order 2*k_max + 10 rule, the projection matrices
    # row k of M:  weights * He_k(nodes)      -> sigma integrands
    # row k of Mb: weights * nodes * He_k(nodes) -> sigmabar integrands
    # and the exponents ks, ks + 1 of sqrt(r) that scale them
    rule = gauss_hermite_rule(2 * k_max + 10)
    table = scaled_hermite_table(k_max, 1.0, rule.nodes)
    M = table * rule.weights
    Mb = M * rule.nodes
    ks, _ = series_workspace(k_max)
    return (*_frozen(rule.nodes, M, Mb), ks, *_frozen(ks + 1.0))


def _project(f, r: float, projection) -> tuple[np.ndarray, np.ndarray]:
    # (sigma_k[r], sigmabar_k[r]) by quadrature, for a checked r
    nodes, M, Mb, ks, ks1 = projection
    sr = math.sqrt(r)
    z = sr * nodes
    fv = np.asarray(f.evaluate(z), dtype=float)
    fpv = np.asarray(f.slope(z), dtype=float)
    return (M @ fv) * sr**ks, (Mb @ fpv) * sr**ks1


def project_activation(f, r: float, k_max: int) -> HermiteCoefficients:
    """Project an activation onto He_0^[r] .. He_{k_max}^[r].

    Uses the standardized variable x = z / sqrt(r) and the scaling relation
    He_k^[r](sqrt(r) x) = r^{k/2} He_k(x), so only unit-variance polynomials
    are evaluated:

        sigma_k[r]    = r^{k/2}    E[He_k(x) f(sqrt(r) x)]
        sigmabar_k[r] = r^{(k+1)/2} E[x He_k(x) f'(sqrt(r) x)]

    The expectations use the cached Gauss-Hermite rule of order 2*k_max + 10.
    f needs ``evaluate`` and ``slope`` (the derivative, or its central
    difference when there is none); r is positive and finite.
    """
    _check_variance(r)
    if k_max < 0:
        raise ConfigurationError("k_max must be >= 0")
    sigma, sigma_bar = _project(f, r, _projection_matrices(k_max))
    return HermiteCoefficients(variance=r, sigma_k=sigma, sigma_bar_k=sigma_bar)


@lru_cache(maxsize=64)
def _pure_layout(k_star: int):
    # k_star and k_star!; the degrees `low` below k_star of its parity; the
    # half-gaps j of sigma there, (k_star - low)/2, then those of sigmabar,
    # (k_star - 2 - low)/2, with 1/j! of each; low and the gaps k_star - low
    # as floats.  Float operands skip the int-to-float casts of each call and
    # hold the same values, so they give the same bits.
    _, inv_fact = series_workspace(k_star)
    low = np.arange(k_star % 2, k_star, 2)
    exps = np.concatenate(((k_star - low) // 2, (k_star - 2 - low) // 2))
    return (k_star, float(factorial(k_star)),
            *_frozen(low, exps + 0.0, inv_fact[exps], low + 0.0, k_star - low + 0.0))


def _pure_rescaled(layout, r: float, k_max: int, out=None) -> tuple[np.ndarray, np.ndarray]:
    # the closed form of pure_hermite_coefficients divided by r^k; at k_star
    # its ((r-1)/2)^0 factor is 1, so sigma is k_star! and sigmabar
    # k_star * k_star! whatever r is.  out, an earlier result of the same
    # layout and k_max, holds the zeros of the other entries already
    k_star, fk, low, exps, inv, low_f, gap = layout
    sh, sbh = out or (np.zeros(k_max + 1), np.zeros(k_max + 1))
    sh[k_star], sbh[k_star] = fk, k_star * fk
    if len(low):
        v = fk * ((r - 1.0) / 2.0) ** exps * inv
        sh[low] = v[: len(low)]
        sbh[low] = v[len(low):] * (k_star * r - low_f) / gap
    return sh, sbh


class CoefficientSource:
    """The reduced theory's one source of coefficients: (sigma_k[r] / r^k,
    sigmabar_k[r] / r^k) for k = 0..k_max of one activation, prepared once
    per (f, k_max) and called per r.

    A pure Hermite activation (``f.pure_hermite_degree`` set, at most k_max)
    holds the layout of its closed form and never touches quadrature; any
    other activation holds project_activation's nodes, matrices and
    exponents, and is projected by the same code.  A call refuses an r that
    is not positive and finite, and, for a projected activation, an r so small
    that r^k_max underflows to 0.  It returns new arrays, or, given ``out``
    (a pair that an earlier call of the same source returned), writes into
    that pair and returns it, with the same bits; a pure Hermite activation
    then writes only its entries that depend on r.  The prepared arrays are
    read-only.
    """

    __slots__ = ("f", "k_max", "pure", "projection", "ks")

    def __init__(self, f, k_max: int):
        if k_max < 0:
            raise ConfigurationError("k_max must be >= 0")
        self.f, self.k_max = f, k_max
        kp = f.pure_hermite_degree
        self.pure = None if kp is None else _pure_layout(kp)
        self.projection = _projection_matrices(k_max) if kp is None else None
        self.ks, _ = series_workspace(k_max)

    def __call__(self, r: float, out=None) -> tuple[np.ndarray, np.ndarray]:
        _check_variance(r)
        if self.pure is not None:
            return _pure_rescaled(self.pure, r, self.k_max, out)
        sigma, sigma_bar = _project(self.f, r, self.projection)
        powers = r**self.ks
        # r^k falls with k when r < 1, so the top power is the first to underflow
        if powers[-1] == 0.0:
            raise ConfigurationError(
                f"variance r = {r!r} is too small for k_max = {self.k_max}: "
                f"r**{self.k_max} underflows to 0, so sigma_k[r] / r^k is not finite"
            )
        sh, sbh = out or (None, None)
        return np.divide(sigma, powers, out=sh), np.divide(sigma_bar, powers, out=sbh)


def pure_hermite_coefficients(k_star: int, r: float, k: int) -> tuple[float, float]:
    """Closed-form (sigma_k[r], sigmabar_k[r]) for the activation He_{k_star}.

    For k of the same parity as k_star and 0 <= k <= k_star,

        sigma_k[r] = k_star! r^k ((r-1)/2)^{(k_star-k)/2} / ((k_star-k)/2)!

    and sigmabar follows the matching piecewise form, with the top entry
    sigmabar_{k_star}[r] = k_star * sigma_{k_star}[r].  Opposite-parity
    entries vanish identically.
    """
    _check_variance(r)
    if k < 0 or k > k_star:
        raise ValueError("need 0 <= k <= k_star")
    sh, sbh = _pure_rescaled(_pure_layout(k_star), r, k_star)
    scale = r**k
    return float(sh[k] * scale), float(sbh[k] * scale)


def to_standard_basis(coeffs: HermiteCoefficients) -> np.ndarray:
    """Re-express a scaled expansion in the unit-variance basis.

    Each He_k^[r] is itself a combination of unit-variance polynomials,

        He_k^[r] = sum_j (-1)^j (r-1)^j k! / ((k-2j)! j! 2^j) He_{k-2j},

    which collapses the scaled expansion to the c-vector convention
    f = sum_n c_n He_n / n!.  Degrees above the input truncation are lost.
    """
    r = coeffs.variance
    sig = np.asarray(coeffs.sigma_k, dtype=float)
    kmax = len(sig) - 1
    c = np.zeros(kmax + 1)
    for n in range(kmax + 1):
        s = 0.0
        j = 0
        while n + 2 * j <= kmax:
            s += sig[n + 2 * j] * (-1) ** j * (r - 1) ** j / (r ** (n + 2 * j) * factorial(j) * 2**j)
            j += 1
        c[n] = s
    return c


def square_expansion(c: np.ndarray) -> np.ndarray:
    """Unit-variance coefficients of f(z)^2 from those of f(z).

    With b_k = c_k / k!, f = sum_k b_k He_k is a HermiteE series, and NumPy's
    hermemul squares it by the linearization

        He_k He_k' = sum_j j! C(k,j) C(k',j) He_{k+k'-2j},

    so an input truncated at degree K yields an exact output truncated at 2K
    (zero-padded to 2K + 1 entries).
    """
    c = np.asarray(c, dtype=float)
    n = 2 * len(c) - 1
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, n))))  # 0!, 1!, ..., (n-1)!
    b = c / fact[: len(c)]
    sq = hermemul(b, b)  # trailing zeros trimmed
    return np.pad(sq, (0, n - len(sq))) * fact


def information_exponent(c: np.ndarray) -> int:
    """Smallest degree k >= 1 with |c_k| > 1e-10; raises
    DegenerateFunctionError if every coefficient of degree >= 1 is below
    tolerance."""
    c = np.asarray(c, dtype=float)
    for k in range(1, len(c)):
        if abs(c[k]) > 1e-10:
            return k
    raise DegenerateFunctionError("no Hermite coefficient of degree >= 1 above tolerance")
