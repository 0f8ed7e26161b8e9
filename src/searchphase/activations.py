"""Catalog of scalar activations with analytic metadata, plus label transforms.

SciPy is imported only by builtin("erf") and builtin("sigmoid"), whose
specs call scipy.special's ufuncs; the other activations, and so a linear
or Hermite run, never load it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hermite import eval_scaled_hermite

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


@dataclass(frozen=True)
class ActivationSpec:
    """A named scalar function z -> sigma(z).

    derivative is a callable when analytic, or None (slope then falls back
    to a central difference).  pure_hermite_degree is set when the function
    IS a probabilists' Hermite polynomial of unit variance, enabling
    closed-form coefficients and the SGD step's hermite_value_and_slope.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]]
    pure_hermite_degree: Optional[int] = None

    def slope(self, z):
        """sigma'(z): the analytic derivative, or a central difference with h = 1e-6."""
        if self.derivative is not None:
            return self.derivative(z)
        h = 1e-6
        return (self.evaluate(z + h) - self.evaluate(z - h)) / (2.0 * h)


@dataclass(frozen=True)
class LabelTransform:
    """Pointwise transform applied to teacher outputs: identity or square."""

    kind: str = "identity"

    def __post_init__(self):
        if self.kind not in ("identity", "square"):
            raise ValueError("kind must be 'identity' or 'square'")


_HERMITE_NAME = re.compile(r"^hermite\((\d+)\)$|^hermite(\d+)$")


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_prime(z):
    # subgradient at 0 fixed to 0.5
    z = np.asarray(z, dtype=float)
    return np.where(z > 0, 1.0, 0.0) + 0.5 * (z == 0)


def builtin(name: str) -> ActivationSpec:
    """Look up a builtin activation by name.

    Known names: linear, erf, relu, sigmoid, and hermite(k) (alias
    hermiteK, e.g. hermite3) for an integer k from 1 to 169; any other
    name raises KeyError.
    """
    if name == "linear":
        # identically He_1, so the closed-form coefficient path applies
        return ActivationSpec(
            name="linear",
            evaluate=lambda z: np.asarray(z, dtype=float),
            derivative=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            pure_hermite_degree=1,
        )
    if name == "erf":
        from scipy.special import erf  # here, not at module scope: see the module docstring

        return ActivationSpec(
            name="erf",
            evaluate=lambda z: erf(z),
            derivative=lambda z: _TWO_OVER_SQRT_PI * np.exp(-np.asarray(z, float) ** 2),
        )
    if name == "relu":
        return ActivationSpec(name="relu", evaluate=_relu, derivative=_relu_prime)
    if name == "sigmoid":
        from scipy.special import expit

        def sigmoid_prime(z):
            s = expit(z)
            return s * (1.0 - s)

        return ActivationSpec(name="sigmoid", evaluate=lambda z: expit(z), derivative=sigmoid_prime)
    m = _HERMITE_NAME.match(name)
    if m:
        k = int(m.group(1) or m.group(2))
        # above 169, k! * k overflows a float, and with it default_delta's 1/(k! k)
        if not 1 <= k <= 169:
            raise KeyError(f"hermite degree must lie in [1, 169], got {name!r}")
        return ActivationSpec(
            name=name,
            evaluate=lambda z, k=k: eval_scaled_hermite(k, 1.0, z),
            derivative=lambda z, k=k: k * eval_scaled_hermite(k - 1, 1.0, z),
            pure_hermite_degree=k,
        )
    raise KeyError(f"unknown activation {name!r}")


def transform_teacher(spec: ActivationSpec, t: LabelTransform) -> ActivationSpec:
    """Compose a label transform with an activation, fixing up metadata."""
    if t.kind == "identity":
        return spec
    ev, dv = spec.evaluate, spec.derivative
    return ActivationSpec(
        name=f"square({spec.name})",
        evaluate=lambda z: ev(z) ** 2,
        # without an analytic derivative the square's slope is a central difference too
        derivative=None if dv is None else lambda z: 2.0 * ev(z) * dv(z),
        pure_hermite_degree=None,
    )
