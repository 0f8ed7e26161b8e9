"""Builtin activation registry, derivatives, label transforms."""

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from searchphase.activations import LabelTransform, builtin, transform_teacher


def test_known_names_resolve():
    for name in ("linear", "erf", "relu", "sigmoid", "hermite(1)", "hermite(4)"):
        spec = builtin(name)
        assert callable(spec.evaluate)


def test_hermite_alias_forms_agree():
    z = np.linspace(-2, 2, 7)
    np.testing.assert_allclose(builtin("hermite3").evaluate(z), builtin("hermite(3)").evaluate(z))


def test_unknown_name_raises_key_error():
    with pytest.raises(KeyError):
        builtin("gelu")
    with pytest.raises(KeyError):
        builtin("hermite(0)")
    # 170! * 170 overflows a float, so default_delta could not be formed
    with pytest.raises(KeyError, match="169"):
        builtin("hermite(170)")


def test_pure_degrees():
    assert builtin("linear").pure_hermite_degree == 1
    assert builtin("hermite(6)").pure_hermite_degree == 6
    assert builtin("erf").pure_hermite_degree is None
    assert builtin("relu").pure_hermite_degree is None


def test_values_match_references():
    z = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(builtin("linear").evaluate(z), z)
    np.testing.assert_allclose(builtin("erf").evaluate(z), scipy_erf(z))
    np.testing.assert_allclose(builtin("relu").evaluate(z), np.maximum(z, 0.0))
    np.testing.assert_allclose(builtin("sigmoid").evaluate(z), 1.0 / (1.0 + np.exp(-z)))


def test_derivatives_match_central_differences():
    rng = np.random.default_rng(11)
    z = rng.normal(size=30)
    z = z[np.abs(z) > 1e-3]  # keep away from the relu kink
    h = 1e-6
    for name in ("linear", "erf", "relu", "sigmoid", "hermite(2)", "hermite(5)"):
        spec = builtin(name)
        fd = (spec.evaluate(z + h) - spec.evaluate(z - h)) / (2 * h)
        np.testing.assert_allclose(spec.derivative(z), fd, rtol=1e-5, atol=1e-6)


def test_relu_derivative_at_kink_is_half():
    assert builtin("relu").derivative(np.array([0.0]))[0] == 0.5


def test_label_transform_identity_and_square():
    with pytest.raises(ValueError):
        LabelTransform("cube")


def test_transform_teacher_squares_outputs():
    he3 = builtin("hermite(3)")
    sq = transform_teacher(he3, LabelTransform("square"))
    z = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(sq.evaluate(z), he3.evaluate(z) ** 2)
    assert sq.pure_hermite_degree is None
    # chain rule for the composed derivative
    h = 1e-6
    fd = (sq.evaluate(z + h) - sq.evaluate(z - h)) / (2 * h)
    np.testing.assert_allclose(sq.derivative(z), fd, rtol=1e-5, atol=1e-6)


def test_transform_teacher_identity_is_noop():
    he3 = builtin("hermite(3)")
    assert transform_teacher(he3, LabelTransform("identity")) is he3


def test_erf_and_sigmoid_are_scipy_special_bit_for_bit():
    from scipy.special import expit

    grid = np.linspace(-40.0, 40.0, 801)
    z = np.concatenate([grid, [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 5e-324]])
    s = expit(z)
    for got, want in ((builtin("erf").evaluate(z), scipy_erf(z)),
                      (builtin("sigmoid").evaluate(z), s),
                      (builtin("sigmoid").slope(z), s * (1.0 - s))):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
