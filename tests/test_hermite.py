"""Scaled-Hermite algebra: orthogonality, projections, squaring, exponents."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import factorial

from searchphase.hermite import (
    ConfigurationError,
    DegenerateFunctionError,
    HermiteCoefficients,
    QuadratureRule,
    eval_scaled_hermite,
    gauss_hermite_rule,
    hermite_value_and_slope,
    information_exponent,
    project_activation,
    pure_hermite_coefficients,
    scaled_hermite_table,
    square_expansion,
    to_standard_basis,
)
from searchphase.activations import builtin


def quad_mean(rule, values):
    return float(np.sum(rule.weights * values))


def test_rule_weights_normalized_and_gaussian_moments():
    rule = gauss_hermite_rule(40)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-12
    assert abs(quad_mean(rule, rule.nodes**2) - 1.0) < 1e-12
    assert abs(quad_mean(rule, rule.nodes**4) - 3.0) < 1e-10


def test_rule_is_cached():
    assert gauss_hermite_rule(24) is gauss_hermite_rule(24)


def test_orthogonality_all_degrees_and_variances():
    rule = gauss_hermite_rule(60)
    for r in (0.25, 1.0, 2.0):
        z = np.sqrt(r) * rule.nodes
        table = scaled_hermite_table(8, r, z)
        for k in range(9):
            for m in range(9):
                got = quad_mean(rule, table[k] * table[m])
                want = factorial(k) * r**k if k == m else 0.0
                assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_zero_mean_for_positive_degrees():
    rule = gauss_hermite_rule(60)
    for r in (0.25, 1.0, 2.0):
        z = np.sqrt(r) * rule.nodes
        table = scaled_hermite_table(8, r, z)
        for k in range(1, 9):
            assert abs(quad_mean(rule, table[k])) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=8),
    r=st.floats(min_value=0.05, max_value=3.0),
    z=st.floats(min_value=-3.0, max_value=3.0),
)
def test_derivative_identity_central_difference(k, r, z):
    h = 1e-6
    got = (eval_scaled_hermite(k, r, z + h) - eval_scaled_hermite(k, r, z - h)) / (2 * h)
    want = k * eval_scaled_hermite(k - 1, r, z)
    assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_derivative_identity_at_random_points():
    rng = np.random.default_rng(7)
    z = rng.normal(size=20)
    h = 1e-6
    for k in range(1, 9):
        for r in (0.25, 1.0, 2.0):
            got = (eval_scaled_hermite(k, r, z + h) - eval_scaled_hermite(k, r, z - h)) / (2 * h)
            want = k * eval_scaled_hermite(k - 1, r, z)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * max(1.0, np.max(np.abs(want))))


def test_low_degree_closed_forms():
    z = np.linspace(-2, 2, 9)
    r = 0.7
    np.testing.assert_allclose(eval_scaled_hermite(0, r, z), np.ones_like(z))
    np.testing.assert_allclose(eval_scaled_hermite(1, r, z), z)
    np.testing.assert_allclose(eval_scaled_hermite(2, r, z), z**2 - r)
    np.testing.assert_allclose(eval_scaled_hermite(3, r, z), z**3 - 3 * r * z)


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(nodes=np.zeros(3), weights=np.ones(3))  # weights sum to 3
    with pytest.raises(ValueError):
        QuadratureRule(nodes=np.zeros(2), weights=np.full(3, 1 / 3))


def test_closed_form_matches_quadrature_projection():
    for k_star in range(1, 7):
        act = builtin(f"hermite({k_star})")
        for r in (0.04, 0.25, 0.81):
            coeffs = project_activation(act, r, k_max=k_star)
            closed = np.array([pure_hermite_coefficients(k_star, r, k) for k in range(k_star + 1)])
            np.testing.assert_allclose(coeffs.sigma_k, closed[:, 0], rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(coeffs.sigma_bar_k, closed[:, 1], rtol=1e-8, atol=1e-12)


def test_projection_reconstructs_activation():
    # pointwise truncation error on |z| <= 3 sd; convergence there is much
    # slower than in L2 (see the Parseval test), so the bound is loose
    act = builtin("erf")
    r = 0.64
    coeffs = project_activation(act, r, k_max=25)
    z = np.linspace(-3.0, 3.0, 41) * np.sqrt(r)
    table = scaled_hermite_table(25, r, z)
    inv_fact_rk = np.array([1.0 / (factorial(k) * r**k) for k in range(26)])
    recon = (coeffs.sigma_k * inv_fact_rk) @ table
    assert np.max(np.abs(recon - act.evaluate(z))) < 1e-3


def test_standard_basis_round_trip_at_unit_variance():
    act = builtin("sigmoid")
    coeffs = project_activation(act, 1.0, k_max=12)
    converted = to_standard_basis(coeffs)
    np.testing.assert_allclose(converted, coeffs.sigma_k, rtol=0, atol=1e-12)


@pytest.mark.parametrize("r", [0.3, 2.0])
@pytest.mark.parametrize("k_star", [3, 4, 5])
def test_standard_basis_of_a_pure_hermite_away_from_unit_variance(k_star, r):
    # He_{k_star} is k_star! e_{k_star} in the unit-variance basis, whatever r it was scaled at
    sig, sig_bar = np.array([pure_hermite_coefficients(k_star, r, k) for k in range(k_star + 1)]).T
    converted = to_standard_basis(HermiteCoefficients(variance=r, sigma_k=sig, sigma_bar_k=sig_bar))
    want = np.zeros(k_star + 1)
    want[k_star] = factorial(k_star)
    np.testing.assert_allclose(converted, want, rtol=0, atol=1e-12)


def test_parseval_for_smooth_activations():
    rule = gauss_hermite_rule(80)
    for name in ("erf", "sigmoid"):
        act = builtin(name)
        coeffs = project_activation(act, 1.0, k_max=25)
        series = sum(
            coeffs.sigma_k[k] ** 2 / factorial(k) for k in range(26)
        )
        direct = quad_mean(rule, act.evaluate(rule.nodes) ** 2)
        assert abs(series - direct) < 1e-6


def test_square_expansion_of_degree_three():
    c = np.array([0.0, 0.0, 0.0, 6.0])
    squared = square_expansion(c)
    np.testing.assert_allclose(squared, [6.0, 0.0, 36.0, 0.0, 216.0, 0.0, 720.0])


def test_square_expansion_against_quadrature():
    # f = sum_k c_k He_k / k!  =>  coefficient k of f^2 equals E[f^2 He_k]
    rng = np.random.default_rng(3)
    c = rng.normal(size=5)
    squared = square_expansion(c)
    rule = gauss_hermite_rule(60)
    table = scaled_hermite_table(len(squared) - 1, 1.0, rule.nodes)
    inv_fact = np.array([1.0 / factorial(k) for k in range(len(c))])
    f = (c * inv_fact) @ table[: len(c)]
    proj = np.array([quad_mean(rule, f * f * table[k]) for k in range(len(squared))])
    np.testing.assert_allclose(proj, squared, rtol=0, atol=1e-8)


def test_information_exponent_examples():
    assert information_exponent(np.array([0.0, 0.0, 0.0, 6.0])) == 3
    relu = project_activation(builtin("relu"), 1.0, k_max=10)
    assert information_exponent(relu.sigma_k) == 1
    squared = square_expansion(np.array([0.0, 0.0, 0.0, 6.0]))
    assert information_exponent(squared) == 2


def test_information_exponent_rejects_flat_vectors():
    with pytest.raises(DegenerateFunctionError):
        information_exponent(np.array([2.0, 0.0, 0.0]))


def test_project_activation_validates_inputs():
    act = builtin("erf")
    with pytest.raises(ConfigurationError):
        project_activation(act, 0.0, k_max=5)
    with pytest.raises(ConfigurationError):
        project_activation(act, 1.0, k_max=-1)


def test_coefficients_container_validation():
    with pytest.raises(ValueError):
        HermiteCoefficients(variance=-1.0, sigma_k=np.zeros(3), sigma_bar_k=np.zeros(3))
    with pytest.raises(ValueError):
        HermiteCoefficients(variance=1.0, sigma_k=np.zeros(3), sigma_bar_k=np.zeros(2))


def test_missing_derivative_falls_back_to_central_difference():
    erf = builtin("erf")
    numeric = dataclasses.replace(erf, derivative=None)
    for r in (0.25, 1.0):
        want = project_activation(erf, r, k_max=12).sigma_bar_k
        got = project_activation(numeric, r, k_max=12).sigma_bar_k
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def test_recurrence_matches_zeros_ones_reference_bit_for_bit():
    # the recurrence as first written: (prev, cur) start as arrays of zeros and ones
    def reference(k, r, z):
        z = np.asarray(z, dtype=float)
        prev, cur = np.zeros_like(z), np.ones_like(z)
        for j in range(k):
            prev, cur = cur, z * cur - j * r * prev
        return cur

    z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.25, 1e200, -3e-300])
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(12):
            for r in (1.0, 0.3, 2.5):
                got = eval_scaled_hermite(k, r, z)
                assert got.tobytes() == reference(k, r, z).tobytes()
                for v in z:
                    one = eval_scaled_hermite(k, r, float(v))
                    assert isinstance(one, float)
                    assert np.float64(one).tobytes() == reference(k, r, v).tobytes()
    linear = eval_scaled_hermite(1, 1.0, z)
    assert not np.shares_memory(linear, z)
    linear[:] = 7.0
    assert z[6] == 1.5
    # the zeros/ones start turned r = inf or nan into nan; such r is now refused
    for r in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            eval_scaled_hermite(2, r, z)


NONFINITE = (float("nan"), float("inf"), -float("inf"))


def test_project_activation_refuses_a_nonfinite_variance():
    for r in NONFINITE:
        with pytest.raises(ConfigurationError):
            project_activation(builtin("erf"), r, 10)


def test_pure_hermite_coefficients_refuse_a_nonfinite_variance():
    for r in NONFINITE:
        with pytest.raises(ValueError):
            pure_hermite_coefficients(2, r, 0)


def test_coefficient_source_refuses_a_nonfinite_variance():
    from searchphase.hermite import CoefficientSource

    for act in (builtin("erf"), builtin("hermite2"), builtin("linear")):
        source = CoefficientSource(act, 10)
        for r in NONFINITE + (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                source(r)


def test_rescaled_coefficients_never_share_their_arrays():
    # a caller that writes into one result cannot change the next
    from searchphase.hermite import CoefficientSource

    for act in (builtin("erf"), builtin("hermite3"), builtin("linear")):
        want = [a.copy() for a in CoefficientSource(act, 12)(0.5)]
        source = CoefficientSource(act, 12)
        for got in source(0.5), source(0.5):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
                a[...] = 7.0
        first = source(0.5)
        second = source(0.5)
        assert not any(np.shares_memory(a, b) for a in first for b in second)


def test_coefficient_source_refuses_a_variance_whose_top_power_underflows():
    # at r = 1e-10, r**k is 0.0 for k >= 33, and sigma_k[r] / r^k would be x / 0
    from searchphase.hermite import CoefficientSource
    from searchphase.theory import ModelConfig, linearize_search_phase

    erf = builtin("erf")
    with pytest.raises(ConfigurationError, match=r"r = 1\.0000000000000002e-10 .*k_max = 40"):
        CoefficientSource(erf, 40)(1e-5 * 1e-5)
    with pytest.raises(ConfigurationError, match="k_max = 33"):
        CoefficientSource(erf, 33)(1e-10)
    with pytest.raises(ConfigurationError, match="underflows"):
        linearize_search_phase(ModelConfig(teacher=erf, student=erf, mu=1e-5, k_max=40))
    # k_max = 32 keeps r**32 a subnormal, and a pure activation has no powers to divide by
    for act, k_max in ((erf, 32), (builtin("hermite3"), 40), (builtin("linear"), 40)):
        for a in CoefficientSource(act, k_max)(1e-10):
            assert np.all(np.isfinite(a))


def test_table_rows_are_the_recurrence_bit_for_bit():
    rng = np.random.default_rng(3)
    grids = (1.5, rng.standard_normal(7) * 3, rng.standard_normal((3, 4)) * 2)
    for r in (1e-8, 0.3, 1.0, 2.5, 7.0):
        for z in grids:
            table = scaled_hermite_table(40, r, z)
            assert table.shape == (41,) + np.shape(z)
            for k in range(41):
                want = np.asarray(eval_scaled_hermite(k, r, z), dtype=float)
                assert table[k].tobytes() == want.tobytes()


def test_table_refuses_a_variance_that_is_not_positive_and_finite():
    z = np.linspace(-1.0, 1.0, 5)
    for r in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="variance"):
            scaled_hermite_table(4, r, z)


@pytest.mark.parametrize("k", range(1, 10))
def test_value_and_slope_are_the_two_recurrences_bit_for_bit(k):
    # on strided views like a batch's frame coordinate x[:, 0], and on a
    # contiguous array; the inputs are left as they were
    x = np.random.default_rng(k).standard_normal((500, 3)) * 3.0
    before = x.copy()
    for z in (x[:, 0], x[:, 2], x[::3, 1], np.ascontiguousarray(x[:, 1])):
        value, slope = hermite_value_and_slope(k, z)
        assert value.tobytes() == eval_scaled_hermite(k, 1.0, z).tobytes()
        assert slope.tobytes() == (k * eval_scaled_hermite(k - 1, 1.0, z)).tobytes()
        assert not np.shares_memory(value, x) and not np.shares_memory(slope, x)
        student = builtin(f"hermite{k}")
        assert value.tobytes() == student.evaluate(z).tobytes()
        assert slope.tobytes() == student.slope(z).tobytes()
    assert x.tobytes() == before.tobytes()
