"""Population loss, gradients, search-phase linearization, escape times."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from searchphase.activations import builtin, LabelTransform, transform_teacher
from searchphase.hermite import CoefficientSource, pure_hermite_coefficients
from searchphase.theory import (
    DegenerateStateError,
    SeriesConvergenceWarning,
    ModelConfig,
    OrderParameterState,
    asymptotic_tau,
    correlation_gradients,
    correlation_loss,
    default_delta,
    drift_eigenvalues,
    effective_potential,
    find_singularities,
    linearize_search_phase,
    loss_gradients,
    population_loss,
    tau_curve,
)

LINEAR = builtin("linear")
ERF = builtin("erf")
HE2 = builtin("hermite(2)")
HE3 = builtin("hermite(3)")


def model(act, mu, k_max=25, delta=None):
    return ModelConfig(teacher=act, student=act, mu=mu, k_max=k_max, delta=delta)


# ---------------------------------------------------------------------------
# configuration and state validation
# ---------------------------------------------------------------------------


def test_model_config_validation():
    with pytest.raises(ValueError):
        model(LINEAR, 0.0)
    with pytest.raises(ValueError):
        model(LINEAR, 1.0)
    with pytest.raises(ValueError):
        ModelConfig(teacher=HE3, student=HE3, mu=0.5, k_max=2)  # cannot hold degree 3
    with pytest.raises(ValueError):
        ModelConfig(teacher=LINEAR, student=LINEAR, mu=0.5, delta=-1.0)


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_a_non_finite_delta_is_refused(delta):
    # an infinite delta used to give tau = nan
    with pytest.raises(ValueError, match="delta"):
        model(LINEAR, 0.5, delta=delta)


def test_default_delta_values():
    assert default_delta(LINEAR) == 1.0
    assert default_delta(ERF) == 1.0
    assert default_delta(HE3) == pytest.approx(1.0 / (math.factorial(3) * 3))
    assert default_delta(builtin("hermite(5)")) == pytest.approx(1.0 / (math.factorial(5) * 5))


def test_state_geometry():
    s = OrderParameterState(u=0.3, m=-0.5)
    mu = 0.4
    assert s.m_eff(mu) == pytest.approx(mu + 0.3 * (-0.5))
    assert s.r(mu) == pytest.approx(mu**2 + 0.3**2 + 2 * mu * 0.3 * (-0.5))


def test_degenerate_state_rejected():
    cfg = model(LINEAR, 0.5, k_max=2)
    # u = -2 mu m / ... pick u, m with r ~ 0: u = mu, m = -1 gives r = 0
    with pytest.raises(DegenerateStateError):
        population_loss(cfg, OrderParameterState(u=0.5, m=-1.0))


# ---------------------------------------------------------------------------
# population loss and gradients
# ---------------------------------------------------------------------------


def test_quadratic_teacher_loss_value():
    # teacher He_2, student He_2, mu = 0.5, u = m = 0: r = 0.25 and the
    # only surviving series terms give 27/32
    cfg = model(HE2, 0.5)
    val = population_loss(cfg, OrderParameterState(0.0, 0.0))
    assert val == pytest.approx(0.84375, abs=1e-12)


def test_perfect_recovery_zero_loss():
    cfg = model(LINEAR, 0.3, k_max=2)
    # m = 1, u = 1 - mu gives m_eff = 1, r = 1: exact recovery
    val = population_loss(cfg, OrderParameterState(u=0.7, m=1.0))
    assert abs(val) < 1e-12


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    checked = 0
    # erf needs the longer series: states here reach r ~ 2 where its
    # coefficient tail decays slowly
    acts = [(LINEAR, 2), (ERF, 40), (HE2, 25), (HE3, 25)]
    while checked < 50:
        act, k_max = acts[checked % len(acts)]
        mu = rng.uniform(0.1, 0.9)
        cfg = model(act, mu, k_max=k_max)
        state = OrderParameterState(u=rng.uniform(-0.6, 0.6), m=rng.uniform(-0.9, 0.9))
        if state.r(mu) <= 0.01:
            continue
        du, dm = loss_gradients(cfg, state)
        h = 1e-6
        fd_u = (
            population_loss(cfg, OrderParameterState(state.u + h, state.m))
            - population_loss(cfg, OrderParameterState(state.u - h, state.m))
        ) / (2 * h)
        fd_m = (
            population_loss(cfg, OrderParameterState(state.u, state.m + h))
            - population_loss(cfg, OrderParameterState(state.u, state.m - h))
        ) / (2 * h)
        scale = max(abs(fd_u), abs(fd_m), 1e-8)
        assert abs(du - fd_u) <= 1e-5 * scale
        assert abs(dm - fd_m) <= 1e-5 * scale
        checked += 1


def test_gradients_match_monte_carlo():
    # reduced 2-coordinate sampling: s along the teacher, g orthogonal
    rng = np.random.default_rng(5)
    n = 1_000_000
    s = rng.standard_normal(n)
    g = rng.standard_normal(n)
    for trial in range(10):
        act, k_max = [(LINEAR, 2), (ERF, 40), (HE3, 25)][trial % 3]
        mu = rng.uniform(0.15, 0.85)
        cfg = model(act, mu, k_max=k_max)
        u = rng.uniform(-0.5, 0.5)
        m = rng.uniform(-0.8, 0.8)
        state = OrderParameterState(u, m)
        if state.r(mu) <= 0.01:
            continue
        du, dm = loss_gradients(cfg, state)
        perp = math.sqrt(1.0 - m * m)
        pre = (mu + u * m) * s + u * perp * g
        err = act.evaluate(pre) - act.evaluate(s)
        dpre_du = m * s + perp * g
        dpre_dm = u * s - u * m / perp * g
        sample_u = err * act.derivative(pre) * dpre_du
        sample_m = err * act.derivative(pre) * dpre_dm
        for got, samples in ((du, sample_u), (dm, sample_m)):
            se = float(np.std(samples)) / math.sqrt(n)
            assert abs(got - float(np.mean(samples))) <= 3.0 * se


def test_correlation_loss_and_gradients_linear():
    for mu in np.linspace(0.05, 0.95, 10):
        cfg = model(LINEAR, float(mu), k_max=2)
        state = OrderParameterState(u=0.21, m=-0.4)
        du, dm = correlation_gradients(cfg, state)
        assert du == pytest.approx(-state.m, abs=1e-12)
        assert dm == pytest.approx(-state.u, abs=1e-12)
        val = correlation_loss(cfg, state)
        assert val == pytest.approx(1.0 - state.m_eff(float(mu)), abs=1e-12)


def test_correlation_gradients_match_finite_differences():
    cfg = model(ERF, 0.4)
    state = OrderParameterState(u=0.3, m=0.2)
    du, dm = correlation_gradients(cfg, state)
    h = 1e-6
    fd_u = (
        correlation_loss(cfg, OrderParameterState(state.u + h, state.m))
        - correlation_loss(cfg, OrderParameterState(state.u - h, state.m))
    ) / (2 * h)
    fd_m = (
        correlation_loss(cfg, OrderParameterState(state.u, state.m + h))
        - correlation_loss(cfg, OrderParameterState(state.u, state.m - h))
    ) / (2 * h)
    assert du == pytest.approx(fd_u, rel=1e-5)
    assert dm == pytest.approx(fd_m, rel=1e-5)


# ---------------------------------------------------------------------------
# linearization, eigenvalues, escape time
# ---------------------------------------------------------------------------


def test_linear_activation_closed_form():
    for mu in np.linspace(0.05, 0.95, 20):
        lin = linearize_search_phase(model(LINEAR, float(mu), k_max=2))
        assert abs(lin.A - (1.0 - mu)) < 1e-12
        assert abs(lin.B - (-1.0)) < 1e-12
        a = 1.0 - mu
        tau_closed = (1.0 + math.sqrt(1.0 + 4.0 * a * a)) / (2.0 * a * a)
        assert abs(lin.tau - tau_closed) <= 1e-12 * tau_closed
        assert lin.converged


def test_linearization_consistency_with_exact_gradients():
    # sigmoid has phi_0 != 0 but sigmabar_0 ~ 1e-18, so the k = 0 term that
    # B leaves out stays far below the tolerance
    for act, k_max in ((LINEAR, 2), (ERF, 25), (HE3, 25), (builtin("sigmoid"), 40)):
        for mu in (0.2, 0.6):
            cfg = model(act, mu, k_max=k_max)
            lin = linearize_search_phase(cfg)
            delta = cfg.delta if cfg.delta is not None else default_delta(act)
            eps = 1e-6 / math.sqrt(2.0)
            state = OrderParameterState(u=eps, m=eps)
            du, dm = loss_gradients(cfg, state)
            # the delta-absorbed linear system is (du, dm)*delta ~ (-uB-mA, -uA)
            want_u = -(eps * lin.B + eps * lin.A)
            want_m = -(eps * lin.A)
            scale = max(abs(want_u), abs(want_m))
            assert abs(delta * du - want_u) <= 1e-3 * scale
            assert abs(delta * dm - want_m) <= 1e-3 * scale


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=-3.0, max_value=3.0),
    b=st.floats(min_value=-3.0, max_value=3.0),
)
def test_escape_time_identity(a, b):
    if abs(a) < 1e-6:
        return
    lam_plus, lam_minus = drift_eigenvalues(a, b)
    assert lam_minus < 0.0 < lam_plus
    # both values solve x^2 - Bx - A^2 = 0: check the root relations,
    # which are branch-free and hold at machine precision
    assert lam_plus * lam_minus == pytest.approx(-a * a, rel=1e-12)
    assert lam_plus + lam_minus == pytest.approx(b, rel=1e-12, abs=1e-12)
    if b <= 0.0:
        # with B <= 0 the subtraction below is cancellation-free, so the
        # reciprocal-root form of the escape time can be checked directly
        disc = math.hypot(b, 2.0 * a)
        assert 1.0 / lam_plus == pytest.approx((disc - b) / (2.0 * a * a), rel=1e-12)


def test_eigenvalues_survive_catastrophic_cancellation():
    lam_plus, lam_minus = drift_eigenvalues(1e-12, -1.0)
    assert lam_plus > 0.0
    assert 1.0 / lam_plus == pytest.approx(1e24, rel=1e-6)


def test_cubic_teacher_drift_coefficients():
    lin = linearize_search_phase(model(HE3, 0.2))
    assert lin.A == pytest.approx(-0.0448, abs=5e-5)
    assert lin.B == pytest.approx(-0.424, abs=5e-4)
    assert lin.tau == pytest.approx(213.589, rel=1e-4)
    lin = linearize_search_phase(model(HE3, 0.325))
    assert lin.A == pytest.approx(0.0027164795, rel=1e-6)
    assert lin.B == pytest.approx(-0.3166416016, rel=1e-6)
    assert lin.tau == pytest.approx(42913.0, rel=1e-3)


def test_cubic_teacher_sign_structure():
    assert linearize_search_phase(model(HE3, 0.05)).A < 0.0
    assert linearize_search_phase(model(HE3, 0.7)).A > 0.0


def test_tau_reported_infinite_at_singularity():
    roots = find_singularities(HE3, HE3)
    assert len(roots) == 1
    lin = linearize_search_phase(model(HE3, roots[0]))
    assert math.isinf(lin.tau)


def test_singularity_locations_for_odd_pure_teachers():
    roots3 = find_singularities(HE3, HE3)
    assert len(roots3) == 1
    assert roots3[0] == pytest.approx(0.32072, abs=1e-4)
    roots5 = find_singularities(builtin("hermite(5)"), builtin("hermite(5)"))
    assert len(roots5) == 1
    assert roots5[0] == pytest.approx(0.42531, abs=1e-4)


def test_even_pure_teachers_have_no_singularity():
    assert find_singularities(builtin("hermite(4)"), builtin("hermite(4)")) == []
    assert find_singularities(builtin("hermite(6)"), builtin("hermite(6)")) == []


def test_singularity_grid_resolution_enforced():
    with pytest.raises(ValueError):
        find_singularities(HE3, HE3, mu_grid=np.linspace(0.01, 0.99, 20))


def test_tau_curve_vectorizes_linearization():
    grid = np.linspace(0.1, 0.9, 9)
    curve = tau_curve(LINEAR, LINEAR, grid, k_max=2)
    np.testing.assert_allclose(curve.A, 1.0 - grid, atol=1e-12)
    np.testing.assert_allclose(curve.B, -1.0, atol=1e-12)
    assert curve.converged.all()
    for mu, tau in zip(grid, curve.tau):
        one = linearize_search_phase(model(LINEAR, float(mu), k_max=2))
        assert tau == pytest.approx(one.tau, rel=1e-14)


def test_asymptotic_tau_near_one():
    for k in (3, 5):
        act = builtin(f"hermite({k})")
        lin = linearize_search_phase(model(act, 0.999))
        ratio = lin.tau / asymptotic_tau(k, 0.999, "near_one")
        assert 0.95 <= ratio <= 1.05
        assert abs(ratio - 1.0) < 0.01


def test_asymptotic_tau_near_zero_parity_split():
    # odd degrees: tau ~ 1/mu^2; even degrees: tau finite
    for k, ratio_lo, ratio_hi in ((3, 80.0, 120.0), (5, 80.0, 120.0)):
        act = builtin(f"hermite({k})")
        t1 = linearize_search_phase(model(act, 0.001)).tau
        t2 = linearize_search_phase(model(act, 0.01)).tau
        assert ratio_lo <= t1 / t2 <= ratio_hi
    for k in (3, 5, 7):
        act = builtin(f"hermite({k})")
        t1 = linearize_search_phase(model(act, 0.001)).tau
        assert t1 == pytest.approx(asymptotic_tau(k, 0.001, "near_zero"), rel=0.05)
    for k in (4, 6):
        act = builtin(f"hermite({k})")
        t1 = linearize_search_phase(model(act, 0.001)).tau
        t2 = linearize_search_phase(model(act, 0.01)).tau
        assert math.isfinite(t2)
        assert abs(t2 / t1 - 1.0) < 0.1
        assert t2 == pytest.approx(asymptotic_tau(k, 0.01, "near_zero"), rel=0.05)


def test_asymptotic_tau_validates_regime():
    with pytest.raises(ValueError):
        asymptotic_tau(3, 0.5, "bulk")
    with pytest.raises(ValueError):
        asymptotic_tau(2, 0.5, "near_zero")  # needs k >= 3


def test_even_hermite_mean_values():
    # sigma_0[r] = k*! (r-1)^{k*/2} / (2^{k*/2} (k*/2)!) of an even pure Hermite
    assert pure_hermite_coefficients(2, 0.25, 0)[0] == pytest.approx(-0.75, abs=1e-12)
    assert pure_hermite_coefficients(4, 0.25, 0)[0] == pytest.approx(1.6875, abs=1e-12)
    # vanishes continuously at unit variance
    assert abs(pure_hermite_coefficients(4, 0.9999, 0)[0]) < 1e-3


def test_effective_potential():
    lin = linearize_search_phase(model(LINEAR, 0.5, k_max=2))
    v0, f0 = effective_potential(lin, 0.0)
    assert v0 == 0.0 and f0 == 0.0
    # with A = 1 the depth at g=1 is -log cosh 1
    lin_a1 = linearize_search_phase(model(LINEAR, 0.999999, k_max=2))
    v, f = effective_potential(lin_a1, 1.0)
    assert v / lin_a1.A**2 == pytest.approx(-math.log(math.cosh(1.0)), rel=1e-9)
    rng = np.random.default_rng(2)
    for g in rng.normal(scale=2.0, size=10):
        vp, _ = effective_potential(lin, float(g))
        vm, _ = effective_potential(lin, float(-g))
        assert vp == pytest.approx(vm, rel=1e-12, abs=1e-300)
    # overflow-free at large argument
    v_big, f_big = effective_potential(lin, 1000.0)
    assert math.isfinite(v_big) and math.isfinite(f_big)


def test_matching_minimum_reaches_full_alignment():
    for act, k_max in ((LINEAR, 2), (ERF, 40), (HE2, 25)):
        for mu in (0.3, 0.7):
            cfg = model(act, mu, k_max=k_max)

            def f(x):
                # exploratory probes may visit wide-variance states where the
                # truncated series is rough; only the converged minimum is
                # evaluated with warnings live below
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SeriesConvergenceWarning)
                    try:
                        return population_loss(
                            cfg, OrderParameterState(float(x[0]), float(x[1]))
                        )
                    except ValueError:
                        # degenerate or out-of-range state: steer the search away
                        return 1e6

            best = None
            for x0 in ((1.0 - mu, 0.9), (0.5, 0.5), (1.2, -0.9)):
                res = minimize(f, x0, method="Nelder-Mead",
                               options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
                if best is None or res.fun < best.fun:
                    best = res
            u, m = best.x
            m = float(np.clip(m, -1.0, 1.0))
            m_eff = mu + u * m
            assert abs(abs(m_eff) - 1.0) < 1e-5
            final = population_loss(cfg, OrderParameterState(float(u), m))
            assert final < 1e-9


def test_squared_teacher_removes_odd_singularity():
    for k in (3, 5):
        act = builtin(f"hermite({k})")
        squared = transform_teacher(act, LabelTransform("square"))
        assert find_singularities(squared, act) == []


def test_tau_curve_computes_teacher_coefficients_once():
    # the cache is keyed on (teacher, k_max), not on the per-mu config
    from searchphase.theory import _teacher_coefficients_cached

    act = builtin("erf")  # a fresh spec the cache has never seen
    before = _teacher_coefficients_cached.cache_info()
    tau_curve(act, act, np.linspace(0.05, 0.95, 19), k_max=30)
    after = _teacher_coefficients_cached.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits >= 18


def test_pure_hermite_path_matches_quadrature_path():
    # the same polynomial without its degree tag goes through quadrature
    states = [OrderParameterState(0.1, 0.2), OrderParameterState(0.4, -0.3), OrderParameterState(0.7, 0.9)]
    for k in range(1, 8):
        act = builtin(f"hermite{k}")
        plain = dataclasses.replace(act, pure_hermite_degree=None)
        for mu in (0.3, 0.5, 0.8):
            closed = model(act, mu, delta=default_delta(act))
            quad = model(plain, mu, delta=closed.delta)
            for s in states:
                for fn in (population_loss, loss_gradients, correlation_gradients):
                    np.testing.assert_allclose(fn(quad, s), fn(closed, s), rtol=1e-9, atol=1e-13)
            lin_c, lin_q = linearize_search_phase(closed), linearize_search_phase(quad)
            np.testing.assert_allclose([lin_q.A, lin_q.B], [lin_c.A, lin_c.B], rtol=1e-9, atol=1e-13)
    for k in range(1, 10):
        phi = model(builtin(f"hermite{k}"), 0.5).series.phi
        assert phi[k] == float(math.factorial(k))
        assert np.count_nonzero(phi) == 1


def test_linearization_accepts_mu_below_the_state_floor():
    # mu^2 = 1e-14 is below the state paths' R_FLOOR; the base point is exempt
    for act in (LINEAR, HE3):
        lin = linearize_search_phase(model(act, 1e-7))
        assert math.isfinite(lin.A) and math.isfinite(lin.B)


# ---------------------------------------------------------------------------
# the per-config series kernel keeps every bit of the expressions written out
# ---------------------------------------------------------------------------


def _reference_rescaled(act, r, k_max):
    # the closed form as first written (zeros, then every same-parity degree
    # from ((r-1)/2)^j), or quadrature coefficients divided by r^k
    k_star = act.pure_hermite_degree
    if k_star is None:
        return CoefficientSource(act, k_max)(r)
    inv = np.array([1.0 / math.factorial(j) for j in range(k_star + 1)])
    fk = float(math.factorial(k_star))
    ks = np.arange(k_star % 2, k_star + 1, 2)
    js = (k_star - ks) // 2
    low = ks[:-1]
    jb = (k_star - 2 - low) // 2
    half = (r - 1.0) / 2.0
    sh, sbh = np.zeros(k_max + 1), np.zeros(k_max + 1)
    sh[ks] = fk * half**js * inv[js]
    sbh[k_star] = k_star * sh[k_star]
    sbh[low] = fk * half**jb * inv[jb] * (k_star * r - low) / (k_star - low)
    return sh, sbh


def _reference_expand(cfg, r):
    # (phi, ks, 1/k!, sh, sbh) rebuilt in full on every call
    ks = np.arange(cfg.k_max + 1, dtype=float)
    inv_fact = np.ones(cfg.k_max + 1)
    for k in range(1, cfg.k_max + 1):
        inv_fact[k] = inv_fact[k - 1] / k
    phi, _ = _reference_rescaled(cfg.teacher, 1.0, cfg.k_max)
    return (phi, ks, inv_fact, *_reference_rescaled(cfg.student, r, cfg.k_max))


def _reference_sums(cfg, s):
    r = s.r(cfg.mu)
    phi, ks, inv_fact, sh, sbh = _reference_expand(cfg, r)
    me_pow = s.m_eff(cfg.mu) ** ks
    c1 = float((inv_fact * sh * sbh * r ** (ks - 1.0)).sum())
    sa = float(((inv_fact * ks)[1:] * phi[1:] * me_pow[:-1] * sh[1:]).sum())
    sb = float(((inv_fact * ks)[1:] * phi[1:] * me_pow[1:] * sh[1:] / r).sum())
    sc = float((inv_fact * phi * me_pow * sbh / r).sum())
    return c1, sa, sb, sc


def _reference_values(cfg, s):
    """population_loss, loss_gradients, correlation_loss, correlation_gradients."""
    r, me = s.r(cfg.mu), s.m_eff(cfg.mu)
    phi, ks, inv_fact, sh, _ = _reference_expand(cfg, r)
    loss = float((inv_fact * (0.5 * phi**2 + 0.5 * sh * sh * r**ks - sh * phi * me**ks)).sum())
    c1, sa, sb, sc = _reference_sums(cfg, s)
    g = c1 + sb - sc
    drive = s.u + cfg.mu * s.m
    grads = (drive * g - s.m * sa, s.u * cfg.mu * g - s.u * sa)
    corr = 1.0 - float((inv_fact * phi * sh * me**ks).sum())
    corr_grads = (-(drive * (sc - sb) + s.m * sa), -(s.u * cfg.mu * (sc - sb) + s.u * sa))
    return loss, grads, corr, corr_grads


def _reference_linearization(cfg):
    mu = cfg.mu
    phi, ks, inv_fact, sh, sbh = _reference_expand(cfg, mu * mu)
    mu_pow = mu**ks
    a_terms = -inv_fact * (sbh * mu_pow / mu) * (-phi + sh * mu_pow)
    b1_terms = inv_fact * sbh * sh * mu_pow * mu_pow / (mu * mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = sh - np.where(ks > 0, sbh / np.where(ks > 0, ks, 1.0), 0.0)
    b2_terms = np.zeros_like(b1_terms)
    b2_terms[1:] = (inv_fact * ks)[1:] * phi[1:] * diff[1:] * mu_pow[1:] / (mu * mu)
    b_terms = -(b1_terms + b2_terms)
    return cfg.delta * float(a_terms.sum()), cfg.delta * float(b_terms.sum())


def _kernel_pairs():
    acts = {n: builtin(n) for n in ("linear", "erf", "sigmoid", "relu", "hermite2", "hermite3")}
    pairs = [(a, a) for a in acts.values()]
    return pairs + [(transform_teacher(acts["erf"], LabelTransform("square")), acts["erf"])]


def test_series_kernel_matches_the_written_out_series_bit_for_bit():
    states = [OrderParameterState(u, m) for u in (1e-3, 0.05, 0.4, 0.9) for m in (-0.95, 1e-3, 0.3, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeriesConvergenceWarning)
        for teacher, student in _kernel_pairs():
            for k_max in (2, 25, 40):
                if (student.pure_hermite_degree or 0) > k_max:
                    continue
                for mu in (1e-7, 0.2, 0.5, 0.8):
                    if mu < 0.1 and student.pure_hermite_degree is None:
                        continue  # quadrature coefficients over r^k are 0/0 at r = 1e-14
                    cfg = ModelConfig(teacher=teacher, student=student, mu=mu, k_max=k_max)
                    lin = linearize_search_phase(cfg)
                    assert (lin.A, lin.B) == _reference_linearization(cfg), (student.name, k_max, mu)
                    if mu < 0.1:
                        continue
                    for s in states:
                        got = (population_loss(cfg, s), loss_gradients(cfg, s),
                               correlation_loss(cfg, s), correlation_gradients(cfg, s))
                        assert got == _reference_values(cfg, s), (student.name, k_max, mu, s)


def test_rescaled_coefficients_are_the_projection_over_r_to_the_k_bit_for_bit():
    from searchphase.hermite import project_activation

    squared = transform_teacher(ERF, LabelTransform("square"))
    plain_he3 = dataclasses.replace(HE3, pure_hermite_degree=None)
    for act in (ERF, builtin("sigmoid"), builtin("relu"), squared, plain_he3):
        for k_max in (2, 25, 40):
            for r in (1e-8, 0.09, 0.5, 1.0, 2.3):
                co = project_activation(act, r, k_max)
                powers = r ** np.arange(k_max + 1, dtype=float)
                sh, sbh = CoefficientSource(act, k_max)(r)
                assert sh.tobytes() == (co.sigma_k / powers).tobytes()
                assert sbh.tobytes() == (co.sigma_bar_k / powers).tobytes()
    for k_star in range(1, 8):
        act = builtin(f"hermite{k_star}")
        for r in (1e-8, 0.09, 0.5, 1.0, 2.3):
            want = _reference_rescaled(act, r, k_star + 3)
            got = CoefficientSource(act, k_star + 3)(r)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_series_kernel_is_built_once_per_config_and_read_only():
    for act in (LINEAR, ERF, HE3):
        cfg = model(act, 0.4)
        kernel = cfg.series
        assert cfg.series is kernel
        assert model(act, 0.4).series is not kernel
        source = kernel.student
        held = [getattr(kernel, name) for name in kernel.__slots__]
        held += list(source.projection or ()) + list(source.pure or ()) + [source.ks]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert len(arrays) >= 7
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0
