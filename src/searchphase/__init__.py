"""Numerical laboratory for low-rank fine-tuning dynamics on single-index models.

Theory side: scaled-Hermite population loss, search-phase linearization
(A, B), escape-time prefactor tau(mu), singularity scans, asymptotics, and
reduced (u, m) gradient-flow integration.  Empirical side: high-dimensional
spherical one-pass SGD with label transforms and a rank-R committee
extension, cross-validated against the theory.
"""

from types import ModuleType as _ModuleType

from .activations import ActivationSpec, LabelTransform, builtin, transform_teacher
from .committee import (
    CommitteeConfig,
    CommitteeRates,
    CommitteeRunResult,
    CommitteeState,
    CommitteeTrajectory,
    aggregate_overlap,
    committee_linear_rates,
    committee_loss,
    committee_ode_step,
    committee_reduced_init,
    committee_sgd,
    integrate_committee,
)
from .hermite import (
    ConfigurationError,
    DegenerateFunctionError,
    HermiteCoefficients,
    QuadratureRule,
    eval_scaled_hermite,
    gauss_hermite_rule,
    information_exponent,
    project_activation,
    pure_hermite_coefficients,
    square_expansion,
    to_standard_basis,
)
from .ode import (
    DescentReport,
    FlowSettings,
    LinearizedTrajectory,
    NumericalBlowupError,
    OscillatorRecord,
    TrajectoryRecord,
    integrate_flow,
    integrate_linearized,
    oscillator_trajectory,
    verify_descent,
)
from .sgd import (
    Curriculum,
    DriftEstimate,
    RunResult,
    SimConfig,
    SimState,
    TestMseEstimate,
    epoch_time_scale,
    init_state,
    lockstep_groups,
    measure_drift,
    measure_test_mse,
    run_lockstep,
    run_simulation,
    scaled_learning_rate,
    sgd_step,
    step_rng,
)
from .theory import (
    DegenerateStateError,
    ModelConfig,
    OrderParameterState,
    SearchPhaseLinearization,
    SeriesConvergenceWarning,
    TauCurve,
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

# every public name imported above, in import order (submodules excluded)
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]

__version__ = "0.1.0"
