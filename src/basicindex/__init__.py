"""Localized index computations for perturbed transversal Dirac-type operators.

The index of a suitably perturbed operator localizes to finite linear
algebra at the critical closures of the perturbation: commuting Hermitian
operators built from the Clifford action, their negative joint eigenspaces
restricted to the grading, and the holonomy-invariant dimensions thereof.
This package computes that localized index, cross-validates it against the
kernel of the associated harmonic-oscillator model, and demonstrates the
spectral localization numerically on a 1D periodic laboratory.
"""

from .cliff import (
    CliffordModule,
    clifford_c,
    clifford_hat,
    contract_op,
    derived_exterior_action,
    explicit_module,
    exterior_module,
    exterior_rep,
    parity_grading,
    wedge_op,
)
from .holonomy import (
    HolonomyGroup,
    NotInvariantError,
    check_equivariance,
    invariant_dim_in,
)
from .linalg import (
    DegenerateEigenvalueError,
    JointEigenstructure,
    LinalgError,
    Subspace,
    hermitian_eig,
    joint_eig,
    nullspace,
    subspace_intersection,
)
from .local_index import (
    ClosureDatum,
    ClosureValidationError,
    LocalIndexDetail,
    ScenarioModel,
    global_index,
    local_index,
    odd_invertible_perturbation,
    validate_closure,
)
from .localization import (
    CircleModel,
    CircleModelError,
    ConvergenceReport,
    DiscretizationError,
    FourierMatrixFunction,
    carriere_preset,
    convergence_report,
    cosine_preset,
    model_spectrum_at_zeros,
)
from .model_operator import (
    ModelSpectrum,
    RouteConsistencyError,
    analytic_spectrum,
    compose_levels,
    compose_oracle_levels,
    invariant_kernel,
    model_cross_check,
    oscillator_1d_oracle,
    oscillator_levels,
)
from .scenario import (
    ScenarioFormatError,
    corpus_names,
    load_corpus_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"
