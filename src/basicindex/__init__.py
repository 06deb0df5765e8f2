"""Localized index computations for perturbed transversal Dirac-type operators.

The index of a suitably perturbed operator localizes to finite linear
algebra at the critical closures of the perturbation: commuting Hermitian
operators built from the Clifford action, their negative joint eigenspaces
restricted to the grading, and the holonomy-invariant dimensions thereof.
This package computes that localized index, cross-validates it against the
kernel of the associated harmonic-oscillator model, and demonstrates the
spectral localization numerically on a 1D periodic laboratory.

The circle lab (localization) is imported on first access of one of its
names, so that a command that does not use it does not pay for it.
"""

from importlib import import_module as _import_module

from .cliff import (
    CliffordModule,
    clifford_hat,
    derived_exterior_action,
    explicit_module,
    exterior_module,
    exterior_rep,
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
)
from .local_index import (
    ClosureDatum,
    ClosureValidationError,
    LocalIndexDetail,
    ScenarioModel,
    global_index,
    local_index,
    validate_closure,
)
from .model_operator import (
    ModelSpectrum,
    RouteConsistencyError,
    analytic_spectrum,
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

# the circle lab's exported names, the module's own among them, imported on first
# access (PEP 562)
_LAZY = ("localization", "CircleModel", "CircleModelError", "ConvergenceReport",
         "DiscretizationError", "FourierMatrixFunction", "convergence_report",
         "model_spectrum_at_zeros")
# the public names bound above (the eager submodules among them), then the lazy ones
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.localization")
    globals()[name] = value = module if name == "localization" else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
