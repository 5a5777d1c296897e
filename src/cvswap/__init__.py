"""Truncated-Fock-space linear optics with ancilla-free overlap estimation."""

__version__ = "0.1.0"

from .fock import (  # noqa: F401
    CutoffSpec,
    Displacement,
    FockState,
    GateSpec,
    MixedEnsemble,
    PhaseRotation,
    PreparationLeakError,
    Squeeze,
    apply_gate,
    basis_state,
    gate_matrix,
    prepare,
    tensor,
)
from .sampling import estimator_statistics  # noqa: F401
from .estimators import (  # noqa: F401
    CutoffPlan,
    EstimatorResult,
    analytic_squeezed_overlap,
    analytic_swap2m_squeezed,
    cutoff_for_coherent_chernoff,
    cutoff_for_coherent_exact,
    cutoff_for_coherent_normal,
    cutoff_for_squeezed,
    cv_swap_estimate,
    error_bound_global,
    error_bound_local,
    parity_overlap_estimate,
    parity_overlap_expectation,
    swap2m_expectation,
    swap2m_profile,
)
from .dv import (  # noqa: F401
    DVState,
    dv_swap_estimate,
    dv_swap_expectation,
    qudit_bell_state,
    swap_eigenbasis,
)
from .protocols import (  # noqa: F401
    compile_cost,
    compile_cost_expectation,
    compile_terms,
    hybrid_swap_estimate,
    hybrid_swap_expectation,
    perm_expectation,
    perm_test,
    two_copy_expectation,
    two_copy_test,
)
