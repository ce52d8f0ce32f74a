"""Correlation diagnostics for single-qudit states and one-variable
probability distributions reinterpreted as artificial multipartite systems
through a partition map."""

from ._version import __version__
from .classical import (
    JointView,
    ProbabilityVector,
    SubadditivityReport,
    TsallisParam,
    classical_ssa_check,
    conditional,
    marginal,
    relative_entropy_shannon,
    relative_entropy_tsallis,
    shannon_entropy,
    split_conditionals,
    subadditivity_report,
    tsallis_entropy,
)
from .errors import (
    ConditioningOnNull,
    DomainError,
    NotHermitian,
    NotPSD,
    QuditCorrError,
    TraceNotOne,
    UsageError,
    ValidationError,
)
from .partition import (
    Factorization,
    MultiIndex,
    QuditSplit,
    compose,
    decompose,
    split_index,
)
from .quantum import (
    DensityMatrix,
    ReshapedState,
    SeparabilityVerdict,
    chsh_max,
    correlation_matrix,
    linear_entropy,
    mutual_quantum_information,
    partial_trace_left,
    partial_trace_right,
    partial_transpose_right,
    product_state,
    separability_test,
    validate,
    von_neumann_entropy,
)
from .qubit_qutrit import (
    QubitProbabilities,
    QutritElements,
    QutritMatrixElements,
    probabilities_from_qubit,
    qubit_from_probabilities,
    qubit_inequality_xy,
    qubit_inequality_zx,
    qutrit_elements_from_probabilities,
    qutrit_inequality_shannon,
    qutrit_inequality_tsallis,
)
from .reporting import CheckRecord, check
from .tomography import (
    Direction,
    SpinRep,
    Sweep,
    TomogramTable,
    TsallisTomogramReport,
    direction_sweep,
    mutual_tomographic_information,
    rotation_matrix,
    spin_rep,
    tomogram,
    tomographic_marginals,
    tomographic_tsallis_relative,
    tomographic_tsallis_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
