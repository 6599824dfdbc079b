"""entrospec: unitary equivalence and spectrum recovery from entropy curves.

The library decides whether two density matrices are unitarily equivalent
using only von Neumann entropy values along the line that mixes each state
toward maximal mixedness, and reconstructs a state's full eigenvalue
spectrum from black-box access to that entropy curve.
"""

from .entropy import (
    DeterminantPolynomial,
    EntropyCurve,
    determinant_polynomial,
    entropy_of_spectrum,
    second_derivative_times_determinant,
    von_neumann_entropy,
)
from .equivalence import (
    EquivalenceConfig,
    EquivalenceReport,
    decide_grid,
    decide_nodes,
    decide_spectral,
    default_nodes,
    equal_entropy_pair,
)
from .errors import (
    BadNodeCount,
    ComplexRoots,
    DegreeDeficit,
    DimensionMismatch,
    EntrospecError,
    IllConditioned,
    LambdaOutOfRange,
    NotFinite,
    NotHermitian,
    NotPositiveSemidefinite,
    OracleDomain,
    ParseError,
    SingularEndpoint,
    SingularSample,
    TraceNotOne,
    ValidationError,
)
from .matrixio import load_matrix, parse_matrix_file, save_matrix
from .recovery import (
    EntropyOracle,
    RecoveredSpectrum,
    fit_determinant_polynomial,
    oracle_from_spectrum,
    oracle_from_state,
    recover_spectrum,
    sample_log2_determinant,
)
from .selftest import PropertyResult, run_selftest
from .states import (
    ComplexMatrix,
    QuantumState,
    Spectrum,
    as_complex_matrix,
    check_same_dimension,
    depolarize,
    hermitian_eigensystem,
    hermitian_spectrum,
    random_state,
    random_unitary,
    validate_state,
)

__version__ = "0.1.0"

__all__ = [
    "BadNodeCount",
    "ComplexMatrix",
    "ComplexRoots",
    "DegreeDeficit",
    "DeterminantPolynomial",
    "DimensionMismatch",
    "EntropyCurve",
    "EntropyOracle",
    "EntrospecError",
    "EquivalenceConfig",
    "EquivalenceReport",
    "IllConditioned",
    "LambdaOutOfRange",
    "NotFinite",
    "NotHermitian",
    "NotPositiveSemidefinite",
    "OracleDomain",
    "ParseError",
    "PropertyResult",
    "QuantumState",
    "RecoveredSpectrum",
    "SingularEndpoint",
    "SingularSample",
    "Spectrum",
    "TraceNotOne",
    "ValidationError",
    "as_complex_matrix",
    "check_same_dimension",
    "decide_grid",
    "decide_nodes",
    "decide_spectral",
    "default_nodes",
    "depolarize",
    "determinant_polynomial",
    "entropy_of_spectrum",
    "equal_entropy_pair",
    "fit_determinant_polynomial",
    "hermitian_eigensystem",
    "hermitian_spectrum",
    "load_matrix",
    "oracle_from_spectrum",
    "oracle_from_state",
    "parse_matrix_file",
    "random_state",
    "random_unitary",
    "recover_spectrum",
    "run_selftest",
    "sample_log2_determinant",
    "save_matrix",
    "second_derivative_times_determinant",
    "validate_state",
    "von_neumann_entropy",
]
