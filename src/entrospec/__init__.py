"""entrospec: unitary equivalence and spectrum recovery from entropy curves.

The library decides whether two density matrices are unitarily equivalent
using only von Neumann entropy values along the line that mixes each state
toward maximal mixedness, and reconstructs a state's full eigenvalue
spectrum from black-box access to that entropy curve.
"""

from .entropy import EntropyCurve, determinant_polynomial, entropy_of_spectrum
from .equivalence import (
    EquivalenceReport,
    decide_grid,
    decide_nodes,
    decide_spectral,
    default_nodes,
    equal_entropy_pair,
)
from .errors import (
    ComplexRoots,
    DegreeDeficit,
    DimensionMismatch,
    EntrospecError,
    IllConditioned,
    LambdaOutOfRange,
    NotFinite,
    NotHermitian,
    NotPositiveSemidefinite,
    ParseError,
    SingularEndpoint,
    TraceNotOne,
    ValidationError,
)
from .matrixio import load_matrix, parse_matrix_file, save_matrix
from .recovery import (
    EntropyOracle,
    RecoveredSpectrum,
    fit_determinant_polynomial,
    oracle_from_spectrum,
    recover_spectrum,
    sample_log2_determinant,
)
from .selftest import PropertyResult, run_selftest
from .states import (
    ComplexMatrix,
    QuantumState,
    Spectrum,
    as_complex_matrix,
    depolarize,
    random_state,
    random_unitary,
    validate_state,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexMatrix",
    "ComplexRoots",
    "DegreeDeficit",
    "DimensionMismatch",
    "EntropyCurve",
    "EntropyOracle",
    "EntrospecError",
    "EquivalenceReport",
    "IllConditioned",
    "LambdaOutOfRange",
    "NotFinite",
    "NotHermitian",
    "NotPositiveSemidefinite",
    "ParseError",
    "PropertyResult",
    "QuantumState",
    "RecoveredSpectrum",
    "SingularEndpoint",
    "Spectrum",
    "TraceNotOne",
    "ValidationError",
    "as_complex_matrix",
    "decide_grid",
    "decide_nodes",
    "decide_spectral",
    "default_nodes",
    "depolarize",
    "determinant_polynomial",
    "entropy_of_spectrum",
    "equal_entropy_pair",
    "fit_determinant_polynomial",
    "load_matrix",
    "oracle_from_spectrum",
    "parse_matrix_file",
    "random_state",
    "random_unitary",
    "recover_spectrum",
    "run_selftest",
    "sample_log2_determinant",
    "save_matrix",
    "validate_state",
]
