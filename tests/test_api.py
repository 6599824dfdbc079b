"""The package root's public names, which are a contract.

Dropping or adding a name is a deliberate change of this list.
"""

import entrospec

PUBLIC_NAMES = [
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


def test_all_is_the_pinned_list():
    assert sorted(entrospec.__all__) == PUBLIC_NAMES
    assert len(set(entrospec.__all__)) == len(entrospec.__all__)


def test_every_public_name_resolves_from_the_package_root():
    for name in PUBLIC_NAMES:
        assert getattr(entrospec, name) is not None, name
