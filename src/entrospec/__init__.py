"""entrospec: unitary equivalence and spectrum recovery from entropy curves.

The library decides whether two density matrices are unitarily equivalent
using only von Neumann entropy values along the line that mixes each state
toward maximal mixedness, and reconstructs a state's full eigenvalue
spectrum from black-box access to that entropy curve.

Each public name is imported from its module on first use, so importing
the package loads no layer (and no numpy) that a caller never touches.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_MODULE_OF = {
    "EntropyCurve": "entropy",
    "determinant_polynomial": "entropy",
    "entropy_of_spectrum": "entropy",
    "EquivalenceReport": "equivalence",
    "decide_grid": "equivalence",
    "decide_nodes": "equivalence",
    "decide_spectral": "equivalence",
    "default_nodes": "equivalence",
    "equal_entropy_pair": "equivalence",
    "ComplexRoots": "errors",
    "DegreeDeficit": "errors",
    "DimensionMismatch": "errors",
    "EntrospecError": "errors",
    "IllConditioned": "errors",
    "LambdaOutOfRange": "errors",
    "NotFinite": "errors",
    "NotHermitian": "errors",
    "NotPositiveSemidefinite": "errors",
    "ParseError": "errors",
    "SingularEndpoint": "errors",
    "TraceNotOne": "errors",
    "ValidationError": "errors",
    "load_matrix": "matrixio",
    "parse_matrix_file": "matrixio",
    "save_matrix": "matrixio",
    "EntropyOracle": "recovery",
    "RecoveredSpectrum": "recovery",
    "fit_determinant_polynomial": "recovery",
    "oracle_from_spectrum": "recovery",
    "recover_spectrum": "recovery",
    "sample_log2_determinant": "recovery",
    "PropertyResult": "selftest",
    "run_selftest": "selftest",
    "QuantumState": "states",
    "Spectrum": "states",
    "as_complex_matrix": "states",
    "depolarize": "states",
    "random_state": "states",
    "random_unitary": "states",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
