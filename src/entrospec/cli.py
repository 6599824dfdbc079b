"""Command-line interface.

Commands: entropy, curve, equiv, recover, selftest. Machine-readable JSON
goes to stdout (the curve command writes its CSV to --out); human-oriented
messages go to stderr. Exit codes are a stable contract:

    0  success (for equiv: states are equivalent)
    1  parse, validation, or configuration failure
    2  dimension mismatch between the two input states
    3  equiv decided not_equivalent
    4  spectrum recovery failed
    5  selftest found a failing property
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .errors import (
    ComplexRoots,
    DegreeDeficit,
    DimensionMismatch,
    EntrospecError,
    IllConditioned,
    ParseError,
)
from .matrixio import load_matrix
from .states import QuantumState, validate_state

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIMENSION = 2
EXIT_NOT_EQUIVALENT = 3
EXIT_RECOVERY = 4
EXIT_SELFTEST = 5

_RECOVERY_ERRORS = (IllConditioned, ComplexRoots, DegreeDeficit)

# the curve command's fixed grid: CURVE_POINTS weights from 0 to CURVE_LIMIT
CURVE_LIMIT = 0.9
CURVE_POINTS = 64


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParseError (exit code 1)."""

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="entrospec", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_entropy = sub.add_parser("entropy", help="spectrum and entropy of one state")
    p_entropy.add_argument("state_file")

    p_curve = sub.add_parser("curve", help="entropy curve CSV along the mixing line")
    p_curve.add_argument("state_file")
    p_curve.add_argument("--out", required=True, help="output CSV path")

    p_equiv = sub.add_parser("equiv", help="decide unitary equivalence of two states")
    p_equiv.add_argument("state_file_a")
    p_equiv.add_argument("state_file_b")
    p_equiv.add_argument("--mode", choices=("spectral", "t1", "t2"), default="t2",
                         help="spectral oracle, dense-grid curve comparison (t1), "
                              "or 2n-node comparison (t2)")

    p_recover = sub.add_parser("recover", help="recover the spectrum from entropy values")
    p_recover.add_argument("state_file")
    p_recover.add_argument("--derivative", choices=("analytic", "fd"), default="analytic")

    p_selftest = sub.add_parser("selftest", help="check your numpy, LAPACK, float format "
                                                 "and file I/O against the library's invariants")
    p_selftest.add_argument("--seed", type=int, default=42, help="RNG seed")

    return parser


def _load_state(path: str) -> QuantumState:
    return validate_state(load_matrix(path))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# Each handler imports the layer it runs, so a child process loads only the
# modules of its own command.
def _cmd_entropy(args: argparse.Namespace) -> int:
    from .entropy import entropy_of_spectrum

    state = _load_state(args.state_file)
    spectrum = state.spectrum
    _emit(
        {
            "n": state.dimension,
            "spectrum": list(spectrum.values),
            "entropy_bits": entropy_of_spectrum(spectrum),
        }
    )
    return EXIT_OK


def _cmd_curve(args: argparse.Namespace) -> int:
    from .entropy import EntropyCurve

    state = _load_state(args.state_file)
    curve = EntropyCurve(state.spectrum)

    # every weight is at most CURVE_LIMIT < 1, where each mixed eigenvalue is
    # at least (1 - CURVE_LIMIT) / n, so the derivative is always defined
    rows = []
    for j in range(CURVE_POINTS):
        lam = CURVE_LIMIT * j / (CURVE_POINTS - 1)
        log2_det = repr(curve.log2_determinant(lam)) if lam > 0.0 else ""
        rows.append((repr(lam), repr(curve.value(lam)), repr(curve.derivative(lam)), log2_det))

    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write("lambda,entropy_bits,f_prime,log2_p\n")
        for row in rows:
            handle.write(",".join(row) + "\n")

    _emit(
        {
            "n": state.dimension,
            "points": CURVE_POINTS,
            "a": CURVE_LIMIT,
            "out": args.out,
        }
    )
    return EXIT_OK


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .equivalence import DECIDERS

    rho = _load_state(args.state_file_a)
    sigma = _load_state(args.state_file_b)
    report = DECIDERS[args.mode](rho, sigma)
    payload = {"n": rho.dimension}
    payload.update(report.to_dict())
    _emit(payload)
    return EXIT_OK if report.equivalent else EXIT_NOT_EQUIVALENT


def _cmd_recover(args: argparse.Namespace) -> int:
    import numpy as np

    from .recovery import oracle_from_spectrum, recover_spectrum

    state = _load_state(args.state_file)
    n = state.dimension
    truth = state.spectrum
    oracle = oracle_from_spectrum(truth, include_derivative=args.derivative == "analytic")
    result = recover_spectrum(oracle)
    error = float(
        np.max(np.abs(np.asarray(result.values) - truth.as_array()))
    )
    _emit(
        {
            "n": n,
            "derivative": args.derivative,
            "recovered_spectrum": list(result.values),
            "true_spectrum": list(truth.values),
            "linf_error": error,
            "validation_residual": result.residual,
            "trimmed_degree": result.trimmed_degree,
            "sum_drift": result.sum_drift,
        }
    )
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    results = run_selftest(args.seed)
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(f"{status:4s} {res.name} (residual {res.max_residual:.3e})", file=sys.stderr)
    all_passed = all(res.passed for res in results)
    _emit(
        {
            "seed": args.seed,
            "all_passed": all_passed,
            "properties": [res.to_dict() for res in results],
        }
    )
    return EXIT_OK if all_passed else EXIT_SELFTEST


_COMMANDS = {
    "entropy": _cmd_entropy,
    "curve": _cmd_curve,
    "equiv": _cmd_equiv,
    "recover": _cmd_recover,
    "selftest": _cmd_selftest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except DimensionMismatch as exc:
        print(f"entrospec: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except _RECOVERY_ERRORS as exc:
        print(f"entrospec: {exc}", file=sys.stderr)
        return EXIT_RECOVERY
    except (EntrospecError, ValueError, OSError) as exc:
        print(f"entrospec: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
