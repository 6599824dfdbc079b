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

``main`` flushes the JSON report and the error line as it prints them, so a
failed output write (a broken pipe, a full disk) raises inside ``main`` and
exits 1 like any other I/O error. Run as a process (the ``entrospec`` console
script or ``python -m entrospec.cli``), the CLI then ends without interpreter
teardown: ``process_main`` calls ``os._exit`` with ``main``'s code, so
``atexit`` handlers do not run after a command. Only an uncaught exception,
and argparse's ``--help``, exit through the interpreter. ``main(argv)`` only
returns the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

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
    print(json.dumps(payload, indent=2), flush=True)


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
    from .entropy import CURVE_GRID, EntropyCurve

    state = _load_state(args.state_file)
    curve = EntropyCurve(state.spectrum)

    # the log determinant is undefined at row 0, weight 0: its cell is empty
    columns = (CURVE_GRID, curve.value(CURVE_GRID), curve.derivative(CURVE_GRID))
    cells = [list(map(repr, column.tolist())) for column in columns]
    cells.append([""] + list(map(repr, curve.log2_determinant(CURVE_GRID[1:]).tolist())))

    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write("lambda,entropy_bits,f_prime,log2_p\n")
        for row in zip(*cells):
            handle.write(",".join(row) + "\n")

    _emit(
        {
            "n": state.dimension,
            "points": len(CURVE_GRID),
            "a": float(CURVE_GRID[-1]),
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
        code, error = EXIT_DIMENSION, exc
    except _RECOVERY_ERRORS as exc:
        code, error = EXIT_RECOVERY, exc
    except (EntrospecError, ValueError, OSError) as exc:
        code, error = EXIT_INPUT, exc
    # with stderr closed, print writes to stdout, which may be block-buffered
    print(f"entrospec: {error}", file=sys.stderr, flush=True)
    return code


def process_main() -> NoReturn:
    """Run ``main()`` on ``sys.argv`` and end the process with its exit code.

    ``main`` has flushed all it wrote, so ``os._exit`` ends the process at
    once and skips finalizing numpy and every other loaded module, which is
    work for nothing in a process about to end. An uncaught exception (and
    argparse's ``--help``) leaves ``main`` before this call and takes the
    interpreter's exit.
    """
    os._exit(main())


if __name__ == "__main__":
    process_main()
