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
import os
import sys
from typing import Mapping, Optional, Sequence

import numpy as np

from .entropy import EntropyCurve, entropy_of_spectrum
from .equivalence import (
    EquivalenceConfig,
    decide_grid,
    decide_nodes,
    decide_spectral,
)
from .errors import (
    ComplexRoots,
    DegreeDeficit,
    DimensionMismatch,
    EntrospecError,
    IllConditioned,
    OracleDomain,
    ParseError,
)
from .matrixio import load_matrix
from .recovery import oracle_from_state, recover_spectrum
from .selftest import run_selftest
from .states import QuantumState, hermitian_spectrum, validate_state

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIMENSION = 2
EXIT_NOT_EQUIVALENT = 3
EXIT_RECOVERY = 4
EXIT_SELFTEST = 5

_RECOVERY_ERRORS = (OracleDomain, IllConditioned, ComplexRoots, DegreeDeficit)


def resolve_seed(flag: Optional[int], env: Mapping[str, str]) -> int:
    """Flag wins; otherwise ENTROSPEC_SEED; otherwise 42."""
    if flag is not None:
        return flag
    raw = env.get("ENTROSPEC_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"ENTROSPEC_SEED must be an integer, got {raw!r}") from None


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
    p_curve.add_argument("--a", type=float, default=0.9,
                         help="upper end of the sampled interval, in (0, 1]")
    p_curve.add_argument("--points", type=int, default=64)
    p_curve.add_argument("--out", required=True, help="output CSV path")

    p_equiv = sub.add_parser("equiv", help="decide unitary equivalence of two states")
    p_equiv.add_argument("state_file_a")
    p_equiv.add_argument("state_file_b")
    p_equiv.add_argument("--mode", choices=("spectral", "t1", "t2"), default="t2",
                         help="spectral oracle, dense-grid curve comparison (t1), "
                              "or 2n-node comparison (t2)")
    p_equiv.add_argument("--a", type=float, default=EquivalenceConfig.grid_limit,
                         dest="grid_limit", help="grid upper bound for --mode t1")
    p_equiv.add_argument("--points", type=int, default=EquivalenceConfig.grid_points,
                         dest="grid_points")
    p_equiv.add_argument("--nodes", type=float, nargs="+",
                         help="explicit 2n node weights for --mode t2")
    p_equiv.add_argument("--entropy-tol", type=float, default=EquivalenceConfig.entropy_tol)
    p_equiv.add_argument("--spectrum-tol", type=float,
                         default=EquivalenceConfig.spectrum_tol)

    p_recover = sub.add_parser("recover", help="recover the spectrum from entropy values")
    p_recover.add_argument("state_file")
    p_recover.add_argument("--derivative", choices=("analytic", "fd"), default="analytic")
    p_recover.add_argument("--nodes", type=float, nargs="+",
                           help="fitting nodes; default is Chebyshev-spaced")

    p_selftest = sub.add_parser("selftest", help="run the built-in invariant suite")
    p_selftest.add_argument("--seed", type=int, default=None,
                            help="RNG seed; falls back to ENTROSPEC_SEED, then 42")
    p_selftest.add_argument("--entropy-tol", type=float,
                            default=EquivalenceConfig.entropy_tol)

    return parser


def _load_state(path: str) -> QuantumState:
    return validate_state(load_matrix(path))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_entropy(args: argparse.Namespace) -> int:
    state = _load_state(args.state_file)
    spectrum = hermitian_spectrum(state)
    _emit(
        {
            "n": state.dimension,
            "spectrum": list(spectrum.values),
            "entropy_bits": entropy_of_spectrum(spectrum),
        }
    )
    return EXIT_OK


def _csv_cell(value: Optional[float]) -> str:
    return "" if value is None else repr(value)


def _cmd_curve(args: argparse.Namespace) -> int:
    if not 0.0 < args.a <= 1.0:
        raise ParseError(f"--a must be in (0, 1], got {args.a}")
    if args.points < 2:
        raise ParseError(f"--points must be >= 2, got {args.points}")
    state = _load_state(args.state_file)
    curve = EntropyCurve(hermitian_spectrum(state))

    rows = []
    for j in range(args.points):
        lam = args.a * j / (args.points - 1)
        entropy = curve.value(lam)
        try:
            derivative: Optional[float] = curve.derivative(lam)
        except EntrospecError:
            derivative = None
        log2_det: Optional[float] = (
            curve.log2_determinant(lam) if 0.0 < lam < 1.0 else None
        )
        rows.append((lam, entropy, derivative, log2_det))

    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write("lambda,entropy_bits,f_prime,log2_p\n")
        for lam, entropy, derivative, log2_det in rows:
            handle.write(
                ",".join(
                    (repr(lam), repr(entropy), _csv_cell(derivative), _csv_cell(log2_det))
                )
                + "\n"
            )

    _emit(
        {
            "n": state.dimension,
            "points": args.points,
            "a": args.a,
            "out": args.out,
        }
    )
    return EXIT_OK


_DECIDERS = {"spectral": decide_spectral, "t1": decide_grid, "t2": decide_nodes}


def _cmd_equiv(args: argparse.Namespace) -> int:
    rho = _load_state(args.state_file_a)
    sigma = _load_state(args.state_file_b)
    eq_cfg = EquivalenceConfig(
        grid_limit=args.grid_limit,
        grid_points=args.grid_points,
        nodes=args.nodes,
        entropy_tol=args.entropy_tol,
        spectrum_tol=args.spectrum_tol,
    )
    report = _DECIDERS[args.mode](rho, sigma, eq_cfg)
    payload = {"n": rho.dimension}
    payload.update(report.to_dict())
    _emit(payload)
    return EXIT_OK if report.equivalent else EXIT_NOT_EQUIVALENT


def _cmd_recover(args: argparse.Namespace) -> int:
    state = _load_state(args.state_file)
    n = state.dimension
    truth = hermitian_spectrum(state)
    oracle = oracle_from_state(state, include_derivative=args.derivative == "analytic")
    result = recover_spectrum(oracle, args.nodes)
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
    seed = resolve_seed(args.seed, os.environ)
    results = run_selftest(seed, args.entropy_tol)
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(f"{status:4s} {res.name} (residual {res.max_residual:.3e})", file=sys.stderr)
    all_passed = all(res.passed for res in results)
    _emit(
        {
            "seed": seed,
            "entropy_tol": args.entropy_tol,
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
