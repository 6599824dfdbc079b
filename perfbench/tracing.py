"""Spans around calls into each library module, taken from outside the library.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span, in every ``entrospec`` namespace that looks
the name up (``hermitian_spectrum`` is imported by name into
``equivalence``, ``entropy`` and ``recovery``, so it is replaced there as
well as in ``states``), and in module-level dispatch tables such as the
CLI's decider map. ``EntropyCurve`` methods are wrapped on the class. An
``EntropyOracle`` returned by a wrapped function gets counting callables,
so oracle queries are counted where the benchmark's oracles are built.

A span is ``[name, parent, op, start, end, size, error]``: ``size`` is the
dimension of the first argument, ``error`` the name of the exception the
call raised. Spans stay in memory; ``layer_metrics`` reduces them when the
run ends. Self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import builtins
import dataclasses
import functools
import inspect
import statistics
import sys
from time import perf_counter

import numpy as np

from entrospec import cli, entropy, equivalence, matrixio, recovery, states
from entrospec.entropy import EntropyCurve
from entrospec.recovery import EntropyOracle
from workloads import EQUIV_DIMS, RECOVER_DIMS

LAYERS = (states, entropy, equivalence, recovery, matrixio, cli)
CURVE_METHODS = ("value", "derivative", "second_derivative", "log2_determinant")
CURVE_SPANS = {f"entropy.EntropyCurve.{m}" for m in CURVE_METHODS}
CURVE_EVALS = {"entropy.EntropyCurve.value", "entropy.EntropyCurve.derivative"}
DECIDE_SPANS = {"equivalence.decide_nodes": "t2", "equivalence.decide_grid": "t1",
                "equivalence.decide_spectral": "spectral"}
EIGENSOLVE = "states.jacobi_eigh"
ORACLE_QUERY = "recovery.oracle_query"
RECOVERY_ERRORS = ("IllConditioned", "ComplexRoots", "DegreeDeficit", "OracleDomain")
NAME, PARENT, OP, START, END, SIZE, ERROR = range(7)


def _size(args) -> int | None:
    if not args:
        return None
    first = args[0]
    shape = getattr(first, "shape", None)
    if shape:
        return int(shape[0])
    dim = getattr(first, "dimension", None)
    return dim if isinstance(dim, int) else None


class Tracer:
    """Spans of one run; ``install`` and ``uninstall`` swap the wrappers in and out."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._plan: list[tuple] = []

    def begin_op(self, index: int) -> None:
        self._op = index
        self._stack.append(self._open("op", ()))

    def end_op(self) -> None:
        self.spans[self._stack.pop()][END] = perf_counter()

    def _open(self, name: str, args) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._op, perf_counter(), None, _size(args), None])
        return len(self.spans) - 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, args)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[span][ERROR] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
                self.spans[span][END] = perf_counter()
            if isinstance(result, EntropyOracle):
                result = self._counting_oracle(result)
            return result

        return traced

    def _counting_oracle(self, oracle: EntropyOracle) -> EntropyOracle:
        count = self.wrap(ORACLE_QUERY, lambda fn, lam: fn(lam))

        def query(fn):
            return None if fn is None else functools.partial(count, fn)

        return dataclasses.replace(oracle, value_fn=query(oracle.value_fn),
                                   derivative_fn=query(oracle.derivative_fn))

    def install(self) -> None:
        if not self._plan:
            self._plan = self._make_plan()
        for owner, key, _, wrapper in self._plan:
            _set(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._plan):
            _set(owner, key, original)

    def _make_plan(self) -> list[tuple]:
        """``(owner, key, original, wrapper)`` for every place a name is looked up."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "entrospec" or name.startswith("entrospec.")]
        plan = []
        for layer in LAYERS:
            short = layer.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(layer).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != layer.__name__):
                    continue
                wrapper = self.wrap(f"{short}.{name}", fn)
                for ns in namespaces:
                    if getattr(ns, name, None) is fn:
                        plan.append((ns, name, fn, wrapper))
                    tables = [t for t in vars(ns).values()
                              if isinstance(t, dict) and t is not vars(builtins)]
                    plan += [(t, key, fn, wrapper)
                             for t in tables for key, value in t.items() if value is fn]
        for method in CURVE_METHODS:
            fn = getattr(EntropyCurve, method)
            plan.append((EntropyCurve, method, fn,
                         self.wrap(f"entropy.EntropyCurve.{method}", fn)))
        return plan


def _set(owner, key: str, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def layer_metrics(spans: list[list], records) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    ``records`` are the pass's ``(label, n, latency_s, outcome)`` tuples;
    recovery ops are labelled ``recover``. Per-op figures divide by every
    op of the pass; per-mode decider figures by the ops of that mode. Eigensolve times are reported for the
    ``equiv-stream`` dimensions, which cover the CLI's; dimensions without
    ops report 0.
    """
    ops = len(records)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    in_curve = [False] * len(spans)
    decide_of: list[int | None] = [None] * len(spans)
    decide_excluded = [0.0] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
        parent_in_curve = p >= 0 and in_curve[p]
        in_curve[i] = parent_in_curve or s[NAME] in CURVE_SPANS
        decide_of[i] = i if s[NAME] in DECIDE_SPANS else (decide_of[p] if p >= 0 else None)
        d = decide_of[i]
        if d is not None and d != i and (
            s[NAME] == EIGENSOLVE or (s[NAME] in CURVE_SPANS and not parent_in_curve)
        ):
            decide_excluded[d] += dur[i]

    def named(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def outermost(name):
        return [i for i in named(name) if not _has_ancestor(spans, i, name)]

    def per_op_ms(indices, self_time=False):
        total = sum(dur[i] - (child[i] if self_time else 0.0) for i in indices)
        return 1e3 * total / ops if ops else 0.0

    solves = named(EIGENSOLVE)
    op_spans = named("op")
    op_time = sum(dur[i] for i in op_spans)
    out = {
        "trace.op_ms_per_op": per_op_ms(op_spans),
        "states.eigensolves_per_op": len(solves) / ops,
        "states.eigensolve_ms_per_op": per_op_ms(solves),
        "states.eigensolve_share": sum(dur[i] for i in solves) / op_time if op_time else 0.0,
        "states.validate_self_ms_per_op": per_op_ms(named("states.validate_state"), True),
    }
    for n in EQUIV_DIMS:
        at_n = [dur[i] for i in solves if spans[i][SIZE] == n]
        out[f"states.eigensolve_ms.n{n}"] = 1e3 * statistics.fmean(at_n) if at_n else 0.0

    curve_outer = [i for i, s in enumerate(spans)
                   if s[NAME] in CURVE_SPANS and not (s[PARENT] >= 0 and in_curve[s[PARENT]])]
    out["entropy.curve_evals_per_op"] = sum(s[NAME] in CURVE_EVALS for s in spans) / ops
    out["entropy.curve_ms_per_op"] = per_op_ms(curve_outer)

    decides = [i for i, s in enumerate(spans) if s[NAME] in DECIDE_SPANS]
    for name, mode in DECIDE_SPANS.items():
        mine = [i for i in decides if spans[i][NAME] == name]
        self_ms = sum(dur[i] - decide_excluded[i] for i in mine)
        out[f"equivalence.decide_self_ms_per_op.{mode}"] = (
            1e3 * self_ms / len(mine) if mine else 0.0)
    out["equivalence.witness_ms_per_op"] = per_op_ms(outermost("equivalence.unitary_witness"))
    out["equivalence.raised_rate"] = (
        sum(spans[i][ERROR] is not None for i in decides) / len(decides) if decides else 0.0)

    recovers = outermost("recovery.recover_spectrum")
    out["recovery.oracle_queries_per_op"] = len(named(ORACLE_QUERY)) / ops
    out["recovery.sample_ms_per_op"] = per_op_ms(outermost("recovery.sample_log2_determinant"))
    out["recovery.fit_self_ms_per_op"] = per_op_ms(
        named("recovery.fit_determinant_polynomial"), True)
    out["recovery.roots_self_ms_per_op"] = per_op_ms(recovers, True)
    for err in RECOVERY_ERRORS:
        out[f"recovery.raised_rate.{err}"] = (
            sum(spans[i][ERROR] == err for i in recovers) / len(recovers) if recovers else 0.0)
    recover_records = [(n, o) for label, n, _, o in records if label == "recover"]
    out["recovery.silent_wrong_rate"] = (
        sum(o.status == "wrong" for _, o in recover_records) / len(recover_records)
        if recover_records else 0.0)
    for n in RECOVER_DIMS:
        errs = [1.0 if o.err is None else o.err for m, o in recover_records if m == n]
        out[f"recovery.linf_err.n{n}"] = float(np.median(errs)) if errs else 0.0
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
