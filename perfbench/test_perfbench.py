"""Smoke tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from entrospec import equivalence, recovery

BENCHMARK = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _names_and_units(entries):
    return {e["name"]: e["unit"] for e in entries}


def _emitted(result):
    return {k: v["unit"] for k, v in result["final"]["metrics"].items()}


@pytest.mark.parametrize("name", NAMES)
def test_short_run_emits_every_metric_with_its_unit(name):
    untraced = run.measure(name, run.DEFAULT_SEED, 0.2, trace=False, blocks=1)
    assert _emitted(untraced) == _names_and_units(BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in untraced["final"]["metrics"].values())
    assert untraced["final"]["correct"]
    assert untraced["report"]["reference_runs"] >= 1 and untraced["report"]["reference_ms"] > 0
    traced = run.measure(name, run.DEFAULT_SEED, 0.2, trace=True, blocks=1)
    assert _emitted(traced) == _names_and_units(BENCHMARK["per_layer"])
    assert traced["final"]["correct"]


def test_last_line_is_the_result_object():
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "recover-oracle",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=run.HERE.parent, timeout=120)
    final = json.loads(proc.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["attempted"] >= 1 and 0 <= final["failed"] <= final["attempted"]
    assert "max_ok_n = " in proc.stdout and "fail_rate = " in proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_input_digest_is_stable_at_one_seed(name):
    workload = workloads.WORKLOADS[name]()
    first = workload.build(run.DEFAULT_SEED, 2).digest
    assert workload.build(run.DEFAULT_SEED, 2).digest == first
    assert workload.build(run.HELDOUT_SEED, 2).digest != first


def _flip(decide):
    def flipped(*args, **kwargs):
        report = decide(*args, **kwargs)
        verdict = (equivalence.NOT_EQUIVALENT if report.equivalent
                   else equivalence.EQUIVALENT)
        return dataclasses.replace(report, verdict=verdict)
    return flipped


def test_injected_wrong_verdict_shows_in_fail_rate(monkeypatch):
    clean = run.end_to_end("equiv-stream", 5, 0.1, blocks=2)["report"]
    for name in workloads.DECIDERS.values():
        monkeypatch.setattr(equivalence, name, _flip(getattr(equivalence, name)))
    result = run.end_to_end("equiv-stream", 5, 0.1, blocks=2)
    report = result["report"]
    assert report["wrong"] == report["attempted"] - report["raised"] > 0
    assert report["fail_rate"] > clean["fail_rate"]
    assert not result["final"]["correct"]


def test_injected_wrong_spectrum_shows_in_fail_rate(monkeypatch):
    clean = run.end_to_end("recover-oracle", 5, 0.1, blocks=2)["report"]
    original = recovery.recover_spectrum

    def skewed(oracle, cfg=None):
        result = original(oracle, cfg)
        values = np.asarray(result.values)
        values[0] += 1e-3
        values[-1] -= 1e-3
        return dataclasses.replace(result, values=tuple(values))

    monkeypatch.setattr(recovery, "recover_spectrum", skewed)
    result = run.end_to_end("recover-oracle", 5, 0.1, blocks=2)
    report = result["report"]
    assert report["wrong"] == report["attempted"] - report["raised"] > 0
    assert report["fail_rate"] > clean["fail_rate"]
    assert not result["final"]["correct"]


def _traced_pass(name, seed, blocks):
    workload, pool, workdir = run.setup(name, seed, blocks)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = run.run_ops(workload, pool, run.pass_indices(pool), tracer)
    finally:
        tracer.uninstall()
        workdir.rmdir()
    labelled = [(workload.label(op), op.n, lat, o) for op, lat, o in records]
    return records, tracing.layer_metrics(tracer.spans, labelled)


def test_traced_eigensolve_count_matches_the_code_path():
    # Two validations and two spectra per op; an equivalent verdict adds the
    # witness: two more spectra and two eigensystems.
    records, layer = _traced_pass("equiv-stream", 7, 2)
    expected = sum(8 if o.verdict == equivalence.EQUIVALENT else 4 for _, _, o in records)
    assert layer["states.eigensolves_per_op"] == expected / len(records)
    assert any(o.status == workloads.RAISED for _, _, o in records)


def test_exact_counts_repeat_and_recovery_runs_no_eigensolve():
    exact = ("states.eigensolves_per_op", "entropy.curve_evals_per_op",
             "recovery.oracle_queries_per_op")
    originals = {f: getattr(equivalence, f) for f in workloads.DECIDERS.values()}
    _, first = _traced_pass("recover-oracle", 9, 2)
    _, second = _traced_pass("recover-oracle", 9, 2)
    assert [first[k] for k in exact] == [second[k] for k in exact]
    assert first["states.eigensolves_per_op"] == 0
    assert first["recovery.oracle_queries_per_op"] > 0
    assert all(getattr(equivalence, f) is fn for f, fn in originals.items())


def test_spans_are_written_when_asked():
    path = Path(run.HERE) / ".work" / "spans-test.jsonl"
    path.parent.mkdir(exist_ok=True)
    try:
        result = run.measure("recover-oracle", 2, 0.0, trace=True, blocks=1, spans_out=str(path))
        spans = [json.loads(line) for line in path.read_text().splitlines()]
    finally:
        path.unlink(missing_ok=True)
    ops = [s for s in spans if s["name"] == "op"]
    assert len(ops) == result["final"]["attempted"]
    assert all(s["end"] >= s["start"] and s["parent"] < i for i, s in enumerate(spans))


def test_attempted_and_failed_do_not_depend_on_the_run_length():
    short = run.end_to_end("recover-oracle", 4, 0.0, blocks=3)["final"]
    longer = run.end_to_end("recover-oracle", 4, 0.3, blocks=3)["final"]
    assert short["attempted"] == longer["attempted"] == 3 * len(workloads.RECOVER_DIMS)
    assert short["failed"] == longer["failed"] > 0
