"""Tests of the benchmark itself: generators, checks, tracing, metric tables.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cli_exact
import oracle_sweep
import phase_space
import run
import tracing
from harness import CheckFailure, fingerprint
from weylkit import cli, opalg

WORKLOADS = (oracle_sweep, cli_exact, phase_space)
BENCH = Path(run.__file__).resolve().parent


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.NAME)
def test_generators_are_deterministic_per_seed(workload):
    assert workload.generate(7) == workload.generate(7)
    assert workload.generate(7) != workload.generate(8)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.NAME)
def test_seeds_share_the_item_kind_mix(workload):
    mixes = [Counter(item.kind for item in workload.generate(seed)) for seed in (1, 2)]
    assert mixes[0] == mixes[1] == Counter(workload.KINDS)
    assert sum(workload.KINDS.values()) >= 100


def _bump(coeff):
    return dataclasses.replace(coeff, ra=coeff.ra + 1)


def _corrupt_poly(poly):
    key = next(iter(poly.terms))
    return dataclasses.replace(poly, terms={**poly.terms, key: _bump(poly.terms[key])})


def _corrupt_oracle_sweep(item, output):
    got, oracle, verdict = output
    if item.kind == "normal_order":
        return [(_corrupt_poly(got), oracle, verdict)]
    return [(_corrupt_poly(got), oracle, verdict), (got, _corrupt_poly(oracle), verdict), (got, oracle, False)]


def _corrupt_cli_exact(item, output):
    code, stdout, stderr = output
    if item.kind == "malformed":
        return [(0, stdout, stderr), (code, stdout, "" if "json" not in item.params[0] else '{"status": "ok"}')]
    if "json" in item.params[0]:
        doc = json.loads(stdout)
        doc["payload"]["text"] += " + 1"
        return [(code, json.dumps(doc), stderr), (1, stdout, stderr)]
    return [(code, stdout.rstrip("\n") + " + 1\n", stderr), (1, stdout, stderr)]


def _corrupt_phase_space(item, output):
    if item.kind == "wigner":
        return [output + 1e-5]
    if item.kind == "marginal":
        return [dataclasses.replace(output, data=output.data + 1e-5)]
    if item.kind == "sweep":
        key = next(iter(output))
        return [{**output, key: output[key] + 1e-2}]
    if item.kind == "transform":
        forward, back = output
        return [(forward, dataclasses.replace(back, values=back.values * 1.001)),
                (dataclasses.replace(forward, values=forward.values * 1.01), back)]
    values = output.values.copy()
    values[3, 5] += 1e-12
    return [dataclasses.replace(output, values=values)]


CORRUPT = {"oracle-sweep": _corrupt_oracle_sweep, "cli-exact": _corrupt_cli_exact, "phase-space": _corrupt_phase_space}


def _cheap(item):
    """Sort key preferring small items of a kind."""
    numbers = [abs(p) for p in item.params if isinstance(p, (int, float))]
    return sum(numbers), len(repr(item.params))


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.NAME)
def test_checks_flag_a_corrupted_answer_of_every_kind(workload, tmp_path):
    items = workload.generate(3)
    for kind in workload.KINDS:
        candidates = [i for i in items if i.kind == kind]
        if workload is oracle_sweep and kind != "p_plus_q_power":
            # [Q^0, P^r] is zero: no coefficient to corrupt.
            candidates = [i for i in candidates if min(i.params[:2]) >= 1]
        item = min(candidates, key=_cheap)
        prepared = workload.prepare(item, tmp_path)
        output = workload.execute(item, prepared)
        workload.check(item, prepared, output)
        for bad in CORRUPT[workload.NAME](item, output):
            with pytest.raises(CheckFailure):
                workload.check(item, prepared, bad)


def test_fingerprints_see_any_change():
    arrays = (np.arange(6.0), np.arange(6.0).reshape(2, 3))
    assert fingerprint(arrays[0]) != fingerprint(arrays[1])
    assert fingerprint({1: "a", 2: "b"}) == fingerprint({2: "b", 1: "a"})
    poly = opalg.OrderedPolynomial.monomial(opalg.Ordering.PQ, 1, 2)
    assert fingerprint(poly) != fingerprint(_corrupt_poly(poly))


def test_tracing_covers_by_value_imports_and_restores_them():
    originals = (opalg.rewrite_to_pq, cli.rewrite_to_pq, opalg.ExactScalar.__mul__, opalg.ExactScalar.__rmul__)
    assert cli.rewrite_to_pq is opalg.rewrite_to_pq
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        assert cli.rewrite_to_pq is opalg.rewrite_to_pq is not originals[0]
        traced = opalg.commutator(opalg.Q**2, opalg.P**2)
    finally:
        restore()
    assert (opalg.rewrite_to_pq, cli.rewrite_to_pq, opalg.ExactScalar.__mul__, opalg.ExactScalar.__rmul__) == originals
    assert traced == opalg.commutator(opalg.Q**2, opalg.P**2)
    assert [row[0] for row in tracer.spans] == ["opalg.rewrite"]
    assert tracer.spans[0][7] == 2  # words in Q^2 P^2 - P^2 Q^2
    assert tracer.counts["exactnum.mul"] > 0
    summary = tracing.summarize(tracer.spans, tracer.counts)
    assert summary["calls"]["opalg.rewrite"] == 1
    assert summary["self"]["opalg"] == pytest.approx(summary["busy"]["opalg.rewrite"])


def test_busy_time_counts_nested_spans_of_one_name_once():
    spans = [
        ["ordering.closed_form", "ordering", 0.0, 10.0, -1, 0, False, None],
        ["ordering.closed_form", "ordering", 1.0, 4.0, 0, 0, False, None],
        ["opalg.rewrite", "opalg", 5.0, 7.0, 0, 0, True, 3],
    ]
    summary = tracing.summarize(spans, Counter())
    assert summary["busy"]["ordering.closed_form"] == 10.0
    assert summary["self"] == {"ordering": 8.0, "opalg": 2.0}
    assert summary["errors"]["opalg"] == 1


def test_quantiles_are_order_free_and_exact_on_symmetric_data():
    assert run.quantile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == pytest.approx(3.0)
    values = [float(x) for x in range(1, 121)]
    assert run.quantile(values, 0.5) < run.quantile(values, 0.9) < 120.0
    assert run.quantile(values, 0.9) == pytest.approx(0.9 * 121, rel=0.01)


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
