"""The benchmark's traced-layer gate on the exact workloads.

``bench/run.py --trace 1`` reports a failure when a layer its workload
is meant to stress (``run.STRESSED``) records no span.  This runs one
seed's batch of each exact workload under ``tracing.instrument``,
checks every output, and asserts the gate would pass, so moving a call
off a traced layer fails here rather than only in the benchmark.  It
reads ``bench/`` and changes nothing there.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import cli_exact  # noqa: E402
import oracle_sweep  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", (oracle_sweep, cli_exact), ids=lambda w: w.NAME)
def test_stressed_layers_record_spans(workload, tmp_path):
    items = workload.generate(1)
    prepared = [workload.prepare(item, tmp_path) for item in items]
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        outputs = [workload.execute(item, inputs) for item, inputs in zip(items, prepared)]
    finally:
        restore()
    for item, inputs, output in zip(items, prepared, outputs):
        workload.check(item, inputs, output)
    seen = {row[1] for row in tracer.spans} | ({"exactnum"} if tracer.counts else set())
    assert set(run.STRESSED[workload.NAME]) <= seen
