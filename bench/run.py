"""The weylkit benchmark.

    python3 bench/run.py --workload oracle-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; see README.md.  Each workload is
a closed loop in one process: the next item starts when the previous one
returns.  The run repeats the seed's batch until ``--seconds`` seconds
of timed work are spent, takes each item's latency as its median over
the repetitions, checks every output outside the timed region, and
prints one JSON line: the end-to-end metrics with ``--trace 0``, or the
per-layer metrics of a traced run with ``--trace 1``.  Durations are
scaled by a calibration probe (see calibration.py).  Set-up time is the
median over fresh interpreters that import ``weylkit.cli`` and warm the
workload's lazy caches.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Modules that import numpy (harness, calibration, the workloads) are
# imported inside functions, after main() has capped the BLAS threads.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOADS = {
    "oracle-sweep": ("oracle_sweep", "python"),
    "cli-exact": ("cli_exact", "python"),
    "phase-space": ("phase_space", "mixed"),
}
# One BLAS thread: the workloads are single-process closed loops, and a
# second thread on a 2-core shared host adds more noise than speed.
BLAS_THREADS = 1
SETUP_REPEATS = 7
STRESSED = {
    "oracle-sweep": ("exactnum", "opalg", "ordering", "verify"),
    "cli-exact": ("cli", "exprio", "ordering", "opalg", "exactnum"),
    "phase-space": ("fockspace", "phasexform"),
}
LAYERS = ("exactnum", "opalg", "ordering", "exprio", "fockspace", "phasexform", "cli", "verify")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("item_p50_ms", "ms", "lower"),
    ("item_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_ratio", "1", "higher"),
)
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [
        ("exprio.parse.busy_s", "s", "lower"),
        ("exprio.parse.chars_per_s", "char/s", "higher"),
        ("exprio.render.busy_s", "s", "lower"),
        ("ordering.convert.calls", "count", "lower"),
        ("ordering.convert.busy_s", "s", "lower"),
        ("ordering.convert.terms_out_per_s", "term/s", "higher"),
        ("ordering.closed_form.busy_s", "s", "lower"),
        ("opalg.rewrite.calls", "count", "lower"),
        ("opalg.rewrite.busy_s", "s", "lower"),
        ("opalg.rewrite.words_in", "count", "lower"),
        ("opalg.normal_order.busy_s", "s", "lower"),
        ("exactnum.mul.calls", "count", "lower"),
        ("exactnum.add.calls", "count", "lower"),
        ("fockspace.wigner.busy_s", "s", "lower"),
        ("fockspace.wigner.entries_per_s", "entry/s", "higher"),
        ("fockspace.quadrature.busy_s", "s", "lower"),
        ("fockspace.quadrature.entries_per_s", "entry/s", "higher"),
        ("fockspace.marginal.busy_s", "s", "lower"),
        ("phasexform.transform.busy_s", "s", "lower"),
        ("phasexform.transform.cells_per_s", "cell/s", "higher"),
        ("phasexform.csv.busy_s", "s", "lower"),
        ("phasexform.csv.bytes_per_s", "B/s", "higher"),
        ("setup.import_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("calibration.probe_ms", "ms", "lower"),
    ]
)
_UNITS = {name: unit for name, unit, _ in END_TO_END + tuple(PER_LAYER)}


def _metrics(values: dict) -> dict:
    return {name: {"value": values[name], "unit": _UNITS[name]} for name in values}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


# -- set-up ----------------------------------------------------------------


def measure_setup(workload) -> tuple[float, float]:
    """Median set-up and import time of fresh interpreters, scaled by the
    interpreter probes run before and after each."""
    import calibration

    code = "\n".join([
        "import json, time",
        "start = time.perf_counter()",
        "import weylkit.cli",
        "imported = time.perf_counter() - start",
        workload.SETUP,
        "print(json.dumps({'import_s': imported}))",
    ])
    env = _child_env()
    setups, imports = [], []
    # The first round writes the bytecode caches, as an installed package has them.
    calibration.spawn(calibration.SPAWN_PROBE, env, ROOT)
    before, _ = calibration.spawn(calibration.SPAWN_PROBE, env, ROOT)
    for attempt in range(SETUP_REPEATS + 1):
        elapsed, proc = calibration.spawn(code, env, ROOT)
        after, _ = calibration.spawn(calibration.SPAWN_PROBE, env, ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        scale = calibration.SPAWN_REFERENCE_S / (0.5 * (before + after))
        before = after
        if attempt == 0:
            continue
        setups.append(elapsed * scale)
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"] * scale)
    return statistics.median(setups), statistics.median(imports)


# -- batches ---------------------------------------------------------------


class Outcomes:
    """Checks each item's first output; later outputs must match it.

    Outputs are dropped once seen and only fingerprints kept, so the peak
    memory is the program's, not the benchmark's.
    """

    def __init__(self, workload, items, prepared):
        self.workload, self.items, self.prepared = workload, items, prepared
        self.prints = [None] * len(items)
        self.failures: list[str] = []
        self.failed: set[int] = set()

    def _fail(self, index: int, message: str) -> None:
        self.failed.add(index)
        self.failures.append(message[:300])

    def __call__(self, index: int, output) -> None:
        from harness import CheckFailure, Raised, fingerprint

        item = self.items[index]
        label = f"{item.kind}{item.params}"[:160]
        if isinstance(output, Raised):
            self._fail(index, f"{label}: raised {output.error}")
            return
        digest = fingerprint(output)
        if self.prints[index] is not None:
            if digest != self.prints[index]:
                self._fail(index, f"{label}: output differs from its first run")
            return
        self.prints[index] = digest
        try:
            self.workload.check(item, self.prepared[index], output)
        except CheckFailure as exc:
            self._fail(index, str(exc))
        except Exception as exc:  # a check that cannot read the output fails it
            self._fail(index, f"{label}: check raised {exc!r}")


def run_batch(workload, items, prepared, clock, outcomes, tracer=None):
    """Execute the items in order, handing each output to ``outcomes``
    outside the timed region.

    Returns the raw and the scaled latencies; each stretch of items
    between two probes is scaled by those probes.
    """
    from harness import Raised

    raw, scaled, pending = [], [], []
    before = clock.sample()
    for index, (item, inputs) in enumerate(zip(items, prepared)):
        if tracer is not None:
            tracer.item = index
        start = time.perf_counter()
        try:
            output = workload.execute(item, inputs)
        except Exception as exc:  # counted as a failed item
            output = Raised(repr(exc))
        pending.append(time.perf_counter() - start)
        if tracer is None:
            outcomes(index, output)
        else:
            tracer.uncounted(outcomes, index, output)
        del output
        if clock.due() or index == len(items) - 1:
            after = clock.sample()
            scale = clock.scale(before, after)
            raw.extend(pending)
            scaled.extend(t * scale for t in pending)
            pending, before = [], after
    return raw, scaled


def warm_up(workload, items, workdir) -> None:
    """Run the first item of each kind once, untimed."""
    seen = set()
    for item in items:
        if item.kind not in seen:
            seen.add(item.kind)
            workload.execute(item, workload.prepare(item, workdir))


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of all order statistics (Harrell and Davis,
    Biometrika 69, 1982).  Item latencies are spread over orders of
    magnitude, so the one or two items a plain percentile reads jump
    between seeds; the weighted mean reads the neighbourhood instead.
    """
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(edges[:-1], edges[1:], ordered)))


def _item_medians(reps: list[list[float]]) -> list[float]:
    return [statistics.median(rep[i] for rep in reps) for i in range(len(reps[0]))]


def _prepare_batch(workload, args, workdir):
    items = workload.generate(args.seed)
    prepared = [workload.prepare(item, workdir) for item in items]
    warm_up(workload, items, workdir)
    return items, prepared, Outcomes(workload, items, prepared)


def untraced_run(workload, args, clock, workdir) -> dict:
    """The seed's batch, repeated until the time is spent.

    Each item's latency is its median over the repetitions, so a burst of
    load on the host moves one sample of each item rather than the result.
    """
    items, prepared, outcomes = _prepare_batch(workload, args, workdir)
    reps, raw_reps, timed = [], [], 0.0
    while not reps or timed < args.seconds:
        raw, scaled = run_batch(workload, items, prepared, clock, outcomes)
        timed += sum(raw)
        reps.append(scaled)
        raw_reps.append(raw)
    latencies = _item_medians(reps)
    values = {
        "run_s": sum(latencies),
        "item_p50_ms": quantile(latencies, 0.5) * 1e3,
        "item_p90_ms": quantile(latencies, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - len(outcomes.failed) / len(items),
    }
    return {
        "attempted": len(items) * len(reps),
        "failed": len(outcomes.failed),
        "failures": outcomes.failures,
        "values": values,
        "note": f"{len(reps)} repetitions, unscaled run_s {sum(_item_medians(raw_reps)):.4f}",
    }


def _layer_values(summary: dict, scale: float) -> dict:
    busy, work, calls = summary["busy"], summary["work"], summary["calls"]

    def seconds(name):
        return busy[name] * scale

    def rate(name):
        return work[name] / seconds(name) if busy[name] else 0.0

    values = {f"{layer}.self_s": summary["self"][layer] * scale for layer in LAYERS}
    values.update({f"{layer}.errors": summary["errors"][layer] for layer in LAYERS})
    for name in ("exprio.parse", "exprio.render", "ordering.convert", "ordering.closed_form",
                 "opalg.rewrite", "opalg.normal_order", "fockspace.wigner", "fockspace.quadrature",
                 "fockspace.marginal", "phasexform.transform", "phasexform.csv"):
        values[f"{name}.busy_s"] = seconds(name)
    values.update({
        "exprio.parse.chars_per_s": rate("exprio.parse"),
        "ordering.convert.calls": calls["ordering.convert"],
        "ordering.convert.terms_out_per_s": rate("ordering.convert"),
        "opalg.rewrite.calls": calls["opalg.rewrite"],
        "opalg.rewrite.words_in": work["opalg.rewrite"],
        "exactnum.mul.calls": summary["counts"]["exactnum.mul"],
        "exactnum.add.calls": summary["counts"]["exactnum.add"],
        "fockspace.wigner.entries_per_s": rate("fockspace.wigner"),
        "fockspace.quadrature.entries_per_s": rate("fockspace.quadrature"),
        "phasexform.transform.cells_per_s": rate("phasexform.transform"),
        "phasexform.csv.bytes_per_s": rate("phasexform.csv"),
        "trace.spans": summary["spans"],
    })
    return values


def traced_run(workload, args, clock, workdir) -> dict:
    """The seed's batch, alternately untraced and traced, until the time is spent.

    Traced outputs must equal the untraced ones, and every layer the
    workload is meant to stress must record spans.
    """
    import tracing

    items, prepared, outcomes = _prepare_batch(workload, args, workdir)
    plain_reps, traced_reps, per_rep, spans, quiet = [], [], [], [], set()
    timed = 0.0
    while not traced_reps or timed < args.seconds:
        raw, scaled = run_batch(workload, items, prepared, clock, outcomes)
        timed += sum(raw)
        plain_reps.append(scaled)
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer)
        try:
            raw, scaled = run_batch(workload, items, prepared, clock, outcomes, tracer)
        finally:
            restore()
        timed += sum(raw)
        traced_reps.append(scaled)
        seen = {row[1] for row in tracer.spans} | ({"exactnum"} if tracer.counts else set())
        quiet |= set(STRESSED[workload.NAME]) - seen
        # Layer times take the repetition's overall scale.
        scale = sum(scaled) / sum(raw)
        per_rep.append(_layer_values(tracing.summarize(tracer.spans, tracer.counts), scale))
        spans.extend([len(per_rep), *row] for row in tracer.spans)
    values = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
    plain_s, traced_s = sum(_item_medians(plain_reps)), sum(_item_medians(traced_reps))
    values["trace.overhead_s"] = traced_s - plain_s
    tracing.write_spans(BUILD / f"spans-{workload.NAME}-{args.seed}.csv", spans)
    return {
        "attempted": 2 * len(items) * len(per_rep),
        "failed": len(outcomes.failed),
        "failures": outcomes.failures + [f"layer {layer} recorded no spans" for layer in sorted(quiet)],
        "values": values,
        "note": f"{len(per_rep)} traced repetitions, run_s {plain_s:.4f} untraced, {traced_s:.4f} traced",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weylkit" / "__init__.py").is_file():
        print(f"no weylkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var, value in _child_env().items():
        os.environ[var] = value
    sys.path.insert(0, str(SRC))
    import weylkit

    if Path(weylkit.__file__).resolve().parent != SRC / "weylkit":
        print(f"imported weylkit from {weylkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import calibration

    module, probe = WORKLOADS[args.workload]
    workload = importlib.import_module(module)
    print(json.dumps({"environment": environment()}), file=sys.stderr)
    workdir = BUILD / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        clock = calibration.Clock(probe)
        setup_s, import_s = measure_setup(workload)
        result = (traced_run if args.trace else untraced_run)(workload, args, clock, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = result["values"]
    if args.trace:
        values["setup.import_s"] = import_s
        values["calibration.probe_ms"] = statistics.median(clock.samples) * 1e3
    else:
        values["setup_s"] = setup_s
    for failure in result["failures"][:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{args.workload}: {len(result['failures'])} failures, {result['note']}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _metrics(values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
