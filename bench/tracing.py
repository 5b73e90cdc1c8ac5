"""Spans around the calls into each weylkit module, from outside the package.

:func:`instrument` wraps the public entry points of every layer and
rebinds every name that refers to them, in every loaded ``weylkit``
module: ``cli`` and ``verify`` import ``rewrite_to_pq`` by value, so
patching ``opalg`` alone would miss their calls.  Spans stay in memory
as ``[name, layer, start, end, parent, item, failed, work]`` rows;
``ExactScalar`` multiplications and additions are counted, not spanned.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._active = True

    def uncounted(self, fn, *args, **kwargs):
        """Call ``fn`` without counting scalar operations or opening spans."""
        active, self._active = self._active, False
        try:
            return fn(*args, **kwargs)
        finally:
            self._active = active

    def span(self, fn, name: str, layer: str, before=None, after=None):
        """Wrap ``fn`` in a span; ``before``/``after`` measure its work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            work = self.uncounted(before, *args, **kwargs) if before else None
            row = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item, False, work]
            index = len(self.spans)
            self.spans.append(row)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[6] = True
                raise
            finally:
                row[3] = time.perf_counter()
                row[2] = start
                self._stack.pop()
            if after:
                row[7] = self.uncounted(after, result, *args, **kwargs)
            return result

        return wrapper

    def counter(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args):
            if self._active:
                self.counts[key] += 1
            return fn(*args)

        return wrapper


# -- work measures, taken outside the spans --------------------------------


def _chars(text, *_, **__):
    return len(text) if isinstance(text, str) else 0


def _terms_out(result, *_, **__):
    return len(result.terms)


def _words_in(expr, *_, **__):
    return len(expr.expand())


def _wigner_entries(rho, points, p_axis=None):
    dim = len(rho.data if hasattr(rho, "data") else rho)
    count = len(points) * len(p_axis) if p_axis is not None else len(points)
    return count * dim * (dim + 1) // 2


def _quadrature_entries(fn):
    signature = inspect.signature(fn)

    def measure(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        count = int(round(2.0 * bound.arguments["half_range"] / bound.arguments["step"]))
        block = bound.arguments["block"]
        return count * count * block * (block + 1) // 2

    return measure


def _cells(field, *_, **__):
    return field.nq * field.np_


def _bytes_written(result, field, path):
    return os.path.getsize(path)


def _bytes_read(cls, path):
    return os.path.getsize(path)


def _targets():
    """(owner, attribute, span name, layer, before, after) for every span."""
    from weylkit import cli, exprio, fockspace, opalg, ordering, phasexform, verify

    closed_forms = (
        "qp_to_pq", "pq_to_qp", "weyl_to_pq", "weyl_to_qp", "qp_to_weyl", "pq_to_weyl",
        "p_plus_q_power", "commutator_closed_form", "weyl_symmetrization",
    )
    return (
        [(cli, "main", "cli.main", "cli", None, None)]
        + [(exprio, "parse", "exprio.parse", "exprio", _chars, None)]
        + [(exprio, name, "exprio.render", "exprio", None, None) for name in ("render", "render_terms", "polynomial_to_json")]
        + [(ordering, "convert", "ordering.convert", "ordering", None, _terms_out)]
        + [(ordering, name, "ordering.closed_form", "ordering", None, None) for name in closed_forms]
        + [(opalg, name, "opalg.rewrite", "opalg", _words_in, None) for name in ("rewrite_to_pq", "rewrite_to_qp")]
        + [(opalg, "normal_order", "opalg.normal_order", "opalg", None, None)]
        + [(fockspace, "wigner_function", "fockspace.wigner", "fockspace", _wigner_entries, None)]
        + [(fockspace, "monomial_quantization_quadrature", "fockspace.quadrature", "fockspace",
            _quadrature_entries(fockspace.monomial_quantization_quadrature), None)]
        + [(fockspace, "marginal_check", "fockspace.marginal", "fockspace", None, None)]
        + [(phasexform, name, "phasexform.transform", "phasexform", _cells, None)
           for name in ("forward_transform", "inverse_transform")]
        + [(phasexform.SampledField, "to_csv", "phasexform.csv", "phasexform", None, _bytes_written)]
        + [(phasexform.SampledField, "from_csv", "phasexform.csv", "phasexform", _bytes_read, None)]
        + [(verify, name, "verify.check", "verify", None, None) for name in ("_exact", "_numeric")]
    )


def instrument(tracer: Tracer):
    """Install the spans and counters; returns a function that removes them."""
    from weylkit.exactnum import ExactScalar

    namespaces = [vars(m) for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "weylkit"]
    undo = []

    for owner, attribute, name, layer, before, after in _targets():
        if isinstance(owner, type):
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.span(raw.__func__, name, layer, before, after))
            else:
                wrapped = tracer.span(raw, name, layer, before, after)
            undo.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
            continue
        original = getattr(owner, attribute)
        wrapped = tracer.span(original, name, layer, before, after)
        for space in namespaces:
            for key, value in list(space.items()):
                if value is original:
                    undo.append((space, key, value))
                    space[key] = wrapped

    for attribute, key in (("__mul__", "exactnum.mul"), ("__add__", "exactnum.add")):
        original = vars(ExactScalar)[attribute]
        wrapped = tracer.counter(original, key)
        # __rmul__ and __radd__ are the same function objects.
        for alias, value in list(vars(ExactScalar).items()):
            if value is original:
                undo.append((ExactScalar, alias, value))
                setattr(ExactScalar, alias, wrapped)

    def restore():
        for space, key, value in reversed(undo):
            if isinstance(space, dict):
                space[key] = value
            else:
                setattr(space, key, value)

    return restore


# -- summaries -------------------------------------------------------------


def summarize(spans: list[list], counts: Counter) -> dict:
    """Per-span and per-layer totals of one traced batch."""
    calls, busy, work, errors = Counter(), Counter(), Counter(), Counter()
    self_time, child_time = Counter(), Counter()
    for name, layer, start, end, parent, _, failed, amount in spans:
        duration = end - start
        calls[name] += 1
        errors[layer] += failed
        if amount is not None:
            work[name] += amount
        if parent >= 0:
            child_time[parent] += duration
        # Busy time counts a span only when no enclosing span has its name,
        # so nested calls (p_plus_q_power -> weyl_to_pq) are not doubled.
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            busy[name] += duration
    for index, row in enumerate(spans):
        self_time[row[1]] += (row[3] - row[2]) - child_time[index]
    return {
        "calls": calls, "busy": busy, "work": work, "errors": errors,
        "self": self_time, "counts": Counter(counts), "spans": len(spans),
    }


def write_spans(path, rows: list[list]) -> None:
    """One CSV line per span, each row prefixed by its traced repetition."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("rep,name,layer,start,end,parent,item,failed,work\n")
        for row in rows:
            handle.write(",".join("" if v is None else str(v) for v in row) + "\n")
