"""One digest over every output of seed 1's exact benchmark batches.

The ``oracle-sweep`` and ``cli-exact`` workloads of ``bench/`` exercise
the closed forms, the rewriting oracle and the exact CLI end to end.
This runs seed 1's batch of each and compares one
``harness.fingerprint`` over all their outputs with a digest taken
before the exact products learned to skip unit operands.  A change
meant to leave exact results bit-identical must leave it unchanged;
one that changes them on purpose states why and takes a new digest.

``harness.fingerprint`` sorts dict entries, so each polynomial is fed
as its ordered list of (key, canonical tuple) pairs: term order counts
too.  It reads ``bench/`` and changes nothing there.
"""

from __future__ import annotations

import sys
from pathlib import Path

from weylkit.opalg import LadderPolynomial, OrderedPolynomial

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import cli_exact  # noqa: E402
import harness  # noqa: E402
import oracle_sweep  # noqa: E402

DIGEST = "f07ce8bece2da63b6b6ce38b11cf34b064457860b3c494e7c6f2350b910847ea"


def _ordered(value):
    """``value`` with every polynomial as its terms in dict order."""
    if isinstance(value, (OrderedPolynomial, LadderPolynomial)):
        terms = [(tuple(key), coeff.canonical) for key, coeff in value.terms.items()]
        return (value.ordering.value, terms)
    if isinstance(value, tuple):
        return tuple(_ordered(part) for part in value)
    return value


def test_exact_workload_outputs_match_their_digest(tmp_path):
    outputs = []
    for workload in (oracle_sweep, cli_exact):
        for item in workload.generate(1):
            outputs.append(workload.execute(item, workload.prepare(item, tmp_path)))
    assert harness.fingerprint(_ordered(tuple(outputs))) == DIGEST
