"""Machine-speed probes that put timings on a common scale.

On a shared host the same call can take twice as long from one ten
seconds to the next, while the ratio of its time to a fixed probe run
beside it stays within a few percent.  The benchmark therefore runs a
fixed probe at least every ``INTERVAL_S`` seconds between items and
scales each duration by ``REFERENCE_S[kind]`` over the mean of the
probes on either side: the result is in seconds on a machine where the
probe takes its reference time.  The probes do not touch weylkit, so
no change to the package can move them.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# Typical probe times on the machine described in README.md.  They fix
# the scale only; comparisons between commits do not depend on them.
REFERENCE_S = {"python": 4.5e-3, "mixed": 7.0e-3}
INTERVAL_S = 0.1
# Set-up time is a fresh interpreter's imports, which the in-process
# probes track poorly (a probe swung 1.7x where the imports swung 1.4x).
# It is scaled instead by a fresh interpreter that imports numpy alone.
SPAWN_PROBE = "import numpy"
SPAWN_REFERENCE_S = 0.145


def _python_probe() -> int:
    # Fraction arithmetic, dict updates and tuple slicing: the operations
    # the exact layers spend their time in.
    table = {}
    x = Fraction(1, 3)
    for i in range(700):
        x = x * Fraction(i % 7 + 1, 5) + 1 if x.denominator < 10**6 else Fraction(i, 7)
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
        word = tuple(range(i % 9))
        word = word[:3] + word[4:]
    return len(table)


_GRID = np.linspace(-3.0, 3.0, 96)
_MATRIX = np.exp(1j * np.outer(_GRID, _GRID))


def _numpy_probe() -> float:
    # A dense complex product, elementwise complex work on a mid-size array
    # and many small ufunc calls: the operations of the kernel and the
    # transform.
    total = np.abs(_MATRIX @ _MATRIX).sum()
    chirp = np.exp(2j * np.outer(_GRID, _GRID) * 0.5)
    total += float(np.abs(chirp).sum())
    for j in range(200):
        total += float((_GRID ** (j % 7) * np.exp(-0.5 * _GRID * _GRID)).sum())
    return total


def _mixed_probe() -> float:
    # The numeric workload also spends its time in the interpreter: ufunc
    # dispatch in the kernel loops and string formatting in CSV I/O.
    return _python_probe() + _numpy_probe()


PROBES = {"python": _python_probe, "mixed": _mixed_probe}


class Clock:
    """Probe samples taken between items, and the scale they give."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self) -> float:
        probe = PROBES[self.kind]
        # A collection of the workload's garbage is not machine speed.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        self._last = time.perf_counter()
        return elapsed

    def due(self) -> bool:
        return time.perf_counter() - self._last >= INTERVAL_S

    def scale(self, before: float, after: float) -> float:
        """Scale for work done between two probes.

        The host's speed drifts over seconds, so only the probes on either
        side of a stretch of work describe the speed it ran at.
        """
        return REFERENCE_S[self.kind] / (0.5 * (before + after))


def spawn(code: str, env: dict, cwd) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of a fresh interpreter running ``code``, and its result."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )
    return time.perf_counter() - start, proc
