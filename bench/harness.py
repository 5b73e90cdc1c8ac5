"""Pieces shared by the three workloads.

A workload module exposes:

* ``KINDS``: item kind -> number of items of that kind in every batch;
* ``generate(seed)``: the batch's items, a pure function of the seed;
* ``prepare(item, workdir)``: inputs built outside the timed region
  (``workdir`` is a scratch directory inside the checkout);
* ``execute(item, prepared)``: the timed call into weylkit;
* ``check(item, prepared, output)``: an independent check, run outside
  the timed region, that raises :class:`CheckFailure`;
* ``SETUP``: Python source that warms the lazy caches the workload uses,
  run after ``import weylkit.cli`` in a fresh interpreter;
* ``NAME``: the workload's name on the command line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from typing import NamedTuple

import numpy as np


class Item(NamedTuple):
    kind: str
    params: tuple


class CheckFailure(AssertionError):
    """An item's output failed its independent check."""


@dataclasses.dataclass(frozen=True)
class Raised:
    """Stands in for the output of an item whose call raised."""

    error: str


def rng_for(seed: int, name: str) -> random.Random:
    # String seeds hash with SHA-512, so a seed gives the same batch on
    # every interpreter and platform.
    return random.Random(f"{name}:{seed}")


def log_strata(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """One log-uniform draw from each of ``count`` equal strata of [low, high].

    One draw per stratum keeps every batch's size profile close to the
    log-uniform target, so batch cost varies little between seeds.
    """
    low, high = math.log(low), math.log(high)
    return [math.exp(low + (high - low) * (i + rng.random()) / count) for i in range(count)]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def gaussian_terms(terms) -> dict:
    """weylkit exact terms as reference (re, im) pairs.

    A sqrt2 component cannot occur in the workloads' exact outputs, so it
    is reported as a failure rather than dropped.
    """
    out = {}
    for key, coeff in terms.items():
        expect(coeff.rb == 0 and coeff.ib == 0, f"unexpected sqrt2 part at {tuple(key)}")
        out[tuple(key)] = (coeff.ra, coeff.ia)
    return out


def fingerprint(output) -> str:
    """A digest of an output: equal outputs, arrays bit for bit, give equal
    digests, whatever the order of dict entries."""
    digest = hashlib.sha256()
    _feed(digest, output)
    return digest.hexdigest()


def _feed(digest, value) -> None:
    if isinstance(value, np.ndarray):
        digest.update(f"array{value.dtype.str}{value.shape}".encode())
        digest.update(memoryview(np.ascontiguousarray(value)).cast("B"))
    elif isinstance(value, (tuple, list)):
        digest.update(f"seq{len(value)}".encode())
        for part in value:
            _feed(digest, part)
    elif isinstance(value, dict):
        digest.update(f"map{len(value)}".encode())
        for key in sorted(value, key=repr):
            digest.update(repr(key).encode())
            _feed(digest, value[key])
    elif dataclasses.is_dataclass(value):
        digest.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            _feed(digest, getattr(value, field.name))
    else:
        digest.update(repr(value).encode())
