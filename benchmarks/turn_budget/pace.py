"""The machine-speed probe: times are reported at reference speed.

The box this benchmark runs on is shared.  Its speed drifts by 20-50 % for
seconds to minutes at a time, for CPU time as much as for wall time, so
neither longer runs nor medians within a run remove the drift.  A fixed
piece of work that is independent of the program under test does: the probe
below runs just before and just after each timed operation, and the
operation's time is divided by how much slower than the reference the
probe ran.  On a quiet reference box the divisor is 1 and the numbers are
plain milliseconds; elsewhere they are milliseconds *at reference speed*.

The probe is half interpreter work (dict, str, int, sort) and half numpy
work (matvec, argsort, gather, reduce), because that is what the program
is made of.  Measured on the reference box over three minutes of the same
operation repeated, the quartile spread of 5-second medians fell from
19-24 % raw to 3 % divided by the probe; either half alone left 6-8 %.
"""

from __future__ import annotations

import time

import numpy as np

#: The two halves on the reference box (2-core Xeon @ 2.10 GHz, CPython
#: 3.11) in its quiet stretches: the lowest decile of the samples taken
#: between operations, where the probe's data has been evicted by the
#: program's, as it is in a run.
PY_REFERENCE_S = 0.00050
NP_REFERENCE_S = 0.00230

_rng = np.random.default_rng(0)
_MATRIX = _rng.random((400, 192))
_VECTOR = _rng.random(192)
_ROWS = _rng.integers(0, 400, 300)


def _python_half() -> float:
    started = time.perf_counter()
    counts: dict = {}
    for i in range(3000):
        key = str(i % 97)
        counts[key] = counts.get(key, 0) + i * i % 7
    sum(value for _, value in sorted(counts.items()))
    return time.perf_counter() - started


def _numpy_half() -> float:
    started = time.perf_counter()
    for _ in range(20):
        scores = _MATRIX @ _VECTOR
        np.argsort(scores)[:50]
        gathered = _MATRIX[_ROWS]
        (gathered * gathered).sum(axis=1)
    return time.perf_counter() - started


def slowdown() -> float:
    """How many times slower than the reference the box is right now."""
    return (_python_half() / PY_REFERENCE_S + _numpy_half() / NP_REFERENCE_S) / 2.0
