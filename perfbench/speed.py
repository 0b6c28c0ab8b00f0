"""Host-speed reference for the timed region.

On a shared host the speed of one core drifts by up to a factor of two
within a minute (neighbours' load), and the CPU time of a command drifts
with it, so raw wall times of the same code spread by more than the
benchmark's bounds.  A fixed reference kernel measures that drift while the
commands run.  It has two parts, timed apart because the drift slows them
differently: interpreter work (dataclass updates, scalar math, building a
matrix element by element) and small-matrix linear algebra behind numpy's
wrappers, as in one grid point.  It runs no cmmsim code, so a change to the
program cannot move it.

``Speedometer`` runs one sample every ``INTERVAL_S`` from a SIGALRM handler
inside the timed process.  A command's wall time, less the time its samples
took, is divided by its *slowness*: the mean time of each part over the
samples around the command, each over its time on a quiet host, weighted by
``PYTHON_WEIGHT``.  The reported times are thus those of a host on which a
sample's parts take ``NOMINAL_PYTHON_S`` and ``NOMINAL_LINALG_S``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
# bound here, so that the tracer's wrappers around numpy.linalg never see them
from numpy.linalg import eigvals, solve

INTERVAL_S = 0.05
#: samples this far before and after a command count towards its slowness
WINDOW_S = 1.0
#: median time of each part on a 2-core Xeon VM when its host was quiet
NOMINAL_PYTHON_S = 2.3e-4
NOMINAL_LINALG_S = 1.3e-4
#: share of the interpreter part in the slowness
PYTHON_WEIGHT = 0.5

_rng = np.random.default_rng(20250130)
_EYE = np.eye(6)
_BASE = -3.0 * _EYE + 0.3 * _rng.standard_normal((6, 6))
_RHS = _rng.standard_normal(36)
_BLOCKS = [_BASE[i:i + 4, i:i + 4].copy() for i in range(3)]


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    power: float
    temperature: float

    def __post_init__(self):
        if not (self.power > 0.0 and self.temperature >= 0.0):
            raise ValueError("unphysical reference point")


def _python_part() -> np.ndarray:
    """Frozen-dataclass updates with validation, scalar math, a dict, and a
    6x6 matrix built element by element."""
    p = _Point(0.01, 1.0, 1e-2, 1e-2)
    acc = 0.0
    for i in range(100):
        p = replace(p, y=p.y + 1e-3 * i)
        acc += math.sqrt(p.x * p.y + p.power) + math.atan2(p.y, p.temperature)
        acc += {"x": p.x, "y": p.y}["y"] * 1e-3
    rows = [[_BASE[i, j] + (p.x * (i - j) if i != j else -acc * 1e-3)
             for j in range(6)] for i in range(6)]
    return np.array(rows)


def _linalg_part(a: np.ndarray) -> float:
    """The matrix's eigenvalues, the 36x36 Kronecker solve of a Lyapunov
    equation and three 4x4 eigenvalue problems."""
    acc = float(eigvals(a).real.max())
    big = np.kron(_EYE, a) + np.kron(a, _EYE)
    acc += float(solve(big, _RHS)[0])
    for b in _BLOCKS:
        acc += float(np.abs(eigvals(b)).min())
    return acc


def kernel() -> tuple[float, float]:
    """One sample: the seconds its interpreter and linear-algebra parts took."""
    start = time.perf_counter()
    a = _python_part()
    mid = time.perf_counter()
    _linalg_part(a)
    return mid - start, time.perf_counter() - mid


def block(n: int) -> list[tuple[float, float]]:
    """``n`` back-to-back samples."""
    return [kernel() for _ in range(n)]


def slowness(samples: list[tuple[float, float]]) -> float:
    python = statistics.fmean(p for p, _ in samples) / NOMINAL_PYTHON_S
    linalg = statistics.fmean(la for _, la in samples) / NOMINAL_LINALG_S
    return PYTHON_WEIGHT * python + (1.0 - PYTHON_WEIGHT) * linalg


class Speedometer:
    """Samples the kernel every ``interval`` seconds while ``running``."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        #: (midpoint, interpreter seconds, linear-algebra seconds)
        self.samples: list[tuple[float, float, float]] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        python, linalg = kernel()
        end = time.perf_counter()
        self.samples.append((0.5 * (start + end), python, linalg))
        self.spent += end - start

    @contextmanager
    def running(self):
        block(1)   # first-call costs stay out of the samples
        self._sample(signal.SIGALRM, None)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowness(self, start: float, end: float) -> float:
        """Slowness over ``[start, end]``, from the samples within
        ``WINDOW_S`` of it, or the nearest sample if there are none."""
        near = [s for s in self.samples
                if start - WINDOW_S <= s[0] <= end + WINDOW_S]
        if not near:
            mid = 0.5 * (start + end)
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))]
        return slowness([s[1:] for s in near])
