"""Parameter-sweep engine and phase optimizer.

Operating points are evaluated as arrays, a grid BLOCK * CHUNK points at a
time: mean field, drift and diffusion, and one batched determinant that
screens the drifts.  A stable real drift has a positive determinant, so
only those drifts get an eigendecomposition (its eigenvalues give the
stability margin, its eigenvectors the modal Lyapunov solve); the others
get their eigenvalues alone, which is all the margin needs.  The
stable points then go CHUNK at a time through the Lyapunov solve and the
partial-transpose spectra.  A single point is a batch of one.  Every step
treats each point on its own, so a point's row is bit-identical whichever
batch it is evaluated in.  Results are kept as columns (a SweepTable), a
grid's points in row-major order with the first axis outermost; a row
object is built only where one is asked for.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import dynamics, entanglement, meanfield
from .errors import CmmError, NoStablePointError, ParameterError
from .params import ParamBatch, PhysicalParams, violations

AXES = ("delta_a", "delta_theta", "T", "P_a")

#: the drive power each pump mode forces to zero
_PUMP_OFF = {"both": None, "magnon-only": "P_a", "cavity-only": "P_m"}
PUMP_MODES = tuple(_PUMP_OFF)


@dataclass(frozen=True)
class SweepAxis:
    """One linearly spaced sweep axis.

    ``delta_a`` is dimensionless (units of omega_b), ``delta_theta`` is in
    radians, ``T`` in kelvin, ``P_a`` in watts.
    """

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXES:
            raise ValueError(f"unknown sweep axis {self.name!r}; choose from {AXES}")
        if self.count < 1:
            raise ValueError(f"axis {self.name}: count must be >= 1")
        if not self.start <= self.stop:
            raise ValueError(f"axis {self.name}: start must be <= stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters plus up to two sweep axes and a pump mode."""

    base: PhysicalParams
    axes: tuple[SweepAxis, ...] = ()
    pump_mode: str = "both"

    def __post_init__(self):
        if len(self.axes) > 2:
            raise ValueError("at most two sweep axes are supported")
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"sweep axes must be distinct, got {names}")
        if self.pump_mode not in PUMP_MODES:
            raise ValueError(
                f"unknown pump_mode {self.pump_mode!r}; choose from {PUMP_MODES}")
        off = _PUMP_OFF[self.pump_mode]
        if off in names:
            raise ValueError(
                f"sweep axis {off} has no effect under pump_mode "
                f"{self.pump_mode!r}, which forces {off} = 0")


@dataclass
class SweepRow:
    """One evaluated grid point.  Entanglement fields are NaN whenever the
    point is unstable or errored; ``status`` says which."""

    axis1: float
    axis2: float
    stable: bool
    margin: float
    r_min: float
    residual_a: float
    residual_m: float
    residual_b: float
    en_am: float
    en_ab: float
    en_mb: float
    en_a_mb: float
    en_m_ab: float
    en_b_am: float
    abs_ms_sq: float
    q_s: float
    status: str = "ok"


#: the row fields between (axis1, axis2, stable) and status, margin ..
#: q_s: the columns of SweepTable.values
FLOAT_FIELDS = tuple(f.name for f in fields(SweepRow))[3:-1]

#: the columns that the stages fill
_ABS_MS_SQ, _Q_S, _MARGIN = (FLOAT_FIELDS.index(name)
                             for name in ("abs_ms_sq", "q_s", "margin"))
_MEASURE_COLUMNS = [FLOAT_FIELDS.index(name) for name in entanglement.MEASURES]


class SweepTable(Sequence):
    """Evaluated points as columns: the axis values, the stable flags and
    ``values``, whose column j holds FLOAT_FIELDS[j] of every point.  A
    point's status is its ``errors`` entry if it has one, else "ok" if it
    is stable, else "unstable".

    The table is also a read-only sequence of SweepRow; each row is built
    when it is indexed.
    """

    def __init__(self, axis1: np.ndarray, axis2: np.ndarray,
                 stable: np.ndarray, values: np.ndarray,
                 errors: dict[int, str]):
        self.axis1, self.axis2, self.stable = axis1, axis2, stable
        self.values, self.errors = values, errors

    def __len__(self) -> int:
        return len(self.stable)

    def __getitem__(self, k) -> SweepRow:
        k = range(len(self))[operator.index(k)]  # from the end if k < 0
        return SweepRow(float(self.axis1[k]), float(self.axis2[k]),
                        bool(self.stable[k]), *self.values[k].tolist(),
                        status=self.status(k))

    def status(self, k: int) -> str:
        return self.errors.get(k, "ok" if self.stable[k] else "unstable")

    def column(self, name: str) -> np.ndarray:
        """The column of a FLOAT_FIELDS name (a view)."""
        return self.values[:, FLOAT_FIELDS.index(name)]

    @classmethod
    def concat(cls, tables) -> SweepTable:
        """The tables' points one after another."""
        errors, offset = {}, 0
        for table in tables:
            errors.update((offset + k, s) for k, s in table.errors.items())
            offset += len(table)
        return cls(*(np.concatenate([getattr(t, name) for t in tables])
                     for name in ("axis1", "axis2", "stable", "values")),
                   errors)


#: stable points solved together by the Lyapunov and entanglement
#: stages; bounds the stacked arrays' memory
CHUNK = 128

#: a sweep hands the engine blocks of BLOCK * CHUNK points, so that the
#: stable points of a mostly unstable grid still fill whole chunks
BLOCK = 8

#: the phase optimizer's zoom factor: each round evaluates 2*ZOOM + 1
#: phases and then narrows its bracket ZOOM-fold
ZOOM = 8


def apply_pump_mode(params: PhysicalParams, pump_mode: str) -> PhysicalParams:
    """magnon-only forces P_a = 0; cavity-only forces P_m = 0."""
    if pump_mode not in _PUMP_OFF:
        raise ValueError(f"unknown pump_mode {pump_mode!r}")
    off = _PUMP_OFF[pump_mode]
    return params if off is None else params.replace(**{off: 0.0})


def _axis_field(params: PhysicalParams, name: str, value):
    """The field a sweep-axis value sets, and the field's new value;
    ``value`` may be a float or an array of them."""
    if name == "delta_a":
        return "delta_a", value * params.omega_b
    if name == "delta_theta":
        return "theta_a", params.theta_m + value
    if name in ("T", "P_a"):
        return name, value
    raise ValueError(f"unknown sweep axis {name!r}")


def apply_axis(params: PhysicalParams, name: str, value: float) -> PhysicalParams:
    field, new = _axis_field(params, name, value)
    return params.replace(**{field: new})


class BatchResult(NamedTuple):
    """What the engine returns for a batch: its table, and ``covariances``,
    shape (n, 6, 6), each point's steady-state covariance matrix (NaN
    unless the point's status is "ok")."""

    table: SweepTable
    covariances: np.ndarray


def evaluate_batch(p: ParamBatch) -> BatchResult:
    """Run the full pipeline at every point of ``p`` as arrays; the table's
    axis values are NaN (:func:`run_sweep` fills in a grid's).

    Like :func:`evaluate_point` this never raises for physics or numerical
    reasons, and each row equals that point's ``evaluate_point`` row bit
    for bit.  A linear-algebra or arithmetic failure that the stages do not
    turn into a per-point status (an eigensolver that does not converge, a
    domain error) is confined to its point: the batch is evaluated again
    point by point, and the failing point becomes an error row.
    """
    n = len(p)
    try:
        with np.errstate(all="ignore"):
            return _run_stages(p)
    except (CmmError, np.linalg.LinAlgError, ArithmeticError,
            ValueError) as exc:
        if n == 1:
            table = SweepTable(*np.full((2, 1), np.nan), np.zeros(1, bool),
                               np.full((1, len(FLOAT_FIELDS)), np.nan),
                               {0: f"error: {exc}"})
            return BatchResult(table, np.full((1, 6, 6), np.nan))
        parts = [evaluate_batch(p.take([k])) for k in range(n)]
        return BatchResult(SweepTable.concat([part.table for part in parts]),
                           np.concatenate([part.covariances for part in parts]))


def _run_stages(p: ParamBatch) -> BatchResult:
    n = len(p)
    values = np.full((n, len(FLOAT_FIELDS)), np.nan)
    stable = np.zeros(n, bool)
    errors = {}
    cov = np.full((n, 6, 6), np.nan)

    # each stage narrows ``idx``, the points still alive, and evaluates
    # only those, so no invalid or non-finite input reaches a later stage
    ok = np.ones(n, bool)
    for k, messages in violations(p).items():
        ok[k] = False
        errors[k] = f"error: {ParameterError(messages)}"
    idx = np.flatnonzero(ok)
    q = p.take(idx)

    mf = meanfield.solve_effective_batch(q)
    for k in idx[mf.singular].tolist():
        errors[k] = f"error: {meanfield.SINGULAR_RESPONSE}"
    for k in idx[~mf.singular & ~mf.finite].tolist():
        errors[k] = f"error: {meanfield.NON_FINITE_STATE}"
    ok = ~mf.singular & mf.finite
    values[idx[ok], _ABS_MS_SQ] = mf.abs_ms_sq[ok]
    values[idx[ok], _Q_S] = mf.q_s[ok]

    a = dynamics.drift_batch(q, mf)
    d = dynamics.diffusion_batch(q)
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(d).all(axis=1)
    for k in idx[ok & ~finite].tolist():
        errors[k] = "error: non-finite drift or diffusion matrix"
    ok &= finite
    idx, a, d, omega_b = idx[ok], a[ok], d[ok], q.omega_b[ok]

    # a Hurwitz-stable real 6x6 drift has det A = prod(lambda) > 0, so the
    # others need no eigenvectors; a stable drift whose det reads <= 0
    # keeps a NaN basis, which steady_covariances solves by Kronecker
    maybe = np.linalg.slogdet(a)[0] > 0.0
    if maybe.all():
        lam, s = np.linalg.eig(a)
    else:
        lam = np.empty(a.shape[:2], complex)
        s = np.full(a.shape, np.nan, complex)
        lam[~maybe] = np.linalg.eigvals(a[~maybe])
        lam[maybe], s[maybe] = np.linalg.eig(a[maybe])
    margin = lam.real.max(axis=1)
    values[idx, _MARGIN] = margin
    ok = margin < -dynamics.STABILITY_EPS * omega_b
    # a stable point keeps its flag and margin if a later stage fails
    stable[idx[ok]] = True
    idx, a, d, lam, s = idx[ok], a[ok], d[ok], lam[ok], s[ok]

    # the stable points, CHUNK at a time
    for start in range(0, idx.size, CHUNK):
        at = slice(start, start + CHUNK)
        v, failed = dynamics.steady_covariances(a[at], d[at], lam[at], s[at])
        sub = idx[at]
        for j, message in failed.items():
            errors[int(sub[j])] = f"error: {message}"
        solved = np.delete(np.arange(sub.size), list(failed))
        sub, v = sub[solved], v[solved]

        measures, failed = entanglement.entanglement_batch(v)
        for j, message in failed.items():
            errors[int(sub[j])] = f"error: {message}"
        done = np.delete(np.arange(sub.size), list(failed))
        values[np.ix_(sub[done], _MEASURE_COLUMNS)] = measures[done]
        cov[sub[done]] = v[done]

    return BatchResult(SweepTable(*np.full((2, n), np.nan), stable, values,
                                  errors), cov)


def evaluate_point(params: PhysicalParams) -> SweepRow:
    """The row of one parameter point: :func:`evaluate_batch` of a batch
    of one.

    Never raises for physics or numerical reasons: invalid parameters,
    instability and solver errors are captured in the row (entanglement
    fields NaN, ``status`` set).  The point's covariance matrix is the
    batch's ``covariances[0]``; apply a pump mode with
    :func:`apply_pump_mode` first.
    """
    return evaluate_batch(ParamBatch.from_base(params, 1)).table[0]


def _coordinates(spec: SweepSpec, k: np.ndarray) -> list[np.ndarray]:
    """Each axis's value at the grid points ``k``, numbered row-major with
    the first axis outermost."""
    values = [ax.values() for ax in spec.axes]
    shape = tuple(len(x) for x in values)
    return ([x[i] for x, i in zip(values, np.unravel_index(k, shape))]
            if shape else [])


def _blocks(spec: SweepSpec):
    """The parameters of each block of BLOCK * CHUNK grid points,
    row-major."""
    total = math.prod(ax.count for ax in spec.axes)
    base = apply_pump_mode(spec.base, spec.pump_mode)
    size = BLOCK * CHUNK
    for start in range(0, total, size):
        k = np.arange(start, min(start + size, total))
        columns = dict(_axis_field(base, ax.name, x)
                       for ax, x in zip(spec.axes, _coordinates(spec, k)))
        yield ParamBatch.from_base(base, k.size, **columns)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid, BLOCK * CHUNK points at a time, into one table
    (also the sequence of its rows) whose axis columns hold the grid's
    coordinates; its values do not depend on the chunking."""
    table = SweepTable.concat([evaluate_batch(p).table for p in _blocks(spec)])
    for name, x in zip(("axis1", "axis2"),
                       _coordinates(spec, np.arange(len(table)))):
        setattr(table, name, x)
    return table


def _r_min_at_phases(params: PhysicalParams, phases) -> list[float]:
    """r_min at each phase difference of ``phases``, as one batch; each
    value equals that phase's ``evaluate_point`` value bit for bit."""
    field, column = _axis_field(params, "delta_theta",
                                np.asarray(phases, dtype=float))
    p = ParamBatch.from_base(params, column.size, **{field: column})
    return evaluate_batch(p).table.column("r_min").tolist()


def optimize_phase(params: PhysicalParams, resolution: int):
    """Maximize the minimum residual contangle over the drive phase
    difference.

    Scans ``resolution`` (>= 8) equally spaced phases over [0, 2*pi),
    then zooms: each round evaluates 2*ZOOM + 1 equally spaced phases
    across +-h around the best phase so far, centre included, as one
    batch, and divides h (at first the scan's spacing) by ZOOM, until
    h <= 1e-6 rad.  The centre's value is evaluated again bit for bit, so
    the best value never decreases.  The phase is located to about 1e-6
    rad, and less precisely where the maximum is flat: there its last
    digits are noise.

    Exact ties break toward the smallest phase of a batch; an exactly flat
    scan is not refined and returns phase 0.  Unstable phases count as
    minus infinity; if every scanned phase is unstable,
    NoStablePointError is raised.

    Returns ``(delta_theta_star, r_min_star, scan)``: the phase normalized
    into [0, 2*pi), its r_min, and the scan's r_min values, the first at
    phase 0.
    """
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")

    def best(phases, values):
        """The first phase of greatest value, NaN counting as -inf."""
        k = max(range(len(values)),
                key=lambda k: -math.inf if math.isnan(values[k]) else values[k])
        return float(phases[k]), values[k]

    grid = 2.0 * math.pi * np.arange(resolution) / resolution
    scan = _r_min_at_phases(params, grid)
    if all(math.isnan(v) for v in scan):
        raise NoStablePointError(
            "no stable operating point at any sampled phase")
    x, f = best(grid, scan)
    # an exactly flat scan is not refined: phase 0 wins the tie
    h = 2.0 * math.pi / resolution if any(v != scan[0] for v in scan) else 0.0
    while h > 1e-6:
        phases = x + h * np.arange(-ZOOM, ZOOM + 1) / ZOOM
        x, f = best(phases, _r_min_at_phases(params, phases))
        h /= ZOOM
    return x % (2.0 * math.pi), f, scan
