"""Parameter-sweep engine and phase optimizer.

Operating points are evaluated as arrays, CHUNK points at a time: mean
field, drift and diffusion, one eigendecomposition per point (its
eigenvalues give the stability margin, its eigenvectors the modal Lyapunov
solve), then the partial-transpose spectra as batched eigenvalue problems.
A single point is a chunk of one.  Every step treats each point on its own,
so a point's row is bit-identical whichever chunk it is evaluated in; grid
rows are assembled in row-major order with the first axis outermost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import dynamics, entanglement, meanfield
from .errors import CmmError, NoStablePointError, ParameterError
from .params import ParamBatch, PhysicalParams, valid_mask, validate

AXES = ("delta_a", "delta_theta", "T", "P_a")
PUMP_MODES = ("both", "magnon-only", "cavity-only")


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


#: the row fields between (axis1, axis2, stable) and status: margin .. q_s
_FLOAT_FIELDS = tuple(f.name for f in fields(SweepRow))[3:-1]

#: points evaluated together; bounds the stacked arrays' memory
CHUNK = 128

#: the phase optimizer's zoom factor: each round evaluates 2*ZOOM + 1
#: phases and then narrows its bracket ZOOM-fold
ZOOM = 8

#: the drive power each pump mode forces to zero
_PUMP_OFF = {"both": None, "magnon-only": "P_a", "cavity-only": "P_m"}


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


def _error_of(check, params: PhysicalParams) -> str:
    """Status of a point the batch rejected, from the scalar ``check``
    that rejects it, so its message names the offending value."""
    try:
        check(params)
    except (ParameterError, ArithmeticError) as exc:
        return f"error: {exc}"
    return "error: invalid parameters"


class BatchResult(NamedTuple):
    """Rows of a batch, with each point's covariance (NaN where the row has
    none) and the mean field of the points that pass validation, in order
    (None after a per-point fallback)."""

    rows: list[SweepRow]
    covariances: np.ndarray
    mean_field: meanfield.MeanFieldBatch | None


def evaluate_batch(p: ParamBatch, axis1=None, axis2=None) -> BatchResult:
    """Run the full pipeline at every point of ``p`` as arrays; the rows'
    axis values default to NaN.

    Like :func:`evaluate_point` this never raises for physics or numerical
    reasons, and each row equals that point's ``evaluate_point`` row bit
    for bit.  A linear-algebra or arithmetic failure that the stages do not
    turn into a per-point status (an eigensolver that does not converge, a
    domain error) is confined to its point: the batch is evaluated again
    point by point, and the failing point becomes an error row.
    """
    n = len(p)
    axis1 = np.full(n, np.nan) if axis1 is None else axis1
    axis2 = np.full(n, np.nan) if axis2 is None else axis2
    try:
        with np.errstate(all="ignore"):
            return _run_stages(p, axis1, axis2)
    except (CmmError, np.linalg.LinAlgError, ArithmeticError,
            ValueError) as exc:
        if n == 1:
            row = SweepRow(float(axis1[0]), float(axis2[0]), False,
                           *[float("nan")] * len(_FLOAT_FIELDS),
                           status=f"error: {exc}")
            return BatchResult([row], np.full((1, 6, 6), np.nan), None)
        parts = [evaluate_batch(p.take([k]), axis1[k:k + 1], axis2[k:k + 1])
                 for k in range(n)]
        return BatchResult([part.rows[0] for part in parts],
                           np.concatenate([part.covariances for part in parts]),
                           None)


def _run_stages(p: ParamBatch, axis1: np.ndarray,
                axis2: np.ndarray) -> BatchResult:
    n = len(p)
    status = ["ok"] * n
    stable = [False] * n
    # float columns of the rows; entries never set share one NaN object,
    # which keeps the rows of a mostly unstable grid small
    nan = float("nan")
    columns = {name: [nan] * n for name in _FLOAT_FIELDS}

    def put(name, at, values):
        column = columns[name]
        for k, value in zip(at.tolist(), values.tolist()):
            column[k] = value

    cov = np.full((n, 6, 6), np.nan)

    # each stage narrows ``idx``, the points still alive, and evaluates
    # only those, so no invalid or non-finite input reaches a later stage
    ok = valid_mask(p)
    for k in np.flatnonzero(~ok).tolist():
        status[k] = _error_of(validate, p.point(k))
    idx = np.flatnonzero(ok)
    q = p.take(idx)

    mf = meanfield.solve_effective_batch(q)
    for j in np.flatnonzero(mf.singular).tolist():
        status[idx[j]] = f"error: {meanfield.SINGULAR_RESPONSE}"
    for j in np.flatnonzero(~mf.singular & ~mf.finite).tolist():
        status[idx[j]] = "error: non-finite mean-field state"
    ok = ~mf.singular & mf.finite
    put("abs_ms_sq", idx[ok], mf.abs_ms_sq[ok])
    put("q_s", idx[ok], mf.q_s[ok])

    a = dynamics.drift_batch(q, mf)
    d = dynamics.diffusion_batch(q)
    bath = q.delta_m_tilde_target + q.drive_frequency > 0.0
    for j in np.flatnonzero(ok & ~bath).tolist():
        status[idx[j]] = _error_of(PhysicalParams.occupations, q.point(j))
    ok &= bath
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(d).all(axis=1)
    for j in np.flatnonzero(ok & ~finite).tolist():
        status[idx[j]] = "error: non-finite drift or diffusion matrix"
    ok &= finite
    idx, a, d, omega_b = idx[ok], a[ok], d[ok], q.omega_b[ok]

    lam, s = np.linalg.eig(a)
    margin = lam.real.max(axis=1)
    put("margin", idx, margin)
    ok = margin < -dynamics.STABILITY_EPS * omega_b
    for k in idx[ok].tolist():
        stable[k] = True
    for k in idx[~ok].tolist():
        status[k] = "unstable"
    idx = idx[ok]

    v, errors = dynamics.steady_covariances(a[ok], d[ok], lam[ok], s[ok])
    for j, message in errors.items():
        status[idx[j]] = f"error: {message}"
    solved = np.delete(np.arange(idx.size), list(errors))
    idx, v = idx[solved], v[solved]

    values, errors = entanglement.entanglement_batch(v)
    for j, message in errors.items():
        status[idx[j]] = f"error: {message}"
    done = np.delete(np.arange(idx.size), list(errors))
    for name, values_of in zip(entanglement.MEASURES, values[done].T):
        put(name, idx[done], values_of)
    cov[idx[done]] = v[done]

    lists = ([axis1.tolist(), axis2.tolist(), stable]
             + [columns[name] for name in _FLOAT_FIELDS] + [status])
    return BatchResult([SweepRow(*vals) for vals in zip(*lists)], cov, mf)


def evaluate_point(params: PhysicalParams, pump_mode: str = "both",
                   return_cm: bool = False, return_state: bool = False):
    """Run the full pipeline at one parameter point (a batch of one).

    Never raises for physics or numerical reasons: invalid parameters,
    instability and solver errors are captured in the returned row
    (entanglement fields NaN, ``status`` set).  With ``return_cm=True`` the
    steady-state covariance matrix (or None) follows the row; with
    ``return_state=True`` the MeanFieldState (or None) follows that.
    """
    p = ParamBatch.from_base(apply_pump_mode(params, pump_mode), 1)
    result = evaluate_batch(p)
    row = result.rows[0]
    out = [row]
    if return_cm:
        out.append(result.covariances[0] if row.status == "ok" else None)
    if return_state:
        # abs_ms_sq is set exactly when the mean field was solved
        solved = result.mean_field is not None and not math.isnan(row.abs_ms_sq)
        out.append(result.mean_field.state(0) if solved else None)
    return out[0] if len(out) == 1 else tuple(out)


def _chunks(spec: SweepSpec):
    """(params, axis1, axis2) per chunk of the grid, row-major."""
    values = [ax.values() for ax in spec.axes]
    shape = tuple(len(x) for x in values)
    total = math.prod(shape)
    off = _PUMP_OFF[spec.pump_mode]
    for start in range(0, total, CHUNK):
        k = np.arange(start, min(start + CHUNK, total))
        coords = ([x[i] for x, i in zip(values, np.unravel_index(k, shape))]
                  if shape else [])
        columns = dict(_axis_field(spec.base, ax.name, x)
                       for ax, x in zip(spec.axes, coords))
        if off is not None:
            columns[off] = np.zeros(k.size)
        axis1, axis2 = (coords + [np.full(k.size, np.nan)] * 2)[:2]
        yield ParamBatch.from_base(spec.base, k.size, **columns), axis1, axis2


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the grid, CHUNK points at a time; the rows and their values
    do not depend on the chunking."""
    rows = []
    for params, axis1, axis2 in _chunks(spec):
        rows += evaluate_batch(params, axis1, axis2).rows
    return rows


def _r_min_at_phases(params: PhysicalParams, phases) -> list[float]:
    """r_min at each phase difference of ``phases``, as one batch; each
    value equals that phase's ``evaluate_point`` value bit for bit."""
    field, column = _axis_field(params, "delta_theta",
                                np.asarray(phases, dtype=float))
    p = ParamBatch.from_base(params, column.size, **{field: column})
    return [row.r_min for row in evaluate_batch(p).rows]


def optimize_phase(params: PhysicalParams, resolution: int,
                   window: tuple[float, float] = (0.0, 2.0 * math.pi)):
    """Maximize the minimum residual contangle over the drive phase
    difference.

    Scans ``resolution`` (>= 8) phases over ``window`` (right-open; finite
    bounds, lo < hi), then zooms: each round evaluates 2*ZOOM + 1 equally
    spaced phases across +-h around the best phase so far, centre
    included, as one batch, and divides h (at first the scan's spacing) by
    ZOOM, until h <= 1e-6 rad.  The centre's value is evaluated again bit
    for bit, so the best value never decreases.  The phase is located to
    about 1e-6 rad, and less precisely where the maximum is flat: there its
    last digits are noise.

    Exact ties break toward the smallest phase of a batch; an exactly flat
    scan is not refined and returns the window start.  Unstable phases
    count as minus infinity; if every scanned phase is unstable,
    NoStablePointError is raised.

    Returns ``(delta_theta_star, r_min_star, scan)``: the phase normalized
    into [0, 2*pi), its r_min, and the scan's r_min values, the first at
    the window start.
    """
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window {window!r} must have finite bounds lo < hi")

    def best(phases, values):
        """The first phase of greatest value, NaN counting as -inf."""
        k = max(range(len(values)),
                key=lambda k: -math.inf if math.isnan(values[k]) else values[k])
        return float(phases[k]), values[k]

    grid = lo + (hi - lo) * np.arange(resolution) / resolution
    scan = _r_min_at_phases(params, grid)
    if all(math.isnan(v) for v in scan):
        raise NoStablePointError(
            "no stable operating point at any sampled phase")
    x, f = best(grid, scan)
    # an exactly flat scan is not refined: its window start wins the tie
    h = (hi - lo) / resolution if any(v != scan[0] for v in scan) else 0.0
    while h > 1e-6:
        phases = x + h * np.arange(-ZOOM, ZOOM + 1) / ZOOM
        x, f = best(phases, _r_min_at_phases(params, phases))
        h /= ZOOM
    return x % (2.0 * math.pi), f, scan
