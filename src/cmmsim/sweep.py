"""Parameter-sweep engine and phase optimizer.

Operating points are evaluated as arrays, a grid BLOCK * CHUNK points at a
time: mean field, drift and diffusion, and one batched ``eigvals`` of the
drifts, whose eigenvalues give the stability margin.  The stable points
then go CHUNK at a time through the Lyapunov solve (one batched 21x21
real solve, no eigenvectors) and the partial-transpose spectra.  A single
point is a batch of one.  Every step treats each point on its own, so a
point's row is bit-identical whichever batch it is evaluated in, and a
grid's blocks can be shared among processes: one worker per CPU of the
process's affinity mask, this process and forked children, each taking
the next unclaimed block from one shared queue until none is left and
writing its rows into one shared buffer.  The CSV writer shares its blocks
of rows through the same loop.  Results are kept as columns (a
SweepTable), a grid's points in row-major order with the first axis
outermost; a row object is built only where one is asked for.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import sys
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import dynamics, entanglement, meanfield
from .errors import (CmmError, NoStablePointError, NumericalError,
                     ParameterError)
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
_MEASURE_COLUMNS = np.array([FLOAT_FIELDS.index(name)
                             for name in entanglement.MEASURES])
#: turns a stack of diffusion diagonals, shape (n, 6, 1), into matrices
_EYE = np.eye(6)


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

#: the phase optimizer's zoom factor: each round spans 2*ZOOM + 1 phases,
#: the centre's value known, and then narrows its bracket ZOOM-fold
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


def _survivors(failed: dict[int, str], sub: np.ndarray, errors: dict,
               *stacks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Record the error of each ``failed`` entry of the points ``sub``, and
    return ``sub`` and each of ``stacks`` without those entries."""
    for j, message in failed.items():
        errors[int(sub[j])] = f"error: {message}"
    keep = (np.delete(np.arange(sub.size), list(failed)) if failed
            else slice(None))
    return tuple(x[keep] for x in (sub, *stacks))


def _run_stages(p: ParamBatch) -> BatchResult:
    n = len(p)
    values = np.full((n, len(FLOAT_FIELDS)), np.nan)
    stable = np.zeros(n, bool)
    errors = {}
    cov = np.full((n, 6, 6), np.nan)

    # each stage narrows ``idx``, the points still alive, and evaluates
    # only those, so no invalid or non-finite input reaches a later stage;
    # a stage that every point passes selects nothing
    idx, q = np.arange(n), p
    found = violations(p)
    if found:
        for k, messages in found.items():
            errors[k] = f"error: {ParameterError(messages)}"
        idx = np.delete(idx, list(found))
        q = p.take(idx)

    mf = meanfield.solve_effective_batch(q)
    values[idx, _ABS_MS_SQ] = mf.abs_ms_sq
    values[idx, _Q_S] = mf.q_s
    a = dynamics.drift_batch(q, mf)
    d = dynamics.diffusion_batch(q)
    # delta_m is finite only where q_s is, and q_s only where m_s is
    # (g_mb * inf and 0 * inf are both non-finite): two tests cover the
    # four fields of the mean field
    ok = ~mf.singular & np.isfinite(mf.alpha_s) & np.isfinite(mf.delta_m)
    fine = ok & np.isfinite(a).all(axis=(1, 2)) & np.isfinite(d).all(axis=1)
    omega_b = q.omega_b
    if not fine.all():
        for k in idx[mf.singular].tolist():
            errors[k] = f"error: {meanfield.SINGULAR_RESPONSE}"
        for k in idx[~mf.singular & ~ok].tolist():
            errors[k] = f"error: {meanfield.NON_FINITE_STATE}"
        for k in idx[ok & ~fine].tolist():
            errors[k] = "error: non-finite drift or diffusion matrix"
        values[idx[~ok, None], [_ABS_MS_SQ, _Q_S]] = np.nan
        idx, a, d, omega_b = idx[fine], a[fine], d[fine], omega_b[fine]

    margin = np.linalg.eigvals(a).real.max(axis=1)
    values[idx, _MARGIN] = margin
    ok = margin < -dynamics.STABILITY_EPS * omega_b
    # a stable point keeps its flag and margin if a later stage fails
    stable[idx] = ok
    if not ok.all():
        idx, a, d = idx[ok], a[ok], d[ok]

    # the stable points, CHUNK at a time
    for start in range(0, idx.size, CHUNK):
        at = slice(start, start + CHUNK)
        v, failed = dynamics.steady_covariances(a[at],
                                                d[at, :, None] * _EYE)
        sub, v = _survivors(failed, idx[at], errors, v)

        measures, failed = entanglement.entanglement_batch(v)
        sub, v, measures = _survivors(failed, sub, errors, v, measures)
        values[sub[:, None], _MEASURE_COLUMNS] = measures
        cov[sub] = v

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


def _coordinates(values: list[np.ndarray], k: np.ndarray) -> list[np.ndarray]:
    """Each axis's value at the grid points ``k``, numbered row-major with
    the first axis outermost; ``values`` holds each axis's values."""
    shape = tuple(len(x) for x in values)
    return ([x[i] for x, i in zip(values, np.unravel_index(k, shape))]
            if shape else [])


def _block(base: PhysicalParams, axes: tuple[SweepAxis, ...],
           values: list[np.ndarray], b: int) -> tuple[int, ParamBatch]:
    """The grid offset and parameters of block ``b`` of the grid's blocks
    of BLOCK * CHUNK points, row-major; ``base`` has the pump mode
    applied, and ``values`` holds each axis's values."""
    total = math.prod(len(x) for x in values)
    start = b * BLOCK * CHUNK
    k = np.arange(start, min(start + BLOCK * CHUNK, total))
    columns = dict(_axis_field(base, ax.name, x)
                   for ax, x in zip(axes, _coordinates(values, k)))
    return start, ParamBatch.from_base(base, k.size, **columns)


def _temporary(what: str, data: bytes = b""):
    """An unlinked temporary file holding ``data``, read from its start.
    A file that cannot be made or written raises CmmError "cannot
    ``what``: ..."."""
    try:
        fh = tempfile.TemporaryFile()
        try:
            fh.write(data)
            fh.seek(0)
        except BaseException:
            fh.close()
            raise
    except OSError as exc:
        raise CmmError(f"cannot {what}: {exc}") from None
    return fh


def _claims(fd: int):
    """The block numbers that this process claims from the queue ``fd``,
    until it is empty."""
    while record := os.read(fd, 8):
        yield int.from_bytes(record, "little")


def _cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _workers(blocks: int) -> int:
    """W for ``blocks`` blocks of work: one worker per CPU of the
    process's affinity mask, at most one per block, at least one."""
    return max(1, min(_cpus(), blocks))


def _in_workers(do, workers: int, blocks: int,
                name: str = "sweep worker") -> dict:
    """``{b: do(w, b)}`` for the blocks b = 0 ... blocks - 1, sorted by b,
    each evaluated by one of ``workers`` workers w: this process is worker
    0 and forks the others.  With one worker nothing forks and the blocks
    are taken in order.  Otherwise the block numbers sit in one queue, an
    unlinked temporary file of 8-byte records opened before the fork, and
    every worker claims the next one with ``os.read(fd, 8)`` until none is
    left, so a faster worker takes more blocks and each worker's blocks
    come in increasing order.  The workers share the file's one offset,
    which the kernel advances atomically for a file opened by path, so each
    block is claimed exactly once, with no lock and no capacity limit.
    (Not a ``memfd_create`` file: its offset is not advanced atomically,
    and two workers can read the same record.)  Each child sends its
    results back through a pipe, pickled.

    Raises CmmError naming a child that fails (raises, dies, or sends a
    result that does not unpickle), as ``name`` and its number, and its
    exit status.  Every child is reaped before this returns or raises; if
    this process fails, it kills them first.
    """
    queue = (_temporary("queue the sweep's blocks",
                        np.arange(blocks, dtype="<i8").tobytes())
             if workers > 1 else None)

    def work(w: int) -> dict:
        claimed = range(blocks) if queue is None else _claims(queue.fileno())
        return {b: do(w, b) for b in claimed}

    pids, pipes = [], []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(write)
                raise CmmError(f"cannot start {name} {w}: {exc}") from None
            if pid == 0:
                _child(work, w, write)
            os.close(write)
            pids.append(pid)
        results = [work(0)] + [pipe.read() for pipe in pipes]
    except BaseException:
        import signal  # only a failing sweep pays for the import
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        if queue is not None:
            queue.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    for w, code in enumerate(codes, 1):
        if code < 0:
            raise CmmError(f"{name} {w} was killed by signal {-code}")
        if code:
            raise CmmError(f"{name} {w} exited with status {code}")
        try:
            results[w] = pickle.loads(results[w])
        except Exception:
            raise CmmError(f"{name} {w} exited with status 0 but sent "
                           f"a short result ({len(results[w])} bytes)") from None
    return dict(sorted(item for part in results for item in part.items()))


def _child(work, w: int, write: int):
    """The forked worker ``w``: write ``work(w)`` pickled to the file
    descriptor ``write`` and exit, with status 1 and the traceback on
    stderr if anything raises.  Never returns."""
    code = 1
    try:
        with open(write, "wb") as fh:
            fh.write(pickle.dumps(work(w)))
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid, BLOCK * CHUNK points at a time, into one table
    (also the sequence of its rows) whose axis columns hold the grid's
    coordinates.

    The blocks are shared among W workers (:func:`_in_workers`), W the
    number of CPUs in the process's affinity mask or of blocks if that is
    smaller.  Each worker writes its rows into one table allocated in
    shared memory, and sends back only its errors, so the table's bits
    depend neither on the chunking nor on W, nor on which worker evaluated
    a block (``taskset -c 0`` runs serially, and with one worker nothing
    forks).  A worker that fails makes this raise CmmError naming it and
    its exit status; no child outlives the call.  A table too large to
    size or map raises CmmError naming the point count before any point
    is evaluated.
    """
    import mmap  # on first use: importing cmmsim does not pay for it
    total = math.prod(ax.count for ax in spec.axes)
    width = len(FLOAT_FIELDS)
    try:
        shared = mmap.mmap(-1, total * (8 * width + 1))
    except (OverflowError, OSError, MemoryError) as exc:
        raise CmmError(f"cannot allocate the results of {total} sweep "
                       f"points: {exc}") from None
    values = np.frombuffer(shared, np.float64, total * width).reshape(
        total, width)
    stable = np.frombuffer(shared, bool, total, offset=values.nbytes)
    axis_values = [ax.values() for ax in spec.axes]
    base = apply_pump_mode(spec.base, spec.pump_mode)
    blocks = len(range(0, total, BLOCK * CHUNK))

    def do(w: int, b: int) -> dict[int, str]:
        start, p = _block(base, spec.axes, axis_values, b)
        table = evaluate_batch(p).table
        values[start:start + len(p)] = table.values
        stable[start:start + len(p)] = table.stable
        return {start + k: s for k, s in table.errors.items()}

    parts = _in_workers(do, _workers(blocks), blocks).values()
    errors = dict(sorted(item for part in parts for item in part.items()))
    table = SweepTable(*np.full((2, total), np.nan), stable, values, errors)
    for name, x in zip(("axis1", "axis2"),
                       _coordinates(axis_values, np.arange(total))):
        setattr(table, name, x)
    return table


def _phase_table(params: PhysicalParams, phases) -> SweepTable:
    """The table of ``params`` at each phase difference of ``phases``, as
    one batch; each row equals that phase's ``evaluate_point`` row bit for
    bit."""
    field, column = _axis_field(params, "delta_theta",
                                np.asarray(phases, dtype=float))
    p = ParamBatch.from_base(params, column.size, **{field: column})
    return evaluate_batch(p).table


def _vertex(phases: list[float], values: list[float], k: int):
    """The vertex of the parabola through phase ``k`` and its neighbours,
    or None unless it has two and their values are finite and concave."""
    if 0 < k < len(values) - 1:
        y0, y1, y2 = values[k - 1:k + 2]
        curve = y0 - 2.0 * y1 + y2  # not finite if any value is not
        if -math.inf < curve < 0.0:
            return phases[k] + (phases[k + 1] - phases[k - 1]) / 4.0 * (
                y0 - y2) / curve
    return None


def optimize_phase(params: PhysicalParams, resolution: int):
    """Maximize the minimum residual contangle over the drive phase
    difference.

    Scans ``resolution`` (>= 8) equally spaced phases over [0, 2*pi),
    then zooms: each round takes 2*ZOOM + 1 equally spaced phases across
    +-h around the best phase so far and divides h (at first the scan's
    spacing) by ZOOM, until h <= 1e-6 rad.  A round evaluates the 2*ZOOM
    phases around the centre; the centre's value is the best value so
    far, which its row would repeat bit for bit, so the best value never
    decreases.  The phase is located to about 1e-6 rad, and less
    precisely where the maximum is flat: there its last digits are noise.

    A batch holds the next round and, while a parabola through the last
    winner and its neighbours predicts their centres, the later rounds
    that would run, up to ``resolution`` phases.  A round is taken while
    its centre and half-width are exactly those the rounds before it
    chose: a row does not depend on its batch, so the result is the
    round-by-round one bit for bit, whatever the parabola predicts.

    Exact ties break toward the smallest phase of a round; an exactly flat
    scan is not refined and returns phase 0.  Unstable and errored phases
    count as minus infinity.  If no scanned phase has a value, NumericalError
    is raised with the first error of a stable phase if there is one, and
    NoStablePointError otherwise; a scan too large to allocate raises
    CmmError naming its size.

    Returns ``(delta_theta_star, r_min_star, scan)``: the phase normalized
    into [0, 2*pi), its r_min, and the scan's r_min values, the first at
    phase 0.
    """
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")

    def best(values):
        """The index of the first greatest value, NaN counting as -inf."""
        return max(range(len(values)),
                   key=lambda k: -math.inf if math.isnan(values[k]) else values[k])

    try:
        grid = 2.0 * math.pi * np.arange(resolution) / resolution
        table = _phase_table(params, grid)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise CmmError(f"cannot allocate the scan of {resolution} phases: "
                       f"{exc}") from None
    scan = table.column("r_min").tolist()
    if all(math.isnan(v) for v in scan):
        for k in sorted(table.errors):
            if table.stable[k]:
                raise NumericalError(table.errors[k].removeprefix("error: "))
        raise NoStablePointError(
            "no stable operating point at any sampled phase")
    # the scan is periodic: its last and first phases are neighbours
    phases = [float(grid[-1]) - 2.0 * math.pi, *grid.tolist(), 2.0 * math.pi]
    values, k = [scan[-1], *scan, scan[0]], best(scan) + 1
    x, f = phases[k], values[k]
    # an exactly flat scan is not refined: phase 0 wins the tie
    h = 2.0 * math.pi / resolution if any(v != scan[0] for v in scan) else 0.0
    steps = np.delete(np.arange(-ZOOM, ZOOM + 1), ZOOM)
    while h > 1e-6:
        g = _vertex(phases, values, k)
        rounds = 1 if g is None else max(1, resolution // (2 * ZOOM))
        plan, batch, c, w = [], [], x, h
        while w > 1e-6 and len(plan) < rounds:
            ahead = (c + w * steps / ZOOM).tolist()
            batch += ahead
            ahead.insert(ZOOM, c)
            plan.append((c, w, ahead))
            if g is not None:  # the step nearest g is the predicted winner
                j = (g - c) / (w / ZOOM)
                c = ahead[ZOOM + round(min(max(j, -ZOOM), ZOOM))]
            w /= ZOOM
        column = _phase_table(params, batch).column("r_min").tolist()
        for n, (c, w, ahead) in enumerate(plan):
            if (c, w) != (x, h):  # mispredicted: this round and the rest go
                break
            phases, values = ahead, column[2 * ZOOM * n:2 * ZOOM * (n + 1)]
            values.insert(ZOOM, f)
            k = best(values)
            x, f = phases[k], values[k]
            h /= ZOOM
    return x % (2.0 * math.pi), f, scan
