"""Parameter-sweep engine and phase optimizer.

Operating points are evaluated as arrays, a grid BLOCK * CHUNK points at a
time: mean field, drift and diffusion, and one batched ``eigvals`` of the
drifts, whose eigenvalues give the stability margin.  The stable points
then go CHUNK at a time through the Lyapunov solve (one batched 21x21
real solve, no eigenvectors) and the partial-transpose spectra.  A single
point is a batch of one.  The engine writes a batch's rows into the
arrays it is handed, so each row is written once: a grid block's rows go
straight into its slice of the grid's one table, held in shared memory.
Every step treats each point on its own, so a point's row is
bit-identical whichever batch it is evaluated in, and a grid's blocks can
be shared among processes: one worker per CPU of the process's affinity
mask, this process and forked children (none for one CPU), each taking
the next unclaimed block from one shared queue until none is left.  The
CSV writer formats the rows in the same blocks, through the same loop.
Results are kept as columns (a SweepTable), a grid's points in row-major
order with the first axis outermost; a row object is built only where
one is asked for.
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
    radians, ``T`` in kelvin, ``P_a`` in watts.  The bounds and their span
    must be finite, and start <= stop; both are checked by arithmetic, so
    an axis of any count is made without building its values.
    """

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXES:
            raise ValueError(f"unknown sweep axis {self.name!r}; choose from {AXES}")
        try:
            # a Python int: products of numpy integers would wrap
            object.__setattr__(self, "count", operator.index(self.count))
        except TypeError:
            raise ValueError(f"axis {self.name}: count must be an integer, "
                             f"got {self.count}") from None
        if self.count < 1:
            raise ValueError(f"axis {self.name}: count must be >= 1")
        if not math.isfinite(self.stop - self.start):  # NaN, inf, overflow
            raise ValueError(f"axis {self.name}: start, stop and stop - start "
                             f"must be finite, got {self.start}:{self.stop}")
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


#: stable points solved together by the Lyapunov and entanglement
#: stages; bounds the stacked arrays' memory
CHUNK = 128

#: a sweep hands the engine blocks of BLOCK * CHUNK points, so that each
#: block's fixed cost (the front stages, one ``eigvals`` call, one pass of
#: the stable stages, one claim from the queue), about 0.17 ms, is paid
#: 40 times on a 201 x 201 grid, not 316: at BLOCK = 1 its serial sweep
#: is about 16 % slower.  The CSV writer formats the rows in these blocks
BLOCK = 8

#: the phase optimizer's zoom factor: each round takes ZOOM steps of h/ZOOM
#: to each side of the best offset so far, and then narrows h ZOOM-fold; a
#: batch holds at most 2*ZOOM offsets, one interior round or two at an end
ZOOM = 10


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
    axis values are NaN (:func:`run_sweep`'s table holds a grid's).

    Like :func:`evaluate_point` this never raises for physics or numerical
    reasons, and each row equals that point's ``evaluate_point`` row bit
    for bit.  A linear-algebra or arithmetic failure that the stages do not
    turn into a per-point status (an eigensolver that does not converge, a
    domain error) is confined to its point: the batch is evaluated again
    point by point, each point into its own row, and the failing point
    becomes an error row.  The table's columns are allocated here and
    filled in place by the engine.
    """
    n = len(p)
    values, stable = np.empty((n, len(FLOAT_FIELDS))), np.empty(n, bool)
    errors, cov = _evaluate_into(p, values, stable)
    return BatchResult(SweepTable(*np.full((2, n), np.nan), stable, values,
                                  errors), cov)


def _evaluate_into(p: ParamBatch, values: np.ndarray,
                   stable: np.ndarray) -> tuple[dict[int, str], np.ndarray]:
    """Fill ``values`` and ``stable``, the rows of the points of ``p``, and
    return the points' ``error:`` statuses, keyed by row, and covariances.
    Where the stages fail as a whole, each point is evaluated alone into
    its own row, and a point that fails alone becomes an error row."""
    try:
        with np.errstate(all="ignore"):
            return _run_stages(p, values, stable)
    except (CmmError, np.linalg.LinAlgError, ArithmeticError,
            ValueError) as exc:
        if len(p) == 1:
            values[:], stable[:] = np.nan, False
            return {0: f"error: {exc}"}, np.full((1, 6, 6), np.nan)
        errors, cov = {}, np.empty((len(p), 6, 6))
        for k in range(len(p)):
            at = slice(k, k + 1)
            error, cov[at] = _evaluate_into(p.take([k]), values[at],
                                            stable[at])
            errors.update((k, s) for s in error.values())
        return errors, cov


def _survivors(failed: dict[int, str], sub: np.ndarray, errors: dict,
               *stacks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Record the error of each ``failed`` entry of the points ``sub``, in
    the order of ``failed``, and return ``sub`` and each of ``stacks``
    without those entries; with nothing failed, the inputs as they are."""
    if not failed:
        return (sub, *stacks)
    for j, message in failed.items():
        errors[int(sub[j])] = f"error: {message}"
    keep = np.delete(np.arange(sub.size), list(failed))
    return tuple(x[keep] for x in (sub, *stacks))


def _run_stages(p: ParamBatch, values: np.ndarray, stable: np.ndarray):
    n = len(p)
    values[:], stable[:] = np.nan, False
    errors = {}
    cov = np.full((n, 6, 6), np.nan)

    # each stage narrows ``idx``, the points still alive, through
    # _survivors and evaluates only those, so no invalid or non-finite
    # input reaches a later stage
    failed = {k: str(ParameterError(messages))
              for k, messages in violations(p).items()}
    idx, = _survivors(failed, np.arange(n), errors)
    q = p.take(idx) if failed else p

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
    failed = {}
    if not fine.all():
        # the first test a point fails gives its message
        for bad, message in ((mf.singular, meanfield.SINGULAR_RESPONSE),
                             (~ok, meanfield.NON_FINITE_STATE),
                             (~fine, "non-finite drift or diffusion matrix")):
            for j in np.flatnonzero(bad).tolist():
                failed.setdefault(j, message)
        values[idx[~ok, None], [_ABS_MS_SQ, _Q_S]] = np.nan
    idx, a, d, omega_b = _survivors(failed, idx, errors, a, d, q.omega_b)

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

    return errors, cov


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


def _workers(rows: int) -> int:
    """W for ``rows`` rows of work: one worker per CPU of the process's
    affinity mask, at most one per block of BLOCK * CHUNK rows, at least
    one."""
    return max(1, min(_cpus(), len(range(0, rows, BLOCK * CHUNK))))


def _in_workers(do, workers: int, rows: int,
                name: str = "sweep worker") -> dict:
    """``{b: do(w, at)}`` for the blocks b = 0, 1, ... of ``rows`` rows,
    sorted by b: block b is the rows of the slice ``at``, BLOCK * CHUNK of
    them from b * BLOCK * CHUNK on, the last block clipped at ``rows``.
    This is the one place that cuts rows into blocks.  Each block is
    evaluated by one of ``workers`` workers w: this process is worker 0
    and forks the other W - 1, so one worker forks nothing.  At every W
    the block numbers sit in one queue, an unlinked temporary file of
    8-byte records opened before any fork, and every worker claims the
    next one with ``os.read(fd, 8)`` until none is left, so a faster
    worker takes more blocks and each worker's blocks come in increasing
    order; W sets only how many workers claim.  The workers share the
    file's one offset, which the kernel advances atomically for a file
    opened by path, so each block is claimed exactly once, with no lock
    and no capacity limit.
    (Not a ``memfd_create`` file: its offset is not advanced atomically,
    and two workers can read the same record.)  Each child sends its
    results back through a pipe, pickled.

    Raises CmmError naming a child that fails (raises, dies, or sends a
    result that does not unpickle), as ``name`` and its number, and its
    exit status, or the message of the CmmError it raised, and a queue
    that cannot be made "cannot queue the sweep's blocks: ...".  Every
    child is reaped before this returns or raises; if this process fails,
    it kills them first.
    """
    size = BLOCK * CHUNK
    blocks = len(range(0, rows, size))
    queue = _temporary("queue the sweep's blocks",
                       np.arange(blocks, dtype="<i8").tobytes())

    def work(w: int) -> dict:
        return {b: do(w, slice(b * size, min(b * size + size, rows)))
                for b in _claims(queue.fileno())}

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
        queue.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    for w, code in enumerate(codes, 1):
        if code < 0:
            raise CmmError(f"{name} {w} was killed by signal {-code}")
        if code == 1 and results[w]:  # a CmmError, its message sent
            raise CmmError(f"{name} {w} failed: "
                           f"{results[w].decode('utf-8', 'replace')}")
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
    descriptor ``write`` and exit.  If ``work`` raises CmmError, write its
    message instead and exit with status 1; if anything else raises, exit
    with status 1 and the traceback on stderr.  Never returns."""
    code = 1
    try:
        try:
            data, code = pickle.dumps(work(w)), 0
        except CmmError as exc:  # one line for the parent to report
            data = str(exc).encode("utf-8", "backslashreplace")
        with open(write, "wb") as fh:
            fh.write(data)
    except BaseException:
        code = 1  # the result may be made and its write fail
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid into one table (also the sequence of its rows)
    whose axis columns hold the grid's coordinates, row-major with the
    first axis outermost; an axis the grid does not have is a NaN column,
    and a grid without axes is one point, ``spec.base``.

    The coordinate columns are built once, before any point is evaluated,
    and the grid's rows are shared among W workers in blocks
    (:func:`_in_workers`), W the number of CPUs in the process's affinity
    mask or of blocks if that is smaller.  A block's parameters are its
    slice of the coordinate columns, and the engine writes the block's
    rows straight into its slice of one table allocated in shared memory,
    so each row is written once and no block table is built; a worker
    sends back only its errors, keyed by grid row.  The table's bits
    depend neither on the chunking nor on W, nor on which worker
    evaluated a block (``taskset -c 0`` runs the same loop with one
    worker, which forks nothing).  A worker that fails makes this raise
    CmmError naming it and its exit status; no child outlives the call.  A
    table or coordinate columns too large to size or allocate raise
    CmmError naming the point count before any point is evaluated.
    """
    import mmap  # on first use: importing cmmsim does not pay for it
    total = math.prod(ax.count for ax in spec.axes)
    width = len(FLOAT_FIELDS)
    try:
        shared = mmap.mmap(-1, total * (8 * width + 1))
        grid = [x.ravel() for x in np.meshgrid(
            *(ax.values() for ax in spec.axes), indexing="ij")]
        axis1, axis2 = grid + [np.full(total, np.nan)
                               for _ in range(2 - len(grid))]
    except (OverflowError, OSError, MemoryError) as exc:
        raise CmmError(f"cannot allocate the results of {total} sweep "
                       f"points: {exc}") from None
    values = np.frombuffer(shared, np.float64, total * width).reshape(
        total, width)
    stable = np.frombuffer(shared, bool, total, offset=values.nbytes)
    base = apply_pump_mode(spec.base, spec.pump_mode)

    def do(w: int, at: slice) -> dict[int, str]:
        columns = dict(_axis_field(base, ax.name, x[at])
                       for ax, x in zip(spec.axes, (axis1, axis2)))
        errors, _ = _evaluate_into(ParamBatch.from_base(
            base, at.stop - at.start, **columns), values[at], stable[at])
        return {at.start + k: s for k, s in errors.items()}

    parts = _in_workers(do, _workers(total), total).values()
    errors = dict(sorted(item for part in parts for item in part.items()))
    return SweepTable(axis1, axis2, stable, values, errors)


def _phase_table(params: PhysicalParams, phases: np.ndarray) -> SweepTable:
    """The table of ``params`` at each phase difference of ``phases``, as
    one batch; each row equals that phase's ``evaluate_point`` row bit for
    bit."""
    field, column = _axis_field(params, "delta_theta", phases)
    p = ParamBatch.from_base(params, column.size, **{field: column})
    return evaluate_batch(p).table


def optimize_phase(params: PhysicalParams, resolution: int):
    """Maximize the minimum residual contangle over the drive phase
    difference.

    A point depends on the phase difference only through
    cos(delta_theta - theta0), theta0 from :func:`meanfield.phase_window`,
    so the phases theta0 + x and theta0 - x are the same point and the
    offsets x in [0, pi] hold every value; phase 0 is the offset
    -theta0.  One batch scans phase 0 and theta0 + x for
    x = 2*pi*k/``resolution`` (an integer >= 8) in [0, pi), then
    x = pi: 34 phases at resolution 64.  The search starts from the best
    of them, phase 0 included, and zooms: a round evaluates the offsets
    x +- h*j/ZOOM, j = 1 ... ZOOM, that lie in [0, pi] around the best
    offset x so far, moves x only to a strictly greater value, and
    divides h (at first 2*pi/``resolution``) by ZOOM, until h <= 1e-6 rad.
    A batch holds the current round and the next rounds around the same
    x, as long as it stays within 2*ZOOM offsets; its rounds are then
    read in order, and those after a round that moves x are dropped.
    Inside the half period a round is 2*ZOOM offsets, one a batch; at an
    end it is one side, ZOOM offsets, and two go in a batch: 34, 20, 20
    and 10 phases at resolution 64.  A row does not depend on its batch,
    so the result is that of one round a batch, bit for bit.  The phase
    is located to about 1e-6 rad, and less precisely where the maximum
    is flat: there its last digits are noise.
    The optimum theta0 + x* reported is one of a pair: theta0 - x* is the
    same point.

    Exact ties break toward phase 0, then toward the first phase of the
    scan, and a tie in a round leaves x where it is, so a single drive,
    whose r_min does not depend on the phase, returns phase 0.  Unstable
    and errored phases count as minus infinity.  If no scanned phase has a
    value, NumericalError is raised with the first error of a stable phase
    if there is one, and NoStablePointError otherwise; a scan too large to
    allocate raises CmmError naming ``resolution``, and ``params`` outside
    the domain raise ParameterError.

    Returns ``(delta_theta_star, r_min_star, scan)``: the phase normalized
    into [0, 2*pi), its r_min, and the scan's r_min values, the first at
    phase 0 and the rest from theta0 to theta0 + pi.
    """
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise ValueError(f"resolution must be an integer, "
                         f"got {resolution}") from None
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")

    def best(values):
        """The index of the first greatest value, NaN counting as -inf."""
        return max(range(len(values)),
                   key=lambda k: -math.inf if math.isnan(values[k]) else values[k])

    theta0 = float(meanfield.phase_window(params).theta0)
    try:
        # phase 0 is the offset -theta0, in [0, pi) as theta0 <= 0
        # (kappa_a > 0); theta0 + -theta0 is 0.0 exactly
        offsets = np.concatenate((
            [-theta0], 2.0 * math.pi * np.arange(-(-resolution // 2))
            / resolution, [math.pi]))
        table = _phase_table(params, theta0 + offsets)
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
    k = best(scan)
    x, f = float(offsets[k]), scan[k]
    h = 2.0 * math.pi / resolution
    steps = np.delete(np.arange(-ZOOM, ZOOM + 1), ZOOM)
    while h > 1e-6:
        # this round and the next ones around the same x, as long as the
        # batch holds no more than an interior round's 2*ZOOM offsets
        rounds, g = [], h
        while g > 1e-6:
            xs = x + g * steps / ZOOM
            xs = xs[(xs >= 0.0) & (xs <= math.pi)]
            if sum(map(len, rounds)) + xs.size > 2 * ZOOM:
                break
            rounds.append(xs)
            g /= ZOOM
        table = _phase_table(params, theta0 + np.concatenate(rounds))
        values = table.column("r_min").tolist()
        # the rounds in order; those after a round that moves x are dropped
        for xs in rounds:
            h /= ZOOM
            k = best([f, *values[:xs.size]])
            if k:
                x, f = float(xs[k - 1]), values[k - 1]
                break
            del values[:xs.size]
    return (theta0 + x) % (2.0 * math.pi), f, scan
