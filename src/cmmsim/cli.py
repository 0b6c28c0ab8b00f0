"""Command-line front end: flat key=value configs, steady/sweep/phase-opt
subcommands, deterministic CSV output.

Config format: one ``key = value`` pair per line, ``#`` starts a comment,
blank lines ignored.  Frequencies are quoted in ordinary Hz (``*_hz`` keys)
and multiplied by 2*pi exactly once here; detunings are quoted in units of
omega_b.  Sweep axes use ``sweep.<axis> = start:stop:count``.

A sweep's grid is evaluated, and its CSV formatted, on every CPU of the
process's affinity mask (workers pulling blocks from one queue;
``taskset -c 0`` runs the same loop with one worker and no fork), and
the CSV bytes do not depend on the number of CPUs.

Exit codes: 0 success (an unstable operating point is data, not an error),
1 runtime or I/O failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

import numpy as np

from . import sweep
from .entanglement import MEASURES
from .errors import CmmError, ConfigError
from .meanfield import solve_steady_state
from .params import TWO_PI, PhysicalParams, validate
from .sweep import (AXES, FLOAT_FIELDS, PUMP_MODES, SweepAxis, SweepSpec,
                    SweepTable, apply_pump_mode, evaluate_point,
                    optimize_phase, run_sweep)

FREQ_KEYS = ("omega_a_hz", "omega_b_hz", "kappa_a_hz", "kappa_m_hz",
             "gamma_b_hz", "g_ma_hz", "g_mb_hz")
REQUIRED_KEYS = FREQ_KEYS + ("P_a_w", "P_m_w", "T_k",
                             "delta_a_over_omega_b",
                             "delta_m_tilde_over_omega_b")
OPTIONAL_KEYS = ("theta_a_rad", "theta_m_rad", "pump_mode")
SWEEP_KEYS = tuple(f"sweep.{axis}" for axis in AXES)

#: the CSV column and ``steady`` label of each entanglement measure, in
#: the order ``steady`` prints them
_LABELS = {"en_am": "EN_am", "en_ab": "EN_ab", "en_mb": "EN_mb",
           "en_a_mb": "EN_a_mb", "en_m_ab": "EN_m_ab", "en_b_am": "EN_b_am",
           "residual_a": "R_a", "residual_m": "R_m", "residual_b": "R_b",
           "r_min": "R_min"}

CSV_HEADER = ",".join(["axis1", "axis2", "stable"]
                      + [_LABELS.get(name, name) for name in FLOAT_FIELDS])


def fmt(x: float) -> str:
    """Format a float with 9 significant digits; NaN is spelled ``nan``."""
    return f"{x:.9g}"


def _parse_float(key: str, raw: str, line_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {line_no}: malformed number {raw!r} for key {key!r}") from None


def _parse_range(key: str, raw: str, line_no: int) -> tuple[float, float, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"line {line_no}: malformed range {raw!r} for key {key!r} "
            "(expected start:stop:count)")
    start = _parse_float(key, parts[0], line_no)
    stop = _parse_float(key, parts[1], line_no)
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigError(
            f"line {line_no}: malformed count {parts[2]!r} for key {key!r}") from None
    return start, stop, count


def parse_config(text: str) -> tuple[PhysicalParams, SweepSpec]:
    """Parse a config document into validated parameters plus a sweep spec.

    Unknown keys, duplicate keys, missing required keys, malformed numbers
    and malformed ranges all raise ConfigError with the offending line
    number; missing required keys are reported all at once.
    """
    scalars: dict[str, float] = {}
    strings: dict[str, str] = {}
    axes: list[SweepAxis] = []
    seen: dict[str, int] = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} (first on line {seen[key]})")
        seen[key] = line_no
        if key in SWEEP_KEYS:
            start, stop, count = _parse_range(key, value, line_no)
            try:
                axes.append(SweepAxis(key.split(".", 1)[1], start, stop, count))
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: {exc}") from None
        elif key == "pump_mode":
            if value not in PUMP_MODES:
                raise ConfigError(
                    f"line {line_no}: pump_mode must be one of {PUMP_MODES}, "
                    f"got {value!r}")
            strings[key] = value
        elif key in REQUIRED_KEYS or key in OPTIONAL_KEYS:
            scalars[key] = _parse_float(key, value, line_no)
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")

    missing = [key for key in REQUIRED_KEYS if key not in scalars]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    # each frequency key names its field, with "_hz" appended
    freqs = {key[:-3]: TWO_PI * scalars[key] for key in FREQ_KEYS}
    omega_b = freqs["omega_b"]
    params = PhysicalParams(
        **freqs, P_a=scalars["P_a_w"], P_m=scalars["P_m_w"],
        delta_a=scalars["delta_a_over_omega_b"] * omega_b,
        delta_m_tilde_target=scalars["delta_m_tilde_over_omega_b"] * omega_b,
        T=scalars["T_k"], theta_a=scalars.get("theta_a_rad", 0.0),
        theta_m=scalars.get("theta_m_rad", 0.0))
    try:
        validate(params)
    except CmmError as exc:
        raise ConfigError(f"invalid parameter values: {exc}") from None
    try:
        spec = SweepSpec(base=params, axes=tuple(axes),
                         pump_mode=strings.get("pump_mode", "both"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return params, spec


def _load(config_path: str) -> tuple[PhysicalParams, SweepSpec]:
    try:
        # utf-8-sig: a byte-order mark, as some editors save, is not text
        with open(config_path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {config_path!r}: {exc}") from None
    return parse_config(text)


#: one CSV row: the two axis values and the stable flag, spelled, then
#: the FLOAT_FIELDS; each %.9g field formats as :func:`fmt` does
_CSV_ROW = "%s,%s,%s," + ",".join(["%.9g"] * len(FLOAT_FIELDS)) + "\n"

#: the row of a point whose entanglement measures are all NaN, with their
#: ``nan`` written in; the fields it formats are the _UNMEASURED columns
_NAN_ROW = "%s,%s,%s," + ",".join(
    "nan" if name in MEASURES else "%.9g" for name in FLOAT_FIELDS) + "\n"
_MEASURED = [FLOAT_FIELDS.index(name) for name in MEASURES]
_UNMEASURED = [j for j, name in enumerate(FLOAT_FIELDS)
               if name not in MEASURES]


def _spelled(column: np.ndarray) -> list[str]:
    """:func:`fmt` of each entry, each distinct value formatted once.
    Values are told apart by their bits, so that -0.0 and 0.0 keep their
    own spelling."""
    bits, at = np.unique(column.view(np.int64), return_inverse=True)
    texts = [fmt(x) for x in bits.view(np.float64).tolist()]
    return [texts[i] for i in at.tolist()]


def _csv_lines(axis1, axis2, stable, values) -> str:
    """The CSV text of a block of points, given as columns."""
    blank = np.isnan(values[:, _MEASURED]).all(axis=1)
    lines = [""] * len(values)
    for rows, template, columns in ((~blank, _CSV_ROW, slice(None)),
                                    (blank, _NAN_ROW, _UNMEASURED)):
        at = np.flatnonzero(rows)
        texts = [template % fields for fields in zip(
            _spelled(axis1[at]), _spelled(axis2[at]),
            np.where(stable[at], "true", "false").tolist(),
            *values[at][:, columns].T.tolist())]
        for k, text in zip(at.tolist(), texts):
            lines[k] = text
    return "".join(lines)


def write_sweep_csv(table: SweepTable, path: str) -> None:
    """Write a SweepTable to ``path`` as UTF-8 CSV with LF line endings:
    the CSV_HEADER line, then one line per point, its axis values, its
    stable flag and its FLOAT_FIELDS, each number as :func:`fmt` spells
    it.

    The rows are formatted in the blocks that a sweep is evaluated in,
    shared among W workers through the same loop
    (:func:`cmmsim.sweep._in_workers`, which cuts the rows into blocks), W
    the number of CPUs in the process's affinity mask or of blocks if that
    is smaller.  At every W each worker appends the blocks it claims to
    its own unlinked temporary file.  Once the loop has returned, and no
    child is left, this process writes the header to ``path`` and copies
    the blocks after it in block order, one block at a time, checking
    each block's row count, so the bytes do not depend on W.  A worker
    that fails, or a block short of rows, makes this raise CmmError naming
    it, and so does a temporary file that cannot be made or written
    ("cannot hold the CSV's blocks: ..."); a write that fails leaves no
    file at ``path``.
    """
    n = len(table)
    workers = sweep._workers(n)
    scratch = []

    def do(w: int, at: slice):
        text = _csv_lines(table.axis1[at], table.axis2[at],
                          table.stable[at], table.values[at]).encode()
        try:
            scratch[w].write(text)
            scratch[w].flush()  # a child exits without flushing
        except OSError as exc:  # not ``path``'s fault
            raise CmmError(f"cannot hold the CSV's blocks: {exc}") from None
        return w, at, len(text), text.count(b"\n")

    fh = open(path, "wb")
    try:
        with fh:
            for _ in range(workers):
                scratch.append(sweep._temporary("hold the CSV's blocks"))
            done = sweep._in_workers(do, workers, n, "CSV worker")
            fh.write(CSV_HEADER.encode() + b"\n")  # every child reaped
            for held in scratch:
                held.seek(0)
            for b, (w, at, length, rows) in done.items():
                want = len(range(n)[at])
                if rows != want:
                    raise CmmError(f"CSV block {b} has {rows} of {want} rows")
                fh.write(scratch[w].read(length))
    except BaseException:
        _discard(path)
        raise
    finally:
        for held in scratch:
            held.close()


def _discard(path: str) -> None:
    """Remove ``path`` if it is a regular file: a device or a link that a
    CSV was written through is left alone."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
    except OSError:
        pass


def cmd_steady(config_path: str) -> int:
    params, spec = _load(config_path)
    p = apply_pump_mode(params, spec.pump_mode)
    row = evaluate_point(p)
    if row.status.startswith("error"):
        print(row.status, file=sys.stderr)
        return 1
    state = solve_steady_state(p)
    print(f"alpha_s_re = {fmt(state.alpha_s.real)}")
    print(f"alpha_s_im = {fmt(state.alpha_s.imag)}")
    print(f"m_s_re = {fmt(state.m_s.real)}")
    print(f"m_s_im = {fmt(state.m_s.imag)}")
    print(f"abs_ms_sq = {fmt(row.abs_ms_sq)}")
    print(f"q_s = {fmt(row.q_s)}")
    print(f"delta_m_bare_rad_s = {fmt(state.delta_m)}")
    print(f"stable = {'true' if row.stable else 'false'}")
    print(f"margin_rad_s = {fmt(row.margin)}")
    for name, label in _LABELS.items():
        print(f"{label} = {fmt(getattr(row, name))}")
    if not row.stable:
        print("note = operating point is unstable; entanglement fields "
              "are undefined (nan)")
    return 0


def cmd_sweep(config_path: str, out_path: str) -> int:
    _, spec = _load(config_path)
    if not spec.axes:
        raise ConfigError("sweep requires one or two sweep.<axis> keys")
    table = run_sweep(spec)
    try:
        write_sweep_csv(table, out_path)
    except OSError as exc:
        print(f"cannot write {out_path!r}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(table)} rows to {out_path}")
    return 0


def cmd_phase_opt(config_path: str, resolution: int = 64) -> int:
    params, spec = _load(config_path)
    base = apply_pump_mode(params, spec.pump_mode)
    try:
        # the scan starts at the zero phase difference: its first value is
        # the baseline, bit for bit
        theta_star, r_star, scan = optimize_phase(base, resolution)
    except ValueError as exc:  # a resolution below the optimizer's floor
        raise ConfigError(str(exc)) from None
    print(f"delta_theta_star_rad = {fmt(theta_star)}")
    print(f"r_min_star = {fmt(r_star)}")
    print(f"r_min_at_zero_phase = {fmt(scan[0])}")
    if base.P_a == 0.0 or base.P_m == 0.0:
        print("note = single-pump configuration: r_min is independent of "
              "the phase difference")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="cmmsim",
        description="Steady-state quantum correlations of a dual-driven "
                    "cavity-magnon-mechanics system.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_steady = sub.add_parser("steady", help="report one operating point")
    p_steady.add_argument("--config", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid to CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)

    p_opt = sub.add_parser("phase-opt", help="maximize entanglement over the "
                                             "drive phase difference")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--resolution", type=int, default=64)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "steady":
            return cmd_steady(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out)
        return cmd_phase_opt(args.config, resolution=args.resolution)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
