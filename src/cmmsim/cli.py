"""Command-line front end: flat key=value configs, steady/sweep/phase-opt
subcommands, deterministic CSV output.

Config format: one ``key = value`` pair per line, ``#`` starts a comment,
blank lines ignored.  Frequencies are quoted in ordinary Hz (``*_hz`` keys)
and multiplied by 2*pi exactly once here; detunings are quoted in units of
omega_b.  Sweep axes use ``sweep.<axis> = start:stop:count``.

Exit codes: 0 success (an unstable operating point is data, not an error),
1 runtime or I/O failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CmmError, ConfigError
from .params import TWO_PI, PhysicalParams, validate
from .sweep import (AXES, PUMP_MODES, SweepAxis, SweepSpec, apply_pump_mode,
                    evaluate_point, optimize_phase, run_sweep)

FREQ_KEYS = ("omega_a_hz", "omega_b_hz", "kappa_a_hz", "kappa_m_hz",
             "gamma_b_hz", "g_ma_hz", "g_mb_hz")
REQUIRED_KEYS = FREQ_KEYS + ("P_a_w", "P_m_w", "T_k",
                             "delta_a_over_omega_b",
                             "delta_m_tilde_over_omega_b")
OPTIONAL_KEYS = ("theta_a_rad", "theta_m_rad", "pump_mode")
SWEEP_KEYS = tuple(f"sweep.{axis}" for axis in AXES)

CSV_HEADER = ("axis1,axis2,stable,margin,R_min,R_a,R_m,R_b,"
              "EN_am,EN_ab,EN_mb,EN_a_mb,EN_m_ab,EN_b_am,abs_ms_sq,q_s")


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
    if len(axes) > 2:
        raise ConfigError("at most two sweep axes are supported")

    omega_b = TWO_PI * scalars["omega_b_hz"]
    params = PhysicalParams(
        omega_a=TWO_PI * scalars["omega_a_hz"],
        omega_b=omega_b,
        kappa_a=TWO_PI * scalars["kappa_a_hz"],
        kappa_m=TWO_PI * scalars["kappa_m_hz"],
        gamma_b=TWO_PI * scalars["gamma_b_hz"],
        g_ma=TWO_PI * scalars["g_ma_hz"],
        g_mb=TWO_PI * scalars["g_mb_hz"],
        P_a=scalars["P_a_w"],
        P_m=scalars["P_m_w"],
        delta_a=scalars["delta_a_over_omega_b"] * omega_b,
        delta_m_tilde_target=scalars["delta_m_tilde_over_omega_b"] * omega_b,
        T=scalars["T_k"],
        theta_a=scalars.get("theta_a_rad", 0.0),
        theta_m=scalars.get("theta_m_rad", 0.0),
    )
    try:
        validate(params)
    except CmmError as exc:
        raise ConfigError(f"invalid parameter values: {exc}") from None
    spec = SweepSpec(base=params, axes=tuple(axes),
                     pump_mode=strings.get("pump_mode", "both"))
    return params, spec


def _load(config_path: str) -> tuple[PhysicalParams, SweepSpec]:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path!r}: {exc}") from None
    return parse_config(text)


#: one CSV row; each %.9g field formats as :func:`fmt` does
_CSV_ROW = "%.9g,%.9g,%s," + ",".join(["%.9g"] * 13)


def write_sweep_csv(rows, path: str) -> None:
    """Write rows as UTF-8 CSV with LF line endings, 9 significant digits."""
    lines = [CSV_HEADER]
    lines += [_CSV_ROW % (
        r.axis1, r.axis2, "true" if r.stable else "false",
        r.margin, r.r_min, r.residual_a, r.residual_m, r.residual_b,
        r.en_am, r.en_ab, r.en_mb, r.en_a_mb, r.en_m_ab, r.en_b_am,
        r.abs_ms_sq, r.q_s) for r in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_steady(config_path: str) -> int:
    params, spec = _load(config_path)
    p = apply_pump_mode(params, spec.pump_mode)
    row, state = evaluate_point(p, return_state=True)
    if row.status.startswith("error"):
        print(row.status, file=sys.stderr)
        return 1
    print(f"alpha_s_re = {fmt(state.alpha_s.real)}")
    print(f"alpha_s_im = {fmt(state.alpha_s.imag)}")
    print(f"m_s_re = {fmt(state.m_s.real)}")
    print(f"m_s_im = {fmt(state.m_s.imag)}")
    print(f"abs_ms_sq = {fmt(row.abs_ms_sq)}")
    print(f"q_s = {fmt(row.q_s)}")
    print(f"delta_m_bare_rad_s = {fmt(state.delta_m)}")
    print(f"stable = {'true' if row.stable else 'false'}")
    print(f"margin_rad_s = {fmt(row.margin)}")
    for label, field in (("EN_am", "en_am"), ("EN_ab", "en_ab"),
                         ("EN_mb", "en_mb"), ("EN_a_mb", "en_a_mb"),
                         ("EN_m_ab", "en_m_ab"), ("EN_b_am", "en_b_am"),
                         ("R_a", "residual_a"), ("R_m", "residual_m"),
                         ("R_b", "residual_b"), ("R_min", "r_min")):
        print(f"{label} = {fmt(getattr(row, field))}")
    if not row.stable:
        print("note = operating point is unstable; entanglement fields "
              "are undefined (nan)")
    return 0


def cmd_sweep(config_path: str, out_path: str) -> int:
    _, spec = _load(config_path)
    if not 1 <= len(spec.axes) <= 2:
        raise ConfigError("sweep requires one or two sweep.<axis> keys")
    rows = run_sweep(spec)
    try:
        write_sweep_csv(rows, out_path)
    except OSError as exc:
        print(f"cannot write {out_path!r}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {out_path}")
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


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
    try:
        if args.command == "steady":
            return cmd_steady(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out)
        if args.command == "phase-opt":
            return cmd_phase_opt(args.config, resolution=args.resolution)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
