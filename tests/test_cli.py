"""Config parsing, CSV output, subcommands, exit codes."""

import errno
import io
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cmmsim
from cmmsim import (CmmError, ConfigError, ParamBatch, SweepRow, SweepTable,
                    TWO_PI, apply_axis, apply_pump_mode, cli, evaluate_batch,
                    evaluate_point, optimize_phase, run_sweep,
                    solve_steady_state, sweep)
from cmmsim.cli import CSV_HEADER, fmt, main, parse_config, write_sweep_csv
from cmmsim.sweep import FLOAT_FIELDS
from conftest import table_of

BASELINE_CFG = """\
# baseline parameter set
omega_a_hz = 10e9
omega_b_hz = 10e6
kappa_a_hz = 1e6
kappa_m_hz = 1e6
gamma_b_hz = 100
g_ma_hz = 1e6
g_mb_hz = 0.28
P_a_w = 9e-3
P_m_w = 0.9
T_k = 10e-3
delta_a_over_omega_b = -1.35
delta_m_tilde_over_omega_b = 0.9
theta_a_rad = 1.5707963267948966
theta_m_rad = 0.0
"""


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(tmp_path, text, name="test.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_baseline_parses(self):
        params, spec = parse_config(BASELINE_CFG)
        assert params.omega_a == TWO_PI * 10e9
        assert params.delta_a == pytest.approx(-1.35 * TWO_PI * 10e6)
        assert params.theta_a == pytest.approx(math.pi / 2.0)
        assert spec.pump_mode == "both"
        assert spec.axes == ()

    def test_defaults_applied(self):
        text = "\n".join(line for line in BASELINE_CFG.splitlines()
                         if not line.startswith("theta"))
        params, spec = parse_config(text)
        assert params.theta_a == 0.0 and params.theta_m == 0.0
        assert spec.pump_mode == "both"

    def test_sweep_axis_range(self):
        params, spec = parse_config(
            BASELINE_CFG + "sweep.delta_theta = 0:6.283185307:101\n")
        assert len(spec.axes) == 1
        ax = spec.axes[0]
        assert ax.name == "delta_theta" and ax.count == 101
        assert ax.values()[0] == 0.0

    def test_empty_file_lists_all_missing_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        msg = str(err.value)
        for key in ("omega_a_hz", "g_mb_hz", "delta_a_over_omega_b", "T_k"):
            assert key in msg

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*bogus_key"):
            parse_config("omega_a_hz = 10e9\nbogus_key = 3\n")

    def test_malformed_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 1.*malformed number"):
            parse_config("omega_a_hz = ten gigahertz\n")

    def test_malformed_range_reports_line(self):
        with pytest.raises(ConfigError, match="malformed range"):
            parse_config(BASELINE_CFG + "sweep.delta_a = 0:1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("omega_a_hz = 10e9\nomega_a_hz = 11e9\n")

    def test_bad_pump_mode_rejected(self):
        with pytest.raises(ConfigError, match="pump_mode"):
            parse_config(BASELINE_CFG + "pump_mode = sideways\n")

    def test_swept_power_of_a_switched_off_pump_rejected(self):
        # magnon-only forces P_a = 0, so every row would be the same point
        with pytest.raises(ConfigError, match="P_a.*'magnon-only'"):
            parse_config(BASELINE_CFG + "pump_mode = magnon-only\n"
                         "sweep.P_a = 0.001:0.1:3\n")

    def test_invalid_values_rejected(self):
        bad = BASELINE_CFG.replace("kappa_a_hz = 1e6", "kappa_a_hz = -1e6")
        with pytest.raises(ConfigError, match="kappa_a"):
            parse_config(bad)

    def test_comment_and_blank_handling(self):
        params, _ = parse_config(BASELINE_CFG + "\n# trailing comment\n\n")
        assert params.P_m == 0.9

    @pytest.mark.parametrize("command, options", [
        ("steady", []), ("sweep", ["--out", "out.csv"]),
        ("phase-opt", ["--resolution", "16"])])
    def test_a_file_that_is_not_utf8_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, command, options):
        monkeypatch.chdir(tmp_path)
        Path("bad.cfg").write_bytes(b"\xff\xfe omega_a_hz = 1\n")
        assert main([command, "--config", "bad.cfg", *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config 'bad.cfg': ")
        assert "can't decode byte 0xff" in err
        assert not Path("out.csv").exists()

    def test_a_byte_order_mark_is_not_part_of_the_config(self, tmp_path,
                                                         capsys):
        # as an editor may save it: UTF-8 with a BOM
        text = (Path(__file__).parent.parent / "configs"
                / "baseline.cfg").read_bytes()
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert cli._load(str(marked)) == cli._load(str(plain))
        outputs = []
        for path in (plain, marked):
            assert main(["steady", "--config", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]


class TestFormatting:
    def test_nine_significant_digits(self):
        assert fmt(0.0173489916703) == "0.0173489917"
        assert fmt(130646618067369.51) == "1.30646618e+14"

    def test_nan_spelling(self):
        assert fmt(float("nan")) == "nan"

    def test_csv_rows_equal_per_value_formatting(self, tmp_path):
        block = sweep.BLOCK * sweep.CHUNK  # the CSV's rows per block
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300,
                    5e-324, 0.0173489916703, 130646618067369.51]
        rows = [SweepRow(specials[k % 10], specials[(k + 3) % 10], k % 2 == 0,
                         *[specials[(k + j) % 10] for j in range(13)])
                for k in range(2 * block + 3)]  # past two whole blocks
        # rows whose ten measures are all NaN, and rows where only r_min
        # is NaN; the axes take the specials and repeat -0.0, 0.0 and NaNs
        # of either sign
        repeats = [-0.0, 0.0, math.nan, -math.nan]

        def axis(k):
            return specials[k // 2 % 10] if k % 2 == 0 else repeats[k // 2 % 4]

        nan_rows = [SweepRow(axis(k), axis(k + 1), k % 3 == 0,
                             specials[(k + 1) % 10], *[math.nan] * 10,
                             specials[(k + 2) % 10], specials[(k + 5) % 10])
                    for k in range(40)]
        finite = specials[1:]
        nan_rows += [SweepRow(axis(k), axis(k + 1), k % 2 == 0,
                              finite[k % 9], math.nan,
                              *[finite[(k + j) % 9] for j in range(11)])
                     for k in range(40)]
        # across the boundary of the first block
        rows[block - 40:block - 40] = nan_rows
        path = tmp_path / "rows.csv"
        write_sweep_csv(table_of(rows), str(path))
        want = [CSV_HEADER] + [",".join(
            [fmt(r.axis1), fmt(r.axis2), "true" if r.stable else "false"]
            + [fmt(getattr(r, name)) for name in (
                "margin", "r_min", "residual_a", "residual_m", "residual_b",
                "en_am", "en_ab", "en_mb", "en_a_mb", "en_m_ab", "en_b_am",
                "abs_ms_sq", "q_s")]) for r in rows]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")


class TestSteadyCommand:
    def test_stable_point_exit_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG)
        assert main(["steady", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "stable = true" in out
        assert "R_min = " in out
        for field in ("alpha_s_re", "m_s_im", "abs_ms_sq", "q_s",
                      "delta_m_bare_rad_s", "margin_rad_s", "EN_mb"):
            assert f"{field} = " in out

    def test_unstable_point_is_data_not_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG.replace(
            "g_mb_hz = 0.28", "g_mb_hz = 6.0"))
        assert main(["steady", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "stable = false" in out
        assert "unstable" in out
        assert "R_min = nan" in out

    @pytest.mark.parametrize("name, mode", [
        ("baseline.cfg", "both"), ("sweep_detuning.cfg", None),
        ("sweep_phase_grid.cfg", None), ("sweep_thermal.cfg", None),
        ("baseline.cfg", "cavity-only")])
    def test_prints_the_mean_field_and_the_row(self, tmp_path, capsys, name,
                                               mode):
        text = (CONFIG_DIR / name).read_text(encoding="utf-8")
        if mode is not None:  # the shipped baseline sets pump_mode = both
            text = text.replace("pump_mode = both", f"pump_mode = {mode}")
        params, spec = parse_config(text)
        assert spec.pump_mode == (mode or "both")
        p = apply_pump_mode(params, spec.pump_mode)
        state, row = solve_steady_state(p), evaluate_point(p)
        assert main(["steady", "--config", write_cfg(tmp_path, text)]) == 0
        want = [f"alpha_s_re = {fmt(state.alpha_s.real)}",
                f"alpha_s_im = {fmt(state.alpha_s.imag)}",
                f"m_s_re = {fmt(state.m_s.real)}",
                f"m_s_im = {fmt(state.m_s.imag)}",
                f"abs_ms_sq = {fmt(row.abs_ms_sq)}",
                f"q_s = {fmt(row.q_s)}",
                f"delta_m_bare_rad_s = {fmt(state.delta_m)}",
                f"stable = {'true' if row.stable else 'false'}",
                f"margin_rad_s = {fmt(row.margin)}"]
        want += [f"{label} = {fmt(getattr(row, field))}" for label, field in (
            ("EN_am", "en_am"), ("EN_ab", "en_ab"), ("EN_mb", "en_mb"),
            ("EN_a_mb", "en_a_mb"), ("EN_m_ab", "en_m_ab"),
            ("EN_b_am", "en_b_am"), ("R_a", "residual_a"),
            ("R_m", "residual_m"), ("R_b", "residual_b"), ("R_min", "r_min"))]
        assert row.stable  # so no note line follows
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    def test_error_row_exit_one(self, tmp_path, capsys):
        # a magnon drive so strong that the mean-field state overflows
        text = BASELINE_CFG.replace("P_m_w = 0.9", "P_m_w = 1e308")
        row = evaluate_point(parse_config(text)[0])
        assert row.status == "error: non-finite mean-field state"
        assert main(["steady", "--config", write_cfg(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == row.status + "\n"

    @pytest.mark.parametrize("line, message", [
        ("sweep.delta_a", "expected 'key = value', got 'sweep.delta_a'"),
        ("sweep.delta_a = -1.5:-1.1:three",
         "malformed count 'three' for key 'sweep.delta_a'"),
        ("sweep.delta_a = -1.1:-1.5:3",
         "axis delta_a: start must be <= stop")])
    def test_config_error_exit_two_names_the_line(self, tmp_path, capsys,
                                                  line, message):
        line_no = len(BASELINE_CFG.splitlines()) + 1
        cfg = write_cfg(tmp_path, BASELINE_CFG + line + "\n")
        assert main(["steady", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: line {line_no}: {message}\n")

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "omega_a_hz = ??\n")
        assert main(["steady", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["steady", "--config", "/nonexistent/x.cfg"]) == 2


class TestSweepCommand:
    @pytest.mark.parametrize("line, got", [
        ("sweep.T = 0:inf:3", "0.0:inf"),
        ("sweep.delta_a = -inf:0:2", "-inf:0.0"),
        ("sweep.delta_a = -1e308:1e308:3", "-1e+308:1e+308"),
        ("sweep.T = nan:1:3", "nan:1.0")])
    def test_non_finite_axis_bounds_are_a_config_error(self, tmp_path, capsys,
                                                       line, got):
        axis = line.split()[0].removeprefix("sweep.")
        message = (f"line {len(BASELINE_CFG.splitlines()) + 1}: axis {axis}: "
                   f"start, stop and stop - start must be finite, got {got}")
        with pytest.raises(ConfigError) as err:
            parse_config(BASELINE_CFG + line + "\n")
        assert str(err.value) == message
        out_path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config",
                         write_cfg(tmp_path, BASELINE_CFG + line + "\n"),
                         "--out", str(out_path)]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out_path.exists()

    def test_small_sweep_writes_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG + "sweep.delta_a = -1.5:-1.1:3\n")
        out_path = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_path)]) == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "-1.5" and first[1] == "nan"
        assert first[2] in ("true", "false")

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, BASELINE_CFG + "sweep.delta_a = -1.5:-1.1:3\n")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(p1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_axes_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG)
        assert main(["sweep", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_unwritable_path_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG + "sweep.delta_a = -1.5:-1.1:3\n")
        assert main(["sweep", "--config", cfg, "--out",
                     "/nonexistent-dir/out.csv"]) == 1

    def test_swept_power_of_a_switched_off_pump_exit_two(self, tmp_path,
                                                         capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG + "pump_mode = magnon-only\n"
                        "sweep.P_a = 0.001:0.1:3\n")
        out_path = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep axis P_a ")
        assert "'magnon-only'" in err
        assert not out_path.exists()

    def test_an_unrepresentable_grid_is_an_error(self, tmp_path, capsys):
        # 1.6e19 points: sizing their table fails before anything is
        # allocated, and the command prints one line, not a traceback
        cfg = write_cfg(tmp_path, BASELINE_CFG
                        + "sweep.delta_a = -2:2:4000000000\n"
                        "sweep.delta_theta = 0:6:4000000000\n")
        out_path = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot allocate the results of "
                              "16000000000000000000 sweep points: ")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_coordinates_that_cannot_be_allocated_are_an_error(
            self, tmp_path, capsys, monkeypatch):
        # the grid's coordinate columns are built under the guard of its
        # table, before any point is evaluated
        def no_memory(*axes, **options):
            raise MemoryError("Unable to allocate 216 B for an array")

        def refuse(*args):
            raise AssertionError("evaluated")

        monkeypatch.setattr(np, "meshgrid", no_memory)
        monkeypatch.setattr(sweep, "_evaluate_into", refuse)
        message = ("cannot allocate the results of 27 sweep points: "
                   "Unable to allocate 216 B for an array")
        _, spec = parse_config(GRID_CFG)
        with pytest.raises(CmmError, match=f"^{re.escape(message)}$"):
            run_sweep(spec)
        out_path = tmp_path / "out.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, GRID_CFG),
                     "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out_path.exists()

    def test_three_axes_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG + "sweep.delta_a = -2:2:3\n"
                        "sweep.delta_theta = 0:6:3\nsweep.T = 0.01:0.1:3\n")
        out_path = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: at most two sweep axes are supported\n")
        assert not out_path.exists()

    def test_builds_no_row_objects(self, tmp_path, monkeypatch):
        built = []
        init = SweepRow.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SweepRow, "__init__", spy)
        params, _ = parse_config(BASELINE_CFG)
        evaluate_point(params)
        assert len(built) == 1  # the spy sees the rows the API hands out
        built.clear()
        # ok, unstable and error rows (T = 1e300 K overflows)
        cfg = write_cfg(tmp_path, BASELINE_CFG.replace("P_m_w = 0.9",
                                                       "P_m_w = 1.0")
                        + "sweep.delta_a = -2:2:9\nsweep.T = 0.01:1e300:3\n")
        out_path = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_path)]) == 0
        assert built == []
        # (stable, R_min is nan): ok, error (stable points whose Lyapunov
        # solve fails) and unstable rows
        kinds = {(fields[2], fields[4] == "nan") for fields in (
            line.split(",") for line in out_path.read_text().splitlines()[1:])}
        assert kinds == {("true", False), ("true", True), ("false", True)}

    def test_lf_line_endings(self, tmp_path):
        cfg = write_cfg(tmp_path, BASELINE_CFG + "sweep.delta_a = -1.3:-1.3:1\n")
        out_path = tmp_path / "o.csv"
        main(["sweep", "--config", cfg, "--out", str(out_path)])
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


#: ok, unstable and error rows (T = 1e300 K overflows), 27 points
GRID_CFG = (BASELINE_CFG.replace("P_m_w = 0.9", "P_m_w = 1.0")
            + "sweep.delta_a = -2:2:9\nsweep.T = 0.01:1e300:3\n")


def _die(kind):
    """Make this process fail as a sweep worker can."""
    if kind == "exit":
        os._exit(3)
    if kind == "raise":
        raise RuntimeError("forced")
    os.kill(os.getpid(), signal.SIGKILL)


def _failing_child(kind):
    """A ``sweep._child`` whose worker fails as ``kind`` says before its
    first block: this process may empty the block queue before a child
    claims one."""
    child = sweep._child
    return lambda work, w, write: child(lambda w: _die(kind), w, write)


class TestSweepWorkers:
    """A sweep's blocks are shared among forked workers, one per CPU; a
    worker that fails is an error (exit status 1), never a hang or a
    process left behind, and small work never forks."""

    #: the error of worker 1 failing in each way
    FAILURES = {
        "exit": "sweep worker 1 exited with status 3",
        "raise": "sweep worker 1 exited with status 1",
        "kill": f"sweep worker 1 was killed by signal {signal.SIGKILL:d}",
        "short": "sweep worker 1 exited with status 0 but sent a short "
                 "result (4 bytes)"}

    @pytest.mark.parametrize("kind", FAILURES)
    def test_a_failing_worker_is_an_error(self, tmp_path, capsys,
                                          monkeypatch, kind):
        message = self.FAILURES[kind]
        if kind == "short":
            monkeypatch.setattr(pickle, "dumps",
                                lambda obj, dumps=pickle.dumps: dumps(obj)[:4])
        else:
            monkeypatch.setattr(sweep, "_child", _failing_child(kind))
        monkeypatch.setattr(sweep, "_cpus", lambda: 2)
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 7)  # four blocks
        _, spec = parse_config(GRID_CFG)
        with pytest.raises(CmmError, match=f"^{re.escape(message)}$"):
            run_sweep(spec)
        out_path = tmp_path / "out.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, GRID_CFG),
                     "--out", str(out_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_path.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("error", [CmmError, RuntimeError])
    def test_a_worker_error_reports_one_line(self, tmp_path, capfd,
                                             monkeypatch, error):
        # a worker's CmmError reaches this process as its message, and the
        # child prints no traceback; any other exception still prints one.
        # capfd reads file descriptor 2, which the child writes too
        def fail(w):
            raise error("cannot hold the CSV's blocks: no room")

        child = sweep._child
        monkeypatch.setattr(sweep, "_child",
                            lambda work, w, write: child(fail, w, write))
        monkeypatch.setattr(sweep, "_cpus", lambda: 2)
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 7)  # four blocks
        message = ("sweep worker 1 failed: cannot hold the CSV's blocks: "
                   "no room" if error is CmmError
                   else "sweep worker 1 exited with status 1")
        out_path = tmp_path / "out.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, GRID_CFG),
                     "--out", str(out_path)]) == 1
        err = capfd.readouterr().err
        assert not out_path.exists()
        if error is CmmError:
            assert err == f"error: {message}\n"
        else:
            assert "Traceback" in err
            assert err.endswith(f"RuntimeError: cannot hold the CSV's "
                                f"blocks: no room\nerror: {message}\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_forking_never_warns(self, tmp_path, monkeypatch):
        # Python >= 3.12 warns when a process with threads forks; under an
        # "error" filter CPython drops that warning, so it is recorded
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(sweep, "_cpus", lambda: 2)
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 7)  # four blocks in each pass
        params, spec = parse_config(GRID_CFG)
        evaluate_point(params)  # numpy's BLAS has started its threads
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            write_sweep_csv(run_sweep(spec), str(tmp_path / "out.csv"))
        assert len(forks) == 2
        assert [str(w.message) for w in caught
                if issubclass(w.category, DeprecationWarning)
                and "fork" in str(w.message)] == []

    def test_small_work_never_forks(self, tmp_path, capsys, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
        params, spec = parse_config(GRID_CFG)
        assert evaluate_point(params).status == "ok"
        assert len(evaluate_batch(ParamBatch.from_base(params, 16)).table) == 16
        optimize_phase(params, 8)
        optimize_phase(params, 64)  # its zoom rounds taken two at a time
        assert len(run_sweep(spec)) == 27  # one block
        cfg = write_cfg(tmp_path, BASELINE_CFG)
        assert main(["steady", "--config", cfg]) == 0
        assert main(["phase-opt", "--config", cfg, "--resolution", "8"]) == 0
        assert main(["phase-opt", "--config", cfg, "--resolution", "64"]) == 0
        # nor does writing a CSV of less than one block, or of no row, on
        # any number of CPUs
        monkeypatch.setattr(sweep, "_cpus", lambda: 3)
        out_path = tmp_path / "out.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, GRID_CFG),
                     "--out", str(out_path)]) == 0
        assert len(out_path.read_bytes().splitlines()) == 1 + 27
        write_sweep_csv(_rows(run_sweep(spec), 0), str(out_path))
        assert out_path.read_bytes() == CSV_HEADER.encode() + b"\n"
        # nor does a grid of many blocks, or a CSV of many blocks, on one
        # CPU
        monkeypatch.setattr(sweep, "_cpus", lambda: 1)
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 7)  # four blocks in each pass
        write_sweep_csv(run_sweep(spec), str(out_path))
        assert len(out_path.read_bytes().splitlines()) == 1 + 27

    def test_no_affinity_mask_is_one_cpu(self, tmp_path, monkeypatch):
        # where the OS gives no affinity mask, a grid of many blocks and a
        # CSV of many blocks run in this process alone
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert sweep._cpus() == 1

        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 7)  # four blocks in each pass
        out_path = tmp_path / "out.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, GRID_CFG),
                     "--out", str(out_path)]) == 0
        assert len(out_path.read_bytes().splitlines()) == 1 + 27


def _failing_csv_workers(monkeypatch, kind):
    """Make the forked workers of a CSV write fail as ``kind`` says, before
    their first block; a sweep's workers run as they do."""
    in_workers, child, failing = (sweep._in_workers, sweep._child,
                                  _failing_child(kind))

    def csv_fails(do, workers, rows, name="sweep worker"):
        monkeypatch.setattr(sweep, "_child",
                            failing if name == "CSV worker" else child)
        return in_workers(do, workers, rows, name)

    monkeypatch.setattr(sweep, "_in_workers", csv_fails)


def _rows(table, n):
    """The table of the first ``n`` points of ``table``, statuses aside."""
    return SweepTable(table.axis1[:n], table.axis2[:n], table.stable[:n],
                      table.values[:n], {})


class TestCsvWorkers:
    """The CSV's blocks of rows are shared among forked workers, one per
    CPU, through the sweep's block queue; the bytes do not depend on the
    worker count, a worker that fails is an error that leaves no CSV and
    no process behind, and this process holds a few blocks' text at most."""

    #: the error of worker 1 failing in each way, and of a block short of
    #: a row; in blocks of BLOCK * CHUNK = 1 * 4 rows the 27 rows of
    #: GRID_CFG make seven blocks
    FAILURES = {
        "exit": "CSV worker 1 exited with status 3",
        "raise": "CSV worker 1 exited with status 1",
        "kill": f"CSV worker 1 was killed by signal {signal.SIGKILL:d}",
        "short": "CSV block 0 has 3 of 4 rows"}

    @pytest.mark.parametrize("kind", FAILURES)
    def test_a_failing_worker_is_an_error(self, tmp_path, capsys,
                                          monkeypatch, kind):
        message = self.FAILURES[kind]
        _, spec = parse_config(GRID_CFG)
        table = run_sweep(spec)  # one block at the default sizes: no fork
        if kind == "short":
            # each block without its first row, in every worker, so that
            # block 0 is the first one short; a sweep formats no rows
            lines = cli._csv_lines
            monkeypatch.setattr(cli, "_csv_lines", lambda *columns:
                                lines(*columns).split("\n", 1)[1])
        else:
            _failing_csv_workers(monkeypatch, kind)
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 4)  # seven blocks in each pass
        out_path = tmp_path / "out.csv"
        # a short block is an error with one worker too
        for cpus in (1, 2) if kind == "short" else (2,):
            monkeypatch.setattr(sweep, "_cpus", lambda cpus=cpus: cpus)
            with pytest.raises(CmmError, match=f"^{re.escape(message)}$"):
                write_sweep_csv(table, str(out_path))
            assert not out_path.exists()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert main(["sweep", "--config", write_cfg(tmp_path, GRID_CFG),
                         "--out", str(out_path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out_path.exists()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fails", ["open", "write"])
    def test_no_room_for_the_scratch_files_is_an_error(self, tmp_path, capsys,
                                                       monkeypatch, fails):
        def no_space(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class Full(io.BytesIO):
            def write(self, data):
                return no_space() if data else 0

        temporary = sweep._temporary

        def scratch_fails(what, data=b""):
            # the scratch files are made empty, the block queues are not
            if data:
                return temporary(what, data)
            if fails == "write":
                return Full()
            with monkeypatch.context() as patch:
                patch.setattr(sweep.tempfile, "TemporaryFile", no_space)
                return temporary(what)

        monkeypatch.setattr(sweep, "_temporary", scratch_fails)
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 4)  # seven blocks in each pass
        out_path = tmp_path / "out.csv"
        # one worker holds its blocks in a scratch file as two do
        for cpus in (1, 2):
            monkeypatch.setattr(sweep, "_cpus", lambda cpus=cpus: cpus)
            assert main(["sweep", "--config", write_cfg(tmp_path, GRID_CFG),
                         "--out", str(out_path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: cannot hold the CSV's blocks: "
                                    "[Errno 28] No space left on device\n")
            assert not out_path.exists()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("rows, forks", [
        (27, [0, 1, 2]),  # ok, unstable and error rows; a partial block
        (24, [0, 1, 2]),  # six whole blocks
        (3, [0, 0, 0]),   # less than one block
        (0, [0, 0, 0])])  # the header alone
    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch,
                                                  rows, forks):
        _, spec = parse_config(GRID_CFG)
        table = run_sweep(spec)
        assert {table.status(k).split(":")[0]
                for k in range(len(table))} == {"ok", "unstable", "error"}
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 4)  # blocks of four rows
        counted, fork = [], os.fork

        def counted_fork():
            counted.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        runs, made = [], []
        for workers in (1, 2, 3):
            monkeypatch.setattr(sweep, "_cpus", lambda w=workers: w)
            path = tmp_path / f"{workers}.csv"
            write_sweep_csv(_rows(table, rows), str(path))
            runs.append(path.read_bytes())
            made.append(len(counted))
            counted.clear()
        assert made == forks
        assert runs[0].count(b"\n") == 1 + rows
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_this_process_holds_a_few_blocks_of_text(self, tmp_path,
                                                     monkeypatch):
        # the stability_edge grid's shape: 201 x 201 points, 2 % of them
        # stable and measured, the rest with NaN measures
        rng = np.random.default_rng(5)
        n = 201 * 201
        values = rng.normal(size=(n, len(FLOAT_FIELDS)))
        stable = rng.random(n) < 0.02
        values[~stable, 1:11] = np.nan
        axis = np.linspace(-2.0, 2.0, 201)
        table = SweepTable(np.repeat(axis, 201), np.tile(axis, 201), stable,
                           values, {})
        monkeypatch.setattr(sweep, "_cpus", lambda: 2)
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_sweep_csv(table, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_text = path.stat().st_size / len(
            range(0, n, sweep.BLOCK * sweep.CHUNK))
        # holding the whole text, or one worker's share of it, would be
        # about 20 blocks
        assert peak < 8 * block_text


class TestPhaseOptCommand:
    def test_single_pump_flat_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG.replace("P_a_w = 9e-3",
                                                       "P_a_w = 0"))
        assert main(["phase-opt", "--config", cfg, "--resolution", "8"]) == 0
        out = capsys.readouterr().out
        assert "phase-independent" in out or "independent of" in out
        assert "delta_theta_star_rad = 0" in out

    def test_scans_once_then_zooms_in_batches(self, tmp_path, capsys,
                                              monkeypatch):
        sizes = []
        evaluate_batch = sweep.evaluate_batch

        def spy(p, *args):
            sizes.append(len(p))
            return evaluate_batch(p, *args)

        monkeypatch.setattr(sweep, "evaluate_batch", spy)
        cfg = write_cfg(tmp_path, BASELINE_CFG)
        assert main(["phase-opt", "--config", cfg, "--resolution", "64"]) == 0
        # the scan (phase 0, then 33 phases across the half period), then
        # the zoom rounds; the zero-phase baseline is the scan's first
        # point, not evaluated again.  The best phase stays at theta0, an
        # end of the half period, so each round is its ZOOM offsets on the
        # inner side, and two rounds share a batch of at most 2 * ZOOM; the
        # half-width 2pi/64 shrinks ZOOM-fold per round: 34, 20, 20, 10
        rounds, h = 0, 2.0 * math.pi / 64
        while h > 1e-6:
            rounds, h = rounds + 1, h / sweep.ZOOM
        assert sizes == ([34] + [2 * sweep.ZOOM] * (rounds // 2)
                         + [sweep.ZOOM] * (rounds % 2))
        monkeypatch.undo()
        out = capsys.readouterr().out
        params, _ = parse_config(BASELINE_CFG)
        theta, r_star, scan = optimize_phase(params, 64)
        baseline = evaluate_point(apply_axis(params, "delta_theta", 0.0))
        assert scan[0] == baseline.r_min
        assert out.splitlines()[:3] == [
            f"delta_theta_star_rad = {fmt(theta)}",
            f"r_min_star = {fmt(r_star)}",
            f"r_min_at_zero_phase = {fmt(baseline.r_min)}"]

    def test_resolution_below_floor_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG)
        assert main(["phase-opt", "--config", cfg, "--resolution", "4"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: resolution must be >= 8, got 4\n"

    @pytest.mark.parametrize("resolution", [2**62, 10**30, "memory"])
    def test_an_unallocatable_scan_is_an_error(self, tmp_path, capsys,
                                               monkeypatch, resolution):
        # numpy rejects 2**62 and 10**30 phases before it allocates
        # anything; a scan that runs out of memory is simulated, never run
        if resolution == "memory":
            def no_memory(params, phases):
                raise MemoryError("Unable to allocate the scan")

            monkeypatch.setattr(sweep, "_phase_table", no_memory)
            resolution = 64
        cfg = write_cfg(tmp_path, BASELINE_CFG)
        assert main(["phase-opt", "--config", cfg, "--resolution",
                     str(resolution)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: cannot allocate the scan of {resolution} phases: ")
        assert captured.err.count("\n") == 1

    def test_all_unstable_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG.replace("g_mb_hz = 0.28",
                                                       "g_mb_hz = 20"))
        assert main(["phase-opt", "--config", cfg, "--resolution", "8"]) == 1
        assert "no stable operating point" in capsys.readouterr().err

    def test_stable_but_errored_exit_one_with_the_error(self, tmp_path,
                                                        capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG.replace("T_k = 10e-3",
                                                       "T_k = 1e300"))
        assert main(["phase-opt", "--config", cfg, "--resolution", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Lyapunov solution overflows "
                                "(residual nan)\n")


def test_the_runtime_is_numpy_only_and_exports_what_it_names():
    # the tests import scipy; importing the package must not
    env = dict(os.environ, PYTHONPATH=str(
        Path(cmmsim.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", "import sys, cmmsim; "
                    "assert 'scipy' not in sys.modules"], env=env, check=True)
    for name in cmmsim.__all__:
        getattr(cmmsim, name)
    for name in ("reduce_cm", "partial_transpose", "symplectic_form",
                 "check_physicality", "integrate_covariance",
                 "IntegrationError"):
        assert name not in cmmsim.__all__ and not hasattr(cmmsim, name)


class TestRepeatedMain:
    def test_calls_in_one_process_print_what_fresh_processes_print(
            self, capsys, monkeypatch):
        # main builds its parser once and reuses it: a run of commands in
        # one process, failures and usage errors among them, prints each
        # command's bytes as a fresh process does, help included
        monkeypatch.setenv("COLUMNS", "80")  # argparse's wrapping width
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(
            Path(cmmsim.__file__).resolve().parents[1]))
        cfg = str(CONFIG_DIR / "baseline.cfg")
        runs = [(["phase-opt", "--config", cfg], 0),
                (["phase-opt", "--config", cfg, "--bogus"], 2),
                (["phase-opt", "--config", cfg, "--resolution", "4"], 2),
                (["steady", "--config", cfg], 0),
                (["phase-opt", "--config", cfg], 0),
                (["--help"], 0)]
        errs = []
        for argv, code in runs:
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse's exits
                rc = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "cmmsim.cli", *argv],
                capture_output=True, env=env, check=False)
            assert rc == fresh.returncode == code
            assert captured.out.encode() == fresh.stdout
            assert captured.err.encode() == fresh.stderr
            errs.append(captured.err)
        assert errs[1].endswith(
            "cmmsim: error: unrecognized arguments: --bogus\n")
        assert errs[2] == "config error: resolution must be >= 8, got 4\n"
