"""Config parsing, CSV output, subcommands, exit codes."""

import math

import pytest

from cmmsim import (ConfigError, SweepRow, TWO_PI, apply_axis, evaluate_point,
                    optimize_phase, sweep)
from cmmsim.cli import (CSV_HEADER, fmt, main, parse_config, write_sweep_csv)

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

    def test_invalid_values_rejected(self):
        bad = BASELINE_CFG.replace("kappa_a_hz = 1e6", "kappa_a_hz = -1e6")
        with pytest.raises(ConfigError, match="kappa_a"):
            parse_config(bad)

    def test_comment_and_blank_handling(self):
        params, _ = parse_config(BASELINE_CFG + "\n# trailing comment\n\n")
        assert params.P_m == 0.9


class TestFormatting:
    def test_nine_significant_digits(self):
        assert fmt(0.0173489916703) == "0.0173489917"
        assert fmt(130646618067369.51) == "1.30646618e+14"

    def test_nan_spelling(self):
        assert fmt(float("nan")) == "nan"

    def test_csv_rows_equal_per_value_formatting(self, tmp_path):
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300,
                    5e-324, 0.0173489916703, 130646618067369.51]
        rows = [SweepRow(specials[k % 10], specials[(k + 3) % 10], k % 2 == 0,
                         *[specials[(k + j) % 10] for j in range(13)])
                for k in range(20)]
        path = tmp_path / "rows.csv"
        write_sweep_csv(rows, str(path))
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

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "omega_a_hz = ??\n")
        assert main(["steady", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["steady", "--config", "/nonexistent/x.cfg"]) == 2


class TestSweepCommand:
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

    def test_lf_line_endings(self, tmp_path):
        cfg = write_cfg(tmp_path, BASELINE_CFG + "sweep.delta_a = -1.3:-1.3:1\n")
        out_path = tmp_path / "o.csv"
        main(["sweep", "--config", cfg, "--out", str(out_path)])
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


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
        assert main(["phase-opt", "--config", cfg, "--resolution", "16"]) == 0
        # the scan, then rounds of 2 * ZOOM + 1 phases; the zero-phase
        # baseline is the scan's first point, not evaluated again.  The
        # half-width 2pi/16 shrinks ZOOM-fold per round: 7 rounds to 1e-6
        assert sizes == [16] + [2 * sweep.ZOOM + 1] * 7
        monkeypatch.undo()
        out = capsys.readouterr().out
        params, _ = parse_config(BASELINE_CFG)
        theta, r_star, scan = optimize_phase(params, 16)
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

    def test_all_unstable_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE_CFG.replace("g_mb_hz = 0.28",
                                                       "g_mb_hz = 20"))
        assert main(["phase-opt", "--config", cfg, "--resolution", "8"]) == 1
        assert "no stable operating point" in capsys.readouterr().err
