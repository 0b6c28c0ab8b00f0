"""Sweep engine: grid order, determinism, sentinels, phase optimizer."""

import dataclasses
import errno
import math
import os
import re

import numpy as np
import pytest

from cmmsim import (TWO_PI, CmmError, NoStablePointError, NumericalError,
                    ParamBatch, ParameterError, SweepAxis, SweepSpec,
                    apply_axis, apply_pump_mode, baseline_params, cli,
                    evaluate_batch, evaluate_point, optimize_phase,
                    phase_window, run_sweep, sweep, validate)
from cmmsim.cli import write_sweep_csv
from cmmsim.entanglement import MEASURES

PHYSICS_FIELDS = ("stable", "margin", "r_min", "residual_a", "residual_m",
                  "residual_b", "en_am", "en_ab", "en_mb", "en_a_mb",
                  "en_m_ab", "en_b_am", "abs_ms_sq", "q_s")


def rows_equal(r1, r2, fields=PHYSICS_FIELDS):
    for f in fields:
        a, b = getattr(r1, f), getattr(r2, f)
        if isinstance(a, float) and math.isnan(a) and math.isnan(b):
            continue
        if a != b:
            return False
    return True


def evaluate_every_centre(params, resolution, r_min=None):
    """The phase optimizer with one zoom round a batch, each evaluating its
    centre again: the reference that optimize_phase matches bit for bit.
    The scan is phase 0, as the offset -theta0, then the half period from
    the window's theta0 to theta0 + pi.  ``r_min(phases)``, if given,
    stands in for the engine's values."""
    theta0 = float(phase_window(params).theta0)

    def best(offsets):
        if r_min is None:
            p = ParamBatch.from_base(
                params, len(offsets),
                theta_a=params.theta_m + (theta0 + offsets))
            values = evaluate_batch(p).table.column("r_min")
        else:
            values = np.asarray(r_min(theta0 + offsets), dtype=float)
        k = int(np.argmax(np.where(np.isnan(values), -np.inf, values)))
        return float(offsets[k]), float(values[k]), values.tolist()

    half = 2.0 * math.pi * np.arange(math.ceil(resolution / 2)) / resolution
    x, f, scan = best(np.concatenate(([-theta0], half, [math.pi])))
    # the centre first, so that it wins a tie
    steps = np.array([0, *range(-sweep.ZOOM, 0), *range(1, sweep.ZOOM + 1)])
    h = 2.0 * math.pi / resolution
    while h > 1e-6:
        xs = x + h * steps / sweep.ZOOM
        x, f, _ = best(xs[(xs >= 0.0) & (xs <= math.pi)])
        h /= sweep.ZOOM
    return (theta0 + x) % (2.0 * math.pi), f, scan


class TestEvaluatePoint:
    def test_undriven_system_is_trivial(self, base):
        row = evaluate_point(base.replace(P_a=0.0, P_m=0.0))
        assert row.stable
        assert row.r_min == 0.0
        assert row.abs_ms_sq == 0.0
        assert row.status == "ok"

    def test_undriven_system_has_exactly_zero_entanglement(self, base):
        row = evaluate_point(base.replace(P_a=0.0, P_m=0.0))
        assert [getattr(row, name) for name in MEASURES] == [0.0] * 10

    def test_entangled_operating_point(self, base):
        row = evaluate_point(base)
        assert row.stable
        assert row.r_min > 0.01
        assert row.status == "ok"

    def test_mirror_detuning_is_stable_but_unentangled(self, base):
        row = evaluate_point(base.replace(delta_a=-base.delta_a))
        assert row.stable
        assert row.r_min == 0.0

    def test_unstable_point_fills_sentinels(self, base):
        # a 20x stronger bare coupling drives the fixed point unstable
        row = evaluate_point(base.replace(g_mb=20.0 * base.g_mb))
        assert not row.stable
        assert row.status == "unstable"
        assert row.margin > 0.0
        for f in ("r_min", "residual_a", "en_am", "en_b_am"):
            assert math.isnan(getattr(row, f))
        # mean-field fields stay real
        assert not math.isnan(row.abs_ms_sq)

    def test_invalid_parameters_become_error_rows(self, base):
        for override, status in [
                (dict(kappa_a=-1.0), "error: kappa_a must be > 0, got -1.0"),
                (dict(T=-1.0), "error: T must be >= 0, got -1.0"),
                # a magnon bath frequency delta_m_tilde_target + omega_d <= 0
                (dict(delta_m_tilde_target=-1e12),
                 "error: derived magnon frequency delta_m_tilde_target "
                 "+ omega_a - delta_a must be > 0, got -937083323926.5573")]:
            row = evaluate_point(base.replace(**override))
            assert not row.stable
            assert row.status == status

    def test_pump_modes_zero_the_right_drive(self, base):
        assert apply_pump_mode(base, "magnon-only").P_a == 0.0
        assert apply_pump_mode(base, "cavity-only").P_m == 0.0
        assert apply_pump_mode(base, "both") is base
        with pytest.raises(ValueError) as err:
            apply_pump_mode(base, "sideways")
        assert str(err.value) == "unknown pump_mode 'sideways'"

    @pytest.mark.bits
    @pytest.mark.parametrize("changes", [
        {}, {"P_a": 0.0}, {"P_m": 0.0}, {"T": 0.1, "P_a": 0.3}])
    def test_rows_read_g_mb_and_the_powers_through_their_product(
            self, base, changes):
        # |m_s| scales with the drive amplitudes, the square roots of the
        # powers, so g_mb x 4 with both powers / 16 keeps G_mb = g_mb |m_s|;
        # every factor is a power of two, so no bit of the row moves but
        # those of |m_s|^2 and q_s = -g_mb |m_s|^2 / omega_b
        p = base.replace(**changes)
        row = evaluate_point(p)
        assert row.status == "ok"
        scaled = evaluate_point(p.replace(g_mb=4.0 * p.g_mb, P_a=p.P_a / 16.0,
                                          P_m=p.P_m / 16.0))
        want = dataclasses.replace(row, abs_ms_sq=row.abs_ms_sq / 16.0,
                                   q_s=row.q_s / 4.0)
        assert repr(dataclasses.astuple(scaled)) == repr(
            dataclasses.astuple(want))


class TestRunSweep:
    def test_single_axis_order(self, base):
        spec = SweepSpec(base=base, axes=(SweepAxis("delta_a", -1.5, -1.1, 3),))
        rows = run_sweep(spec)
        assert [r.axis1 for r in rows] == [-1.5, -1.3, -1.1]
        assert all(math.isnan(r.axis2) for r in rows)

    def test_two_axis_row_major(self, base):
        spec = SweepSpec(base=base, axes=(
            SweepAxis("delta_a", -1.4, -1.2, 2),
            SweepAxis("delta_theta", 0.0, 1.0, 3),
        ))
        rows = run_sweep(spec)
        assert [(r.axis1, r.axis2) for r in rows] == [
            (-1.4, 0.0), (-1.4, 0.5), (-1.4, 1.0),
            (-1.2, 0.0), (-1.2, 0.5), (-1.2, 1.0)]

    def test_phase_periodicity_across_rows(self, base):
        spec = SweepSpec(base=base,
                         axes=(SweepAxis("delta_theta", 0.0, 4.0 * math.pi, 81),))
        rows = run_sweep(spec)
        for k in range(40):
            r1, r2 = rows[k], rows[k + 40]
            assert abs(r1.r_min - r2.r_min) < 1e-10
            assert abs(r1.abs_ms_sq - r2.abs_ms_sq) <= 1e-10 * r1.abs_ms_sq

    @pytest.mark.bits
    def test_chunking_never_changes_bits(self, base, monkeypatch):
        # a whole block and a partial one, then a different chunking; at
        # P_m = 1.0 W about half of the axis is unstable, at 1.2 W nearly
        # all of it, so the stable points of several chunks share a slice
        n = sweep.BLOCK * sweep.CHUNK + 3
        all_fields = PHYSICS_FIELDS + ("axis1", "axis2", "status")
        for p_m in (1.0, 1.2):
            monkeypatch.undo()
            params = base.replace(P_m=p_m)
            spec = SweepSpec(base=params,
                             axes=(SweepAxis("delta_a", -2.0, 2.0, n),))
            rows = run_sweep(spec)
            assert len(rows) == n
            assert {r.status for r in rows} == {"ok", "unstable"}
            assert all(rows_equal(a, b, all_fields)
                       for a, b in zip(rows, run_sweep(spec)))
            monkeypatch.setattr(sweep, "CHUNK", 7)
            assert all(rows_equal(a, b, all_fields)
                       for a, b in zip(rows, run_sweep(spec)))
            for row in rows:
                alone = evaluate_point(apply_axis(params, "delta_a", row.axis1))
                assert rows_equal(row, alone, PHYSICS_FIELDS + ("status",))

    def test_each_axis_is_built_once(self, base, monkeypatch):
        # five blocks of a 7 x 5 grid and its axis columns share one build
        # of each axis's values
        monkeypatch.setattr(sweep, "CHUNK", 4)
        monkeypatch.setattr(sweep, "BLOCK", 2)
        monkeypatch.setattr(sweep, "_cpus", lambda: 1)
        built, values = [], SweepAxis.values

        def spy(ax):
            built.append(ax.name)
            return values(ax)

        monkeypatch.setattr(SweepAxis, "values", spy)
        table = run_sweep(SweepSpec(base=base, axes=(
            SweepAxis("delta_a", -2.0, 2.0, 7), SweepAxis("T", 0.01, 0.1, 5))))
        assert sorted(built) == ["T", "delta_a"]
        assert np.array_equal(table.axis1,
                              np.repeat(np.linspace(-2.0, 2.0, 7), 5))
        assert np.array_equal(table.axis2,
                              np.tile(np.linspace(0.01, 0.1, 5), 7))

    def test_worker_count_never_changes_bits(self, base, tmp_path,
                                             monkeypatch):
        # ok, unstable and error rows (T = 5e299 and 1e300 K overflow) in
        # five blocks of 14 points, so every worker has blocks with error
        # rows, which must land at their grid positions
        spec = SweepSpec(base=base.replace(P_m=1.0), axes=(
            SweepAxis("delta_a", -2.0, 2.0, 21),
            SweepAxis("T", 0.01, 1e300, 3)))
        monkeypatch.setattr(sweep, "CHUNK", 7)
        monkeypatch.setattr(sweep, "BLOCK", 2)
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(sweep, "_cpus", lambda w=workers: w)
            table = run_sweep(spec)
            path = tmp_path / f"{workers}.csv"
            write_sweep_csv(table, str(path))
            runs.append((table.stable.tolist(),
                         table.values.view(np.int64).tolist(),
                         table.errors, path.read_bytes()))
        # the sweep and its CSV in the same blocks: W - 1 forks a pass
        assert len(forks) == 2 * (0 + 1 + 2)
        assert {table.status(k).split(":")[0]
                for k in range(len(table))} == {"ok", "unstable", "error"}
        assert {float(table.axis2[k]) for k in table.errors} == {5e299, 1e300}
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_block_is_evaluated_once(self, base, tmp_path, monkeypatch,
                                           workers):
        # 20 blocks of 3 points; whichever process evaluates a block
        # appends its start to one file
        temps = np.linspace(0.01, 0.6, 60)
        spec = SweepSpec(base=base, axes=(SweepAxis("T", 0.01, 0.6, 60),))
        monkeypatch.setattr(sweep, "CHUNK", 3)
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "_cpus", lambda: 1)
        want = run_sweep(spec)
        path = tmp_path / "starts"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        evaluate = sweep._evaluate_into

        def spy(p, *rows):
            start = int(np.flatnonzero(temps == p.T[0])[0])
            os.write(fd, f"{start}\n".encode())
            return evaluate(p, *rows)

        monkeypatch.setattr(sweep, "_evaluate_into", spy)
        monkeypatch.setattr(sweep, "_cpus", lambda: workers)
        try:
            got = run_sweep(spec)
        finally:
            os.close(fd)
        starts = sorted(int(line) for line in path.read_text().split())
        assert starts == list(range(0, 60, 3))
        assert got.stable.tolist() == want.stable.tolist()
        assert got.values.tobytes() == want.values.tobytes()
        assert got.errors == want.errors

    def test_the_block_queue_has_no_capacity_limit(self, base, tmp_path,
                                                   monkeypatch):
        # more blocks than a pipe holds records, and more workers than this
        # host may have CPUs; each block is a cheap table whose margins are
        # its temperatures, and appends one byte to a file
        n = 20_000
        monkeypatch.setattr(sweep, "CHUNK", 1)
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "_cpus", lambda: 3)
        path = tmp_path / "claims"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def margins(p, values, stable):
            os.write(fd, b".")
            values[:], stable[:] = np.nan, False
            values[:, sweep.FLOAT_FIELDS.index("margin")] = p.T
            return {}, None

        monkeypatch.setattr(sweep, "_evaluate_into", margins)
        try:
            table = run_sweep(SweepSpec(base=base,
                                        axes=(SweepAxis("T", 0.0, 1.0, n),)))
        finally:
            os.close(fd)
        assert path.stat().st_size == n
        assert np.array_equal(table.column("margin"), table.axis1)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_no_descriptor_is_left_open(self, base, tmp_path, monkeypatch):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        spec = SweepSpec(base=base, axes=(SweepAxis("delta_a", -2.0, 2.0, 28),))
        monkeypatch.setattr(sweep, "CHUNK", 7)
        monkeypatch.setattr(sweep, "BLOCK", 1)  # four blocks in each pass
        path = str(tmp_path / "out.csv")
        before = open_fds()
        # one worker makes the same queue and scratch files as two
        for cpus in (1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(sweep, "_cpus", lambda cpus=cpus: cpus)
                table = run_sweep(spec)
                assert open_fds() == before
                write_sweep_csv(table, path)  # its queue and W scratch files
                assert open_fds() == before
                if cpus > 1:
                    # a child that fails, then this process failing; the
                    # exception's traceback keeps run_sweep's frame alive
                    child = sweep._child
                    patch.setattr(sweep, "_child", lambda work, w, write:
                                  child(lambda w: os._exit(3), w, write))
                    with pytest.raises(CmmError, match="^sweep worker 1 "
                                       "exited with status 3$") as failed:
                        run_sweep(spec)
                    assert open_fds() == before
                    with pytest.raises(CmmError, match="^CSV worker 1 "
                                       "exited with status 3$") as failed:
                        write_sweep_csv(table, path)
                    assert open_fds() == before
                    patch.setattr(sweep, "_child", child)
                patch.setattr(sweep, "_evaluate_into", lambda *args: 1 / 0)
                with pytest.raises(ZeroDivisionError) as failed:
                    run_sweep(spec)
                assert open_fds() == before
                patch.setattr(cli, "_csv_lines", lambda *columns: 1 / 0)
                with pytest.raises(ZeroDivisionError) as failed:
                    write_sweep_csv(table, path)
                assert open_fds() == before

                # no room for the queue, nor for the CSV's scratch files
                def no_space():
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

                patch.setattr(sweep.tempfile, "TemporaryFile", no_space)
                with pytest.raises(CmmError) as failed:
                    run_sweep(spec)
                assert str(failed.value) == (
                    "cannot queue the sweep's blocks: "
                    "[Errno 28] No space left on device")
                assert open_fds() == before
                with pytest.raises(CmmError) as failed:
                    write_sweep_csv(table, path)
                assert str(failed.value) == (
                    "cannot hold the CSV's blocks: "
                    "[Errno 28] No space left on device")
                assert open_fds() == before
                assert not os.path.exists(path)
                with pytest.raises(ChildProcessError):
                    os.waitpid(-1, os.WNOHANG)

    def test_pump_mode_equivalence(self, base):
        axes = (SweepAxis("delta_a", -1.5, -1.0, 4),)
        rows_cav = run_sweep(SweepSpec(base=base, axes=axes,
                                       pump_mode="cavity-only"))
        rows_zero = run_sweep(SweepSpec(base=base.replace(P_m=0.0), axes=axes,
                                        pump_mode="both"))
        assert all(rows_equal(a, b) for a, b in zip(rows_cav, rows_zero))

    def test_axis_validation(self, base):
        with pytest.raises(ValueError):
            SweepAxis("delta_a", 2.0, -2.0, 5)
        with pytest.raises(ValueError):
            SweepAxis("delta_a", 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            SweepAxis("bogus", 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            SweepSpec(base=base, axes=(SweepAxis("T", 0.0, 1.0, 2),
                                       SweepAxis("T", 0.0, 1.0, 2)))
        with pytest.raises(ValueError):
            SweepSpec(base=base, pump_mode="nonsense")

    @pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
    def test_axis_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError) as err:
            SweepAxis("T", 0.01, 0.1, count)
        assert str(err.value) == (f"axis T: count must be an integer, "
                                  f"got {count}")

    def test_any_integer_is_an_axis_count(self, base):
        # kept as a Python int, so that the grid's size does not wrap in a
        # small numpy integer type (200 points x 105 bytes > 255)
        for count in (True, np.int64(3), np.uint8(200)):
            axis = SweepAxis("T", 0.01, 0.1, count)
            assert type(axis.count) is int and axis.count == count
            table = run_sweep(SweepSpec(base=base, axes=(axis,)))
            assert np.array_equal(table.axis1, np.linspace(0.01, 0.1, count))

    @pytest.mark.parametrize("mode", sweep.PUMP_MODES)
    def test_a_grid_without_axes_is_its_base_point(self, base, mode):
        table = run_sweep(SweepSpec(base=base, pump_mode=mode))
        assert len(table) == 1
        assert math.isnan(table.axis1[0]) and math.isnan(table.axis2[0])
        # every field but the axes, bit for bit (repr spells -0.0)
        want = evaluate_point(apply_pump_mode(base, mode))
        assert repr(dataclasses.astuple(table[0])[2:]) == repr(
            dataclasses.astuple(want)[2:])

    @pytest.mark.parametrize("name, start, stop, got", [
        ("T", 0.0, math.inf, "0.0:inf"),
        ("delta_a", -math.inf, 0.0, "-inf:0.0"),
        ("delta_a", -1e308, 1e308, "-1e+308:1e+308"),  # the span overflows
        ("T", math.nan, 1.0, "nan:1.0")])
    def test_axis_bounds_must_be_finite(self, name, start, stop, got):
        with pytest.raises(ValueError) as err:
            SweepAxis(name, start, stop, 3)
        assert str(err.value) == (f"axis {name}: start, stop and stop - start "
                                  f"must be finite, got {got}")
        # checked without building the axis's values
        assert SweepAxis(name, -1.0, 1.0, 4_000_000_000).count == 4_000_000_000

    def test_axis_of_a_switched_off_pump_rejected(self, base):
        axis = SweepAxis("P_a", 0.001, 0.1, 3)
        with pytest.raises(ValueError, match="P_a.*'magnon-only'"):
            SweepSpec(base=base, axes=(axis,), pump_mode="magnon-only")
        # the cavity drive is on in these modes, so the axis is kept
        for mode in ("both", "cavity-only"):
            rows = run_sweep(SweepSpec(base=base, axes=(axis,),
                                       pump_mode=mode))
            assert len({r.abs_ms_sq for r in rows}) == 3

    def test_apply_axis_semantics(self, base):
        assert apply_axis(base, "delta_a", -1.2).delta_a == -1.2 * base.omega_b
        assert apply_axis(base, "delta_theta", 0.7).theta_a == base.theta_m + 0.7
        assert apply_axis(base, "T", 0.05).T == 0.05
        assert apply_axis(base, "P_a", 0.2).P_a == 0.2
        with pytest.raises(ValueError) as err:
            apply_axis(base, "bogus", 1.0)
        assert str(err.value) == "unknown sweep axis 'bogus'"


class TestOptimizePhase:
    def test_single_pump_is_flat(self, base):
        p = base.replace(P_a=0.0)
        theta, value, _ = optimize_phase(p, resolution=16)
        assert theta == 0.0
        assert value == evaluate_point(p).r_min

    def test_dominates_zero_phase_baseline(self, base):
        p = base.replace(P_a=0.45)
        theta, value, _ = optimize_phase(p, resolution=24)
        baseline = evaluate_point(apply_axis(p, "delta_theta", 0.0)).r_min
        assert value >= baseline
        assert 0.0 <= theta < 2.0 * math.pi + 1e-9

    def test_resolution_floor(self, base):
        with pytest.raises(ValueError):
            optimize_phase(base, resolution=4)

    def test_resolution_is_an_integer(self, base):
        with pytest.raises(ValueError, match=re.escape(
                "resolution must be an integer, got 8.5")):
            optimize_phase(base, 8.5)
        theta, value, scan = optimize_phase(base, np.int64(64))
        want = optimize_phase(base, 64)
        assert repr((theta, value, scan)) == repr(want)

    def test_all_unstable_raises(self, base):
        with pytest.raises(NoStablePointError):
            optimize_phase(base.replace(g_mb=50.0 * base.g_mb), resolution=8)

    def test_stable_but_errored_scan_raises_the_error(self, base):
        # at 1e300 K every phase is stable and its covariance overflows
        p = base.replace(T=1e300)
        assert evaluate_point(p).stable
        with pytest.raises(NumericalError) as err:
            optimize_phase(p, resolution=8)
        assert str(err.value) == "Lyapunov solution overflows (residual nan)"

    @pytest.mark.bits
    def test_reusing_the_centre_changes_no_bit(self, base, monkeypatch):
        # the rounds that share a batch, two at an end of the half period,
        # give the bits of one round a batch; resolution 9 ends the scan at
        # theta0 + pi after a half step, and 64 is the command's default
        batches = self.spy_on_batches(monkeypatch)
        rng = np.random.default_rng(20261019)
        points = [base.replace(P_a=0.0), base.replace(P_a=0.45),
                  base.replace(P_m=9e-5, g_mb=TWO_PI * 19.6)] + [
            base.replace(delta_a=rng.uniform(-1.6, -1.1) * base.omega_b,
                         P_a=math.exp(rng.uniform(math.log(1e-3),
                                                  math.log(0.5))),
                         T=rng.uniform(0.01, 0.1))
            for _ in range(6)]
        for resolution in (9, 16, 64):
            for p in points:
                want = evaluate_every_centre(p, resolution)
                batches.clear()
                got = optimize_phase(p, resolution)
                assert repr(got[:2]) == repr(want[:2])
                assert (np.array(got[2]).tobytes()
                        == np.array(want[2]).tobytes())
                assert max(map(len, batches[1:])) <= 2 * sweep.ZOOM

    @pytest.mark.parametrize("params", [
        {"kappa_a": -1.0}, {"T": math.nan}, {"P_a": -1.0},
        {"theta_m": math.inf}])
    def test_invalid_parameters_raise_their_violations(self, params):
        p = baseline_params(**params)
        with pytest.raises(ParameterError) as want:
            validate(p)
        with pytest.raises(ParameterError) as err:
            optimize_phase(p, 16)
        assert str(err.value) == str(want.value)

    @staticmethod
    def draws(seed, n):
        """Operating points drawn from the benchmark's phase_opt ranges."""
        rng = np.random.default_rng(seed)
        base = baseline_params()
        return [base.replace(delta_a=rng.uniform(-1.6, -1.1) * base.omega_b,
                             P_a=math.exp(rng.uniform(math.log(1e-3),
                                                      math.log(0.5))),
                             T=rng.uniform(0.01, 0.1))
                for _ in range(n)]

    @staticmethod
    def spy_on_batches(monkeypatch):
        """The phases of each batch that optimize_phase evaluates."""
        batches, phase_table = [], sweep._phase_table

        def spy(params, phases):
            batches.append(list(phases))
            return phase_table(params, phases)

        monkeypatch.setattr(sweep, "_phase_table", spy)
        return batches

    @classmethod
    def stub_r_min(cls, monkeypatch, r_min):
        """Make every phase stable with the value ``r_min(phases)`` and
        no engine call; return the spy on the batches."""
        def table(params, phases):
            values = np.full((len(phases), len(sweep.FLOAT_FIELDS)), np.nan)
            values[:, sweep.FLOAT_FIELDS.index("r_min")] = r_min(phases)
            return sweep.SweepTable(*np.full((2, len(phases)), np.nan),
                                    np.ones(len(phases), bool), values, {})

        monkeypatch.setattr(sweep, "_phase_table", table)
        return cls.spy_on_batches(monkeypatch)

    @staticmethod
    def rounds(resolution):
        """The zoom rounds from the scan's spacing down to 1e-6 rad."""
        n, h = 0, 2.0 * math.pi / resolution
        while h > 1e-6:
            n, h = n + 1, h / sweep.ZOOM
        return n

    @classmethod
    def end_batches(cls, resolution):
        """The zoom's batches while an end of the half period stays best:
        its rounds of ZOOM offsets, two to a batch of at most 2 * ZOOM."""
        n = cls.rounds(resolution)
        return [2 * sweep.ZOOM] * (n // 2) + [sweep.ZOOM] * (n % 2)

    @pytest.mark.parametrize("resolution", [64, 128])
    def test_no_phase_of_a_dense_scan_is_better(self, resolution):
        base = baseline_params()
        points = self.draws(20261027 + resolution, 12) + [
            base, base.replace(P_a=0.45),
            base.replace(P_m=9e-5, g_mb=TWO_PI * 14.0),
            base.replace(P_m=9e-5, g_mb=TWO_PI * 19.6)]
        for p in points:
            phases = (float(phase_window(p).theta0)
                      + np.linspace(0.0, math.pi, 2001))
            dense = evaluate_batch(ParamBatch.from_base(
                p, phases.size, theta_a=p.theta_m + phases)).table
            top = np.nanmax(dense.column("r_min"))
            theta, r_star, _ = optimize_phase(p, resolution)
            assert r_star >= top - 1e-12 * abs(top)
            assert evaluate_point(apply_axis(p, "delta_theta", theta)).stable

    def test_evaluates_one_round_a_batch(self, base, monkeypatch):
        # at 90 uW with 19.6 Hz the optimum lies inside the half period,
        # so each round is the 2 * ZOOM offsets around it
        batches = self.spy_on_batches(monkeypatch)
        optimize_phase(base.replace(P_m=9e-5, g_mb=TWO_PI * 19.6), 64)
        assert [len(b) for b in batches] == (
            [34] + [2 * sweep.ZOOM] * self.rounds(64))

    @pytest.mark.bits
    def test_a_peak_at_an_end_is_returned_exactly(self, base, monkeypatch):
        # stubs that, like every point, depend on the phase only through
        # cos(delta_theta - theta0): the peak is theta0 or theta0 + pi,
        # each round is the ZOOM offsets on the inner side, and two rounds
        # share a batch: 34, 20, 20, 10
        theta0 = float(phase_window(base).theta0)
        for sign, end in ((1.0, 0.0), (-1.0, math.pi)):
            batches = self.stub_r_min(
                monkeypatch, lambda phases: sign * np.cos(phases - theta0))
            theta, r_star, scan = optimize_phase(base, 64)
            assert repr(theta) == repr((theta0 + end) % (2.0 * math.pi))
            assert r_star == max(scan)
            assert [len(b) for b in batches] == [34] + self.end_batches(64)

    @pytest.mark.bits
    def test_a_round_that_moves_x_drops_the_rest_of_its_batch(
            self, base, monkeypatch):
        # a peak 0.05 rad inside theta0: the scan's best is theta0, so the
        # first zoom batch is two one-sided rounds; its first round moves
        # x to 0.049, and the second round, planned around theta0, is
        # dropped and planned again around 0.049, where every round is the
        # 2 * ZOOM offsets of an interior x, one a batch
        theta0 = float(phase_window(base).theta0)

        def peak(phases):
            return -(np.cos(phases - theta0) - math.cos(0.05)) ** 2

        batches = self.stub_r_min(monkeypatch, peak)
        theta, r_star, scan = optimize_phase(base, 64)
        assert scan.index(max(scan)) == 1  # theta0
        assert [len(b) for b in batches] == (
            [34] + [2 * sweep.ZOOM] * self.rounds(64))
        # the batch after the moving round is centred on theta0 + h/2
        assert np.mean(batches[2]) - theta0 == pytest.approx(math.pi / 64)
        want = evaluate_every_centre(base, 64, peak)
        assert repr((theta, r_star)) == repr(want[:2])
        assert scan == want[2]

    @pytest.mark.parametrize("peak", [0.05, 1.0, 2.5, math.pi - 0.05])
    def test_a_peak_inside_the_half_period_is_found(self, base, monkeypatch,
                                                    peak):
        theta0 = float(phase_window(base).theta0)
        self.stub_r_min(monkeypatch, lambda phases: -(
            np.cos(phases - theta0) - math.cos(peak)) ** 2)
        theta, _, _ = optimize_phase(base, 64)
        # theta0 + x* is reported, not its mirror theta0 - x*
        assert abs((theta - theta0) % (2.0 * math.pi) - peak) <= 1e-6

    def test_phase_zero_can_win_off_the_half_scan(self, base, monkeypatch):
        # r_min peaking at phase 0, which the half scan from theta0 does
        # not hold: the zoom around its offset -theta0 finds nothing
        # greater, so phase 0's own row is the result
        self.stub_r_min(monkeypatch, lambda phases: np.cos(phases))
        theta, r_star, scan = optimize_phase(base, 64)
        assert (theta, r_star) == (0.0, scan[0])

    @pytest.mark.bits
    def test_a_tie_does_not_move_the_centre(self, base, monkeypatch):
        # a plateau from theta0 + 2pi/3, unstable beyond theta0 + 2.5: the
        # scan's first plateau phase wins, and no later tie or NaN moves it
        theta0 = float(phase_window(base).theta0)

        def plateau(phases):
            x = phases - theta0
            return np.where(x > 2.5, np.nan, np.minimum(-np.cos(x), 0.5))

        batches = self.stub_r_min(monkeypatch, plateau)
        theta, r_star, scan = optimize_phase(base, 64)
        k = scan.index(0.5)
        assert repr(theta) == repr(float(batches[0][k]) % (2.0 * math.pi))
        assert r_star == 0.5

    def test_optimum_beats_the_scan_and_its_neighbours(self, base):
        rng = np.random.default_rng(20260418)
        for _ in range(12):
            p = base.replace(delta_a=rng.uniform(-1.6, -1.1) * base.omega_b,
                             P_a=math.exp(rng.uniform(math.log(1e-3),
                                                      math.log(0.5))),
                             T=rng.uniform(0.01, 0.1))
            theta, r_star, scan = optimize_phase(p, resolution=16)
            assert r_star >= max(v for v in scan if not math.isnan(v))
            for step in (-1e-4, 1e-4):
                r = evaluate_point(apply_axis(p, "delta_theta",
                                              theta + step)).r_min
                assert math.isnan(r) or r_star >= r


class TestRowSchema:
    def test_row_fields_cover_csv_schema(self):
        from cmmsim.sweep import SweepRow
        names = {f.name for f in dataclasses.fields(SweepRow)}
        expected = {"axis1", "axis2", "stable", "margin", "r_min",
                    "residual_a", "residual_m", "residual_b",
                    "en_am", "en_ab", "en_mb", "en_a_mb", "en_m_ab",
                    "en_b_am", "abs_ms_sq", "q_s", "status"}
        assert names == expected
