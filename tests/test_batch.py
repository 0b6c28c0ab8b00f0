"""Batched evaluator: agreement with the former scalar formulas within a
stated tolerance, bit-for-bit agreement with single points, the batched
21-unknown Lyapunov solve, the eigenvalues-only stability stage, and
robustness to extreme inputs."""

import cmath
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cmmsim import (NoSteadyStateError, NumericalError, ParamBatch,
                    ParameterError, PhysicalParams, SweepAxis, SweepSpec,
                    apply_axis, baseline_params, build_diffusion, build_drift,
                    evaluate_batch, evaluate_point, run_sweep,
                    solve_lyapunov, solve_steady_state, validate)
from cmmsim import dynamics, sweep
from cmmsim.cli import main as cli_main
from cmmsim.dynamics import LYAPUNOV_RESIDUAL_TOL
from cmmsim.entanglement import MEASURES
from cmmsim.meanfield import MeanFieldState, solve_effective_batch
from cmmsim.params import BOLTZMANN, HBAR

FIELDS = tuple(f.name for f in dataclasses.fields(PhysicalParams))


def stack(points):
    return ParamBatch.from_base(points[0], len(points), **{
        name: [getattr(p, name) for p in points] for name in FIELDS})


def same_row(a, b):
    """Equal bit for bit, NaN included (repr keeps the sign of zero)."""
    return repr(dataclasses.astuple(a)) == repr(dataclasses.astuple(b))


def random_points(n, seed):
    rng = np.random.default_rng(seed)
    base = baseline_params()
    return [base.replace(
        delta_a=rng.uniform(-2.5, 2.5) * base.omega_b,
        delta_m_tilde_target=rng.uniform(-1.5, 1.5) * base.omega_b,
        theta_a=rng.uniform(-7.0, 7.0),
        theta_m=rng.choice([0.0, rng.uniform(-3.0, 3.0)]),
        P_a=rng.choice([0.0, 10.0 ** rng.uniform(-4.0, 0.0)]),
        P_m=rng.choice([0.0, 10.0 ** rng.uniform(-2.0, 0.3)]),
        g_ma=base.g_ma * 10.0 ** rng.uniform(-1.0, 1.0),
        T=rng.choice([0.0, rng.uniform(1e-3, 0.3)]))
        for _ in range(n)]


# The former per-point formulas, an independent oracle for the batch
# functions: the mean field in Python complex arithmetic (cmath), the
# literal drift matrix and occupations from math.expm1.  The batch takes
# numpy's complex products and quotients and its exp, log and expm1
# ufuncs, which round differently in the last bits.  Over the 500 points
# of these tests the worst relative deviation seen was 1.1e-15 (q_s; the
# drift 4.0e-16, the diffusion 2.3e-16), so REFERENCE_RTOL = 1e-13 leaves
# a margin of about 90.
REFERENCE_RTOL = 1e-13


def reference_state(p):
    """Effective-mode fixed point of ``p``, or None at a pole."""
    eps_a, eps_m = p.drive_amplitudes()
    dt = p.delta_m_tilde_target
    if eps_a == 0.0 and eps_m == 0.0:
        return MeanFieldState(0j, 0j, 0.0, 0.0, dt, dt)
    c_a = 1j * p.delta_a + p.kappa_a
    num = (-1j * p.g_ma * eps_a * cmath.exp(-1j * p.theta_a)
           + c_a * eps_m * cmath.exp(-1j * p.theta_m))
    den = (1j * dt + p.kappa_m) * c_a + p.g_ma ** 2
    if abs(den) < 1e-12 * max(abs(dt * p.delta_a), p.kappa_m * p.kappa_a,
                              p.g_ma ** 2):
        return None
    m_s = num / den
    q_s = -p.g_mb * abs(m_s) ** 2 / p.omega_b
    alpha_s = (eps_a * cmath.exp(-1j * p.theta_a) - 1j * p.g_ma * m_s) / c_a
    return MeanFieldState(alpha_s, m_s, q_s, 0.0, dt - p.g_mb * q_s, dt)


def reference_drift(p, state):
    ka, km, gb = p.kappa_a, p.kappa_m, p.gamma_b
    da, dm, g, wb = p.delta_a, state.delta_m_tilde, p.g_ma, p.omega_b
    cm = math.sqrt(2.0) * p.g_mb
    mr, mi = state.m_s.real, state.m_s.imag
    return np.array([
        [-ka,  da,   0.0,  g,    0.0,      0.0],
        [-da, -ka,  -g,    0.0,  0.0,      0.0],
        [0.0,  g,   -km,   dm,   cm * mi,  0.0],
        [-g,   0.0, -dm,  -km,  -cm * mr,  0.0],
        [0.0,  0.0,  0.0,  0.0,  0.0,      wb],
        [0.0,  0.0, -cm * mr, -cm * mi, -wb, -gb],
    ])


def reference_occupation(omega, T):
    if T == 0.0:
        return 0.0
    x = HBAR * omega / (BOLTZMANN * T)
    return 0.0 if x > 700.0 else 1.0 / math.expm1(x)


def reference_diffusion(p):
    n_a = reference_occupation(p.omega_a, p.T)
    n_m = reference_occupation(p.delta_m_tilde_target + p.drive_frequency, p.T)
    n_b = reference_occupation(p.omega_b, p.T)
    return np.array([p.kappa_a * (2.0 * n_a + 1.0)] * 2
                    + [p.kappa_m * (2.0 * n_m + 1.0)] * 2
                    + [0.0, p.gamma_b * (2.0 * n_b + 1.0)])


def relative_deviation(got, want, scale=None):
    """max |got - want| relative to max |want| (or to ``scale``); absolute
    where that is zero, as at the undriven points."""
    scale = np.abs(want).max() if scale is None else scale
    deviation = float(np.abs(np.asarray(got) - want).max())
    return deviation / scale if scale else deviation


class TestScalarReference:
    def test_mean_field_matches_scalar_reference(self):
        points = random_points(400, seed=11)
        with np.errstate(all="ignore"):
            mf = solve_effective_batch(stack(points))
        for k, p in enumerate(points):
            want = reference_state(p)
            assert mf.singular[k] == (want is None)
            if want is None:
                with pytest.raises(NoSteadyStateError):
                    solve_steady_state(p)
                continue
            got = mf.state(k)
            assert solve_steady_state(p) == got
            worst = max(
                relative_deviation(got.alpha_s, want.alpha_s),
                relative_deviation(got.m_s, want.m_s),
                relative_deviation(mf.abs_ms_sq[k], abs(want.m_s) ** 2),
                relative_deviation(got.q_s, want.q_s),
                relative_deviation(got.delta_m, want.delta_m, scale=max(
                    abs(want.delta_m_tilde), abs(p.g_mb * want.q_s))))
            assert worst <= REFERENCE_RTOL

    def test_linear_model_matches_scalar_reference(self):
        points = random_points(100, seed=12)
        batch = stack(points)
        with np.errstate(all="ignore"):
            mf = solve_effective_batch(batch)
            d = dynamics.diffusion_batch(batch)
        a = dynamics.drift_batch(batch, mf)
        for k, p in enumerate(points):
            if mf.singular[k]:
                continue
            assert relative_deviation(
                a[k], reference_drift(p, reference_state(p))) <= REFERENCE_RTOL
            assert relative_deviation(
                d[k], reference_diffusion(p)) <= REFERENCE_RTOL
            # the scalar builders are views of the batch functions
            assert np.array_equal(a[k], build_drift(p, mf.state(k)))
            assert np.array_equal(np.diag(d[k]), build_diffusion(p))


def grid_batch(p_m):
    """A 21 x 21 detuning x phase grid, and its drifts and diffusions."""
    base = baseline_params(P_m=p_m)
    das, ths = np.meshgrid(np.linspace(-2.0, 2.0, 21),
                           np.linspace(0.0, 2.0 * math.pi, 21), indexing="ij")
    batch = ParamBatch.from_base(base, das.size,
                                 delta_a=das.ravel() * base.omega_b,
                                 theta_a=base.theta_m + ths.ravel())
    with np.errstate(all="ignore"):
        mf = solve_effective_batch(batch)
        d = dynamics.diffusion_batch(batch)
    return batch, dynamics.drift_batch(batch, mf), d


def grid_systems(p_m):
    """Drift and diffusion matrix of every stable point of the 21 x 21
    grid."""
    batch, a, d = grid_batch(p_m)
    margin = np.linalg.eigvals(a).real.max(axis=1)
    stable = margin < -dynamics.STABILITY_EPS * batch.omega_b
    return a[stable], d[stable, :, None] * np.eye(6)


def grid_sweep(p_m):
    """The 21 x 21 grid of :func:`grid_batch` as a sweep."""
    return run_sweep(SweepSpec(base=baseline_params(P_m=p_m), axes=(
        SweepAxis("delta_a", -2.0, 2.0, 21),
        SweepAxis("delta_theta", 0.0, 2.0 * math.pi, 21))))


class TestBatchedLyapunov:
    @pytest.mark.parametrize("p_m", [0.9, 1.2])
    def test_matches_scipy_on_every_stable_point(self, p_m):
        a, d = grid_systems(p_m)
        assert a.shape[0] > 0
        v, errors = dynamics.steady_covariances(a, d)
        # every stable point passes the residual gate
        assert errors == {}
        assert np.all(dynamics.lyapunov_residual(a, v, d)
                      <= LYAPUNOV_RESIDUAL_TOL)
        for k in range(a.shape[0]):
            ref = scipy.linalg.solve_continuous_lyapunov(a[k], -d[k])
            assert np.array_equal(v[k], v[k].T)
            rel = np.linalg.norm(v[k] - ref) / np.linalg.norm(ref)
            assert rel <= LYAPUNOV_RESIDUAL_TOL

    @pytest.mark.bits
    def test_a_stack_equals_its_stacks_of_one_bit_for_bit(self):
        a, d = (np.concatenate(m) for m in zip(grid_systems(0.9),
                                               grid_systems(1.2)))
        v, errors = dynamics.steady_covariances(a, d)
        assert errors == {}
        for k in range(a.shape[0]):
            alone, _ = dynamics.steady_covariances(a[k:k + 1], d[k:k + 1])
            assert np.array_equal(v[k], alone[0])
            assert np.array_equal(v[k], solve_lyapunov(a[k], d[k]))

    def test_jordan_block_drift_is_solved(self):
        # a 6x6 Jordan block: one eigenvalue, no eigenbasis
        a = -np.eye(6) + np.eye(6, k=1)
        d = np.diag([1.0, 1.0, 2.0, 2.0, 0.0, 3.0])
        v, errors = dynamics.steady_covariances(a[None], d[None])
        assert errors == {}
        assert np.array_equal(v[0], solve_lyapunov(a, d))
        res = np.linalg.norm(a @ v[0] + v[0] @ a.T + d)
        assert res <= LYAPUNOV_RESIDUAL_TOL * np.linalg.norm(d)
        ref = scipy.linalg.solve_continuous_lyapunov(a, -d)
        assert np.linalg.norm(v[0] - ref) <= (LYAPUNOV_RESIDUAL_TOL
                                              * np.linalg.norm(ref))


    def test_a_singular_operator_is_confined_to_its_entry(self):
        # a zero drift's operator is zero: its entry is NaN and an error
        # that names the singular operator, not an overflow, and the other
        # entry keeps its bits
        a = np.stack([-np.eye(6) + np.eye(6, k=1), np.zeros((6, 6))])
        d = np.stack([np.eye(6)] * 2)
        v, errors = dynamics.steady_covariances(a, d)
        assert errors == {1: "singular Lyapunov operator"}
        assert np.isnan(v[1]).all()
        alone, _ = dynamics.steady_covariances(a[:1], d[:1])
        assert np.array_equal(v[0], alone[0])


class TestEigenvaluesOnly:
    @pytest.mark.parametrize("p_m", [0.9, 1.2])
    def test_a_sweep_calls_eigvals_once_per_block(self, p_m, monkeypatch):
        want = table_columns(grid_sweep(p_m))
        _, a, _ = grid_batch(p_m)
        seen = {name: [] for name in ("eigvals", "eig", "slogdet", "inv")}
        for name in seen:
            def spy(m, func=getattr(np.linalg, name), name=name):
                seen[name].append(m.copy())
                return func(m)
            monkeypatch.setattr(np.linalg, name, spy)
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 64)  # blocks of 64 points
        # one worker: the spies see only this process's calls
        monkeypatch.setattr(sweep, "_cpus", lambda: 1)
        rows = grid_sweep(p_m)
        monkeypatch.undo()
        # every block's drifts are finite: one eigvals of the whole block
        assert [m.shape[0] for m in seen["eigvals"]] == [64] * 6 + [57]
        assert np.array_equal(np.concatenate(seen["eigvals"]), a)
        assert seen["eig"] == seen["slogdet"] == seen["inv"] == []
        assert table_columns(rows) == want
        assert {r.status for r in rows} == {"ok", "unstable"}
        base = baseline_params(P_m=p_m)
        for row in rows:
            alone = evaluate_point(base.replace(
                delta_a=row.axis1 * base.omega_b,
                theta_a=base.theta_m + row.axis2))
            alone.axis1, alone.axis2 = row.axis1, row.axis2
            assert same_row(row, alone)


def chunk_calls(k):
    """The linear-algebra calls of one chunk of k stable points, in order,
    each with the shape of its stack: the Lyapunov solve of the k points,
    a Cholesky factor and a symmetric eigenproblem for the 3k pair blocks,
    then the Cholesky factors of the k covariances (which give all 3k
    splits') and a symmetric eigenproblem for the 3k splits."""
    return [("solve", (k, 21, 21)), ("cholesky", (3 * k, 4, 4)),
            ("eigvalsh", (3 * k, 4, 4)), ("cholesky", (k, 6, 6)),
            ("eigvalsh", (3 * k, 6, 6))]


class TestLinearAlgebraCalls:
    """The fixed cost of a batch rests on its numpy.linalg calls: one
    eigvals of the batch's drifts, and per chunk of stable points one
    solve, two cholesky and two eigvalsh, all stacked; no eigenvectors,
    determinants, inverses or Lyapunov solver of another kind."""

    SPIED = ("eigvals", "solve", "cholesky", "eigvalsh",
             "eig", "eigh", "slogdet", "det", "inv")

    def calls(self, monkeypatch, p):
        seen = []
        for name in self.SPIED:
            def spy(m, *args, func=getattr(np.linalg, name), name=name,
                    **kwargs):
                seen.append((name, m.shape))
                return func(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        for module, name in ((dynamics, "solve_lyapunov"),
                             (scipy.linalg, "solve_continuous_lyapunov")):
            def refuse(*args, name=name, **kwargs):
                seen.append((name, None))
                raise AssertionError(f"{name} called")
            monkeypatch.setattr(module, name, refuse)
        table = evaluate_batch(p).table
        monkeypatch.undo()
        return seen, table

    @pytest.mark.parametrize("n", [1, 16])
    def test_small_batches(self, base, n, monkeypatch):
        p = ParamBatch.from_base(base, n, theta_a=base.theta_m + np.linspace(
            0.0, 2.0 * math.pi, n, endpoint=False))
        seen, table = self.calls(monkeypatch, p)
        assert table.stable.all() and table.errors == {}
        assert seen == [("eigvals", (n, 6, 6))] + chunk_calls(n)

    @pytest.mark.parametrize("p_m", [0.9, 1.2])
    def test_a_grid_block(self, p_m, monkeypatch):
        p = grid_batch(p_m)[0]
        assert len(p) <= sweep.BLOCK * sweep.CHUNK
        seen, table = self.calls(monkeypatch, p)
        assert table.errors == {}
        stable = int(table.stable.sum())
        assert 0 < stable < len(p)
        want = [("eigvals", (len(p), 6, 6))]
        for start in range(0, stable, sweep.CHUNK):
            want += chunk_calls(min(sweep.CHUNK, stable - start))
        assert seen == want


#: the status of the baseline point at temperatures where its covariance
#: overflows (1e300 K) or its occupations do (1e305 K)
HOT_STATUS = {1e300: "error: Lyapunov solution overflows (residual nan)",
              1e305: "error: non-finite drift or diffusion matrix"}


class TestRobustness:
    @pytest.mark.parametrize("override", [
        dict(P_m=1e300), dict(T=1e300), dict(kappa_a=1e300),
        dict(omega_b=1e-300), dict(g_mb=1e300),
        dict(delta_m_tilde_target=-1e12), dict(T=1e305)])
    def test_extreme_points_become_error_rows(self, base, override):
        row = evaluate_point(base.replace(**override))
        assert row.status.startswith("error: ")
        assert math.isnan(row.r_min)
        if "T" in override:
            assert row.status == HOT_STATUS[override["T"]]

    @pytest.mark.parametrize("T", [1e154, 1e200, 1e250])
    def test_hot_points_are_separable_not_errors(self, base, T):
        # the covariance entries are about ten times T; unscaled, K^T K
        # of the spectra would overflow from about 1e154 K
        row = evaluate_point(base.replace(T=T))
        assert row.status == "ok"
        assert all(getattr(row, name) == 0.0 for name in MEASURES)

    def test_a_stage_that_raises_becomes_error_rows(self, base, tmp_path,
                                                    monkeypatch):
        # a failure no stage turns into a status: the batch is evaluated
        # point by point, and each point that still raises is an error row
        def refuse(m):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        points = [base.replace(delta_a=x * base.omega_b)
                  for x in (-1.5, -1.35, -1.2)]
        result = evaluate_batch(stack(points))
        assert [result.table.status(k) for k in range(3)] == [
            "error: forced"] * 3
        assert not result.table.stable.any()
        assert np.isnan(result.table.values).all()
        assert np.isnan(result.covariances).all()
        cfg = tmp_path / "t.cfg"
        cfg.write_text((Path(__file__).parent.parent / "configs"
                        / "baseline.cfg").read_text(encoding="utf-8")
                       + "sweep.delta_a = -1.5:-1.2:3\n", encoding="utf-8")
        out = tmp_path / "t.csv"
        assert cli_main(["sweep", "--config", str(cfg),
                         "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [f"{x},nan,false" + ",nan" * 13
                             for x in ("-1.5", "-1.35", "-1.2")]

    def test_an_empty_batch_is_an_empty_table(self, base):
        result = evaluate_batch(ParamBatch.from_base(base, 0))
        assert len(result.table) == 0 and list(result.table) == []
        assert result.table.values.shape == (0, len(sweep.FLOAT_FIELDS))
        assert result.table.errors == {}
        assert result.covariances.shape == (0, 6, 6)

    def test_bad_points_do_not_disturb_their_chunk(self, base):
        # good (10 mK) and overflowing (1e300 K) points alternate in a chunk
        axes = (SweepAxis("delta_a", -1.6, -1.1, 6),
                SweepAxis("T", 0.01, 1e300, 2))
        rows = run_sweep(SweepSpec(base=base, axes=axes))
        alone = run_sweep(SweepSpec(base=base, axes=(axes[0],)))
        for k, row in enumerate(rows):
            if row.axis2 == 0.01:
                good = alone[k // 2]
                good.axis2 = row.axis2
                assert same_row(row, good)
            else:
                assert row.status.startswith("error: ")
        assert sum(r.status == "ok" for r in rows) == 6

    def test_non_positive_definite_covariance_becomes_one_error_row(
            self, base, monkeypatch):
        points = [base.replace(delta_a=x * base.omega_b)
                  for x in (-1.5, -1.35, -1.2)]
        want = evaluate_batch(stack(points)).table
        solve = dynamics.steady_covariances

        def corrupt_second(*args):
            v, errors = solve(*args)
            v[1, 4, 4] = -v[1, 4, 4]  # still symmetric, no longer definite
            return v, errors

        monkeypatch.setattr(dynamics, "steady_covariances", corrupt_second)
        got = evaluate_batch(stack(points)).table
        assert got[1].status == "error: matrix is not positive definite"
        assert math.isnan(got[1].r_min)
        # a stable point whose entanglement stage fails stays stable
        assert want[1].stable and got[1].stable
        assert repr(got[1].margin) == repr(want[1].margin)
        assert same_row(got[0], want[0]) and same_row(got[2], want[2])

    @pytest.mark.bits
    def test_a_batch_of_every_failure_keeps_each_row_and_the_error_order(
            self, base, monkeypatch):
        # the 50 mK point's covariance is made indefinite wherever it is
        # solved, keyed by its diffusion, so its entanglement stage fails
        # in any batch
        warm = base.replace(T=0.05)
        marker = build_diffusion(warm)[5, 5]
        solve = dynamics.steady_covariances

        def corrupt_warm(a, d):
            v, errors = solve(a, d)
            v[d[:, 5, 5] == marker, 4, 4] *= -1.0
            return v, errors

        monkeypatch.setattr(dynamics, "steady_covariances", corrupt_warm)
        points = [
            base,
            base.replace(T=math.nan),
            base.replace(P_m=1e300),
            base.replace(kappa_a=1e-9, kappa_m=1e-9, delta_a=base.g_ma,
                         delta_m_tilde_target=base.g_ma),
            base.replace(T=1e305),
            base.replace(T=1e300),
            warm,
            base.replace(kappa_a=-1.0),
            base.replace(P_m=1.0, delta_a=base.omega_b),
            base.replace(delta_m_tilde_target=-1e12),
        ]
        result = evaluate_batch(stack(points))
        # parameter violations rule by rule, then the mean field's three
        # messages kind by kind, then Lyapunov and entanglement failures
        assert list(result.table.errors.items()) == [
            (7, "error: kappa_a must be > 0, got -1.0"),
            (1, "error: T must be >= 0, got nan; T must be finite, got nan"),
            (9, "error: derived magnon frequency delta_m_tilde_target + "
                "omega_a - delta_a must be > 0, got -937083323926.5573"),
            (3, "error: magnon linear response is singular at the "
                "requested detunings"),
            (2, "error: non-finite mean-field state"),
            (4, "error: non-finite drift or diffusion matrix"),
            (5, "error: Lyapunov solution overflows (residual nan)"),
            (6, "error: matrix is not positive definite")]
        assert [result.table.status(k) for k in (0, 8)] == ["ok", "unstable"]
        for k, point in enumerate(points):
            alone = evaluate_batch(stack([point]))
            assert same_row(result.table[k], alone.table[0])
            assert (result.covariances[k].tobytes()
                    == alone.covariances[0].tobytes())

    def test_sweep_with_overflowing_temperatures_writes_csv(self, tmp_path):
        text = (Path(__file__).parent.parent / "configs"
                / "baseline.cfg").read_text(encoding="utf-8")
        outputs = []
        for axis in ("0.01:1e300:3", "0.01:0.01:1"):
            cfg = tmp_path / "t.cfg"
            cfg.write_text(text + f"sweep.T = {axis}\n", encoding="utf-8")
            out = tmp_path / "t.csv"
            assert cli_main(["sweep", "--config", str(cfg),
                             "--out", str(out)]) == 0
            outputs.append(out.read_text(encoding="utf-8").splitlines())
        assert len(outputs[0]) == 4
        assert outputs[0][1] == outputs[1][1]


#: at P_m = 1.0 W the positive detunings are unstable, and T = 5e299 and
#: 1e300 K make the Lyapunov solve of the stable points overflow
OVERFLOW_AXES = (SweepAxis("delta_a", -2.0, 2.0, 9),
                 SweepAxis("T", 0.01, 1e300, 3))


def table_columns(table):
    """Every column and status, bit for bit (repr keeps the sign of zero)."""
    return repr((table.axis1.tolist(), table.axis2.tolist(),
                 table.stable.tolist(), table.values.tolist(),
                 sorted(table.errors.items())))


class TestSweepTable:
    def test_columns_equal_single_point_rows(self, base):
        params = base.replace(P_m=1.0)
        table = run_sweep(SweepSpec(base=params, axes=OVERFLOW_AXES))
        assert len(table) == 27
        for k, row in enumerate(table):
            want = evaluate_point(apply_axis(
                apply_axis(params, "delta_a", float(table.axis1[k])),
                "T", float(table.axis2[k])))
            assert repr((bool(table.stable[k]), table.values[k].tolist(),
                         table.status(k))) == repr((want.stable, [
                getattr(want, name) for name in sweep.FLOAT_FIELDS],
                want.status))
            want.axis1, want.axis2 = row.axis1, row.axis2
            assert same_row(row, want) and same_row(table[k - 27], want)
        statuses = [table.status(k) for k in range(27)]
        assert {s.split(":")[0] for s in statuses} == {"ok", "unstable",
                                                      "error"}
        assert all(table.stable[k] for k in table.errors)
        # the stable points at T = 5e299 and 1e300 K overflow
        assert sorted(table.axis2[k] for k in table.errors) == (
            [5e299] * 5 + [1e300] * 5)
        assert set(table.errors.values()) == {
            "error: Lyapunov solution overflows (residual nan)"}
        with pytest.raises(IndexError):
            table[27]

    def test_blocks_and_the_per_point_fallback_join_alike(self, base,
                                                          monkeypatch):
        spec = SweepSpec(base=base.replace(P_m=1.0), axes=OVERFLOW_AXES)
        want = table_columns(run_sweep(spec))
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 4)  # blocks of four points
        eigvals = np.linalg.eigvals

        def refuse_stacks(m):
            if len(m) > 1:
                raise np.linalg.LinAlgError("forced")
            return eigvals(m)

        # one worker, and two writing into the grid's one table
        for cpus in (1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(sweep, "_cpus", lambda cpus=cpus: cpus)
                assert table_columns(run_sweep(spec)) == want
                # every block of more than one point is evaluated point by
                # point, into the block's rows
                patch.setattr(np.linalg, "eigvals", refuse_stacks)
                assert table_columns(run_sweep(spec)) == want


EXTREMES = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, -1e300, math.inf, -math.inf,
                     math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def parameter_points(draw):
    """Mostly physical points around the baseline, with up to two fields
    replaced by arbitrary or extreme floats, so that the whole domain of
    ``validate`` is reached."""
    base = baseline_params()
    values = {}
    for name in FIELDS:
        v = getattr(base, name)
        values[name] = (v * 10.0 ** draw(st.floats(-1.0, 1.0)) if v
                        else draw(st.floats(-7.0, 7.0)))
    for name in draw(st.lists(st.sampled_from(FIELDS), max_size=2,
                              unique=True)):
        values[name] = draw(EXTREMES)
    return PhysicalParams(**values)


#: the public scalar functions that take a PhysicalParams
SCALAR_ENTRY_POINTS = (build_diffusion, solve_steady_state,
                       PhysicalParams.occupations,
                       PhysicalParams.drive_amplitudes)


@pytest.mark.bits
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(parameter_points(), min_size=1, max_size=4))
def test_batch_rows_equal_single_point_rows_and_never_raise(points):
    singles = [evaluate_point(p) for p in points]
    batch = evaluate_batch(stack(points)).table
    assert len(batch) == len(points)
    for p, got, want in zip(points, batch, singles):
        assert same_row(got, want)
        assert (want.status in ("ok", "unstable")
                or want.status.startswith("error: "))
        # the engine's gate, validate and the scalar entry points read
        # one rule list
        try:
            validate(p)
        except ParameterError as exc:
            assert want.status == f"error: {exc}"
            for build in SCALAR_ENTRY_POINTS:
                with pytest.raises(ParameterError) as err:
                    build(p)
                assert str(err.value) == str(exc)
        else:
            for build in SCALAR_ENTRY_POINTS:
                try:
                    build(p)
                except ParameterError as exc:
                    raise AssertionError(f"{build.__name__}: {exc}") from exc
                except NoSteadyStateError:
                    pass  # solve_steady_state at a pole of the magnon response
                except NumericalError as exc:
                    # solve_steady_state where the state overflows, with
                    # the engine's message
                    assert build is solve_steady_state
                    assert want.status == f"error: {exc}"
