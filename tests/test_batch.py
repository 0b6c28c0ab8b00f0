"""Batched evaluator: bit-for-bit agreement with the scalar reference code
and with single points, the modal Lyapunov solve and its Kronecker
fallback, and robustness to extreme inputs."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cmmsim import (NoSteadyStateError, ParamBatch, PhysicalParams,
                    SweepAxis, SweepSpec, apply_axis, baseline_params,
                    build_diffusion, build_drift, evaluate_batch,
                    evaluate_point, run_sweep, solve_lyapunov,
                    solve_steady_state)
from cmmsim import dynamics, sweep
from cmmsim.cli import main as cli_main
from cmmsim.dynamics import LYAPUNOV_RESIDUAL_TOL
from cmmsim.meanfield import solve_effective_batch

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


class TestScalarReference:
    def test_mean_field_matches_scalar_solver_bit_for_bit(self):
        points = random_points(400, seed=11)
        with np.errstate(all="ignore"):
            mf = solve_effective_batch(stack(points))
        for k, p in enumerate(points):
            try:
                want = solve_steady_state(p)
            except NoSteadyStateError:
                assert mf.singular[k]
                continue
            assert not mf.singular[k]
            assert mf.state(k) == want
            assert mf.abs_ms_sq[k] == abs(want.m_s) ** 2

    def test_linear_model_matches_scalar_builders(self):
        points = random_points(100, seed=12)
        batch = stack(points)
        with np.errstate(all="ignore"):
            mf = solve_effective_batch(batch)
        a = dynamics.drift_batch(batch, mf)
        d = dynamics.diffusion_batch(batch)
        for k, p in enumerate(points):
            if mf.singular[k]:
                continue
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
    return batch, dynamics.drift_batch(batch, mf), dynamics.diffusion_batch(batch)


def grid_systems(p_m):
    """Drift, diffusion and eigendecomposition of every stable point of
    the 21 x 21 grid."""
    batch, a, d = grid_batch(p_m)
    lam, s = np.linalg.eig(a)
    stable = lam.real.max(axis=1) < -dynamics.STABILITY_EPS * batch.omega_b
    return a[stable], d[stable], lam[stable], s[stable]


def grid_sweep(p_m):
    """The 21 x 21 grid of :func:`grid_batch` as a sweep."""
    return run_sweep(SweepSpec(base=baseline_params(P_m=p_m), axes=(
        SweepAxis("delta_a", -2.0, 2.0, 21),
        SweepAxis("delta_theta", 0.0, 2.0 * math.pi, 21))))


class TestModalLyapunov:
    @pytest.mark.parametrize("p_m", [0.9, 1.2])
    def test_matches_scipy_and_kronecker_on_every_stable_point(self, p_m):
        a, d, lam, s = grid_systems(p_m)
        assert a.shape[0] > 0
        v, residual = dynamics.modal_lyapunov(a, d, lam, s)
        # every point is served by the modal solve itself, not the fallback
        assert np.all(residual <= LYAPUNOV_RESIDUAL_TOL)
        for k in range(a.shape[0]):
            ref = scipy.linalg.solve_continuous_lyapunov(a[k], -np.diag(d[k]))
            kron = solve_lyapunov(a[k], np.diag(d[k]))
            assert np.array_equal(v[k], v[k].T)
            for want in (ref, kron):
                rel = np.linalg.norm(v[k] - want) / np.linalg.norm(want)
                assert rel <= LYAPUNOV_RESIDUAL_TOL

    def test_defective_drift_falls_back_to_kronecker(self, monkeypatch):
        # a 6x6 Jordan block: one eigenvalue, no eigenbasis
        a = -np.eye(6) + np.eye(6, k=1)
        d = np.array([1.0, 1.0, 2.0, 2.0, 0.0, 3.0])
        lam, s = np.linalg.eig(a[None])
        _, residual = dynamics.modal_lyapunov(a[None], d[None], lam, s)
        assert not residual[0] <= LYAPUNOV_RESIDUAL_TOL
        calls = []

        def spy(*args):
            calls.append(args)
            return solve_lyapunov(*args)

        monkeypatch.setattr(dynamics, "solve_lyapunov", spy)
        v, errors = dynamics.steady_covariances(a[None], d[None], lam, s)
        assert errors == {} and len(calls) == 1
        assert np.array_equal(v[0], solve_lyapunov(a, np.diag(d)))
        res = np.linalg.norm(a @ v[0] + v[0] @ a.T + np.diag(d))
        assert res <= LYAPUNOV_RESIDUAL_TOL * np.linalg.norm(d)


class TestDeterminantScreen:
    def test_only_drifts_with_positive_det_get_eigenvectors(
            self, monkeypatch):
        # at P_m = 1.2 W most of the grid is unstable
        _, a, _ = grid_batch(1.2)
        positive = np.linalg.slogdet(a)[0] > 0
        assert 0 < positive.sum() < positive.size
        seen = {"eig": [], "eigvals": []}
        for name in seen:
            def spy(m, func=getattr(np.linalg, name), name=name):
                seen[name].append(m.copy())
                return func(m)
            monkeypatch.setattr(np.linalg, name, spy)
        rows = grid_sweep(1.2)
        monkeypatch.undo()
        assert [m.shape for m in seen["eig"]] == [a[positive].shape]
        assert np.array_equal(seen["eig"][0], a[positive])
        assert [m.shape for m in seen["eigvals"]] == [a[~positive].shape]
        assert np.array_equal(seen["eigvals"][0], a[~positive])
        assert {r.status for r in rows} == {"ok", "unstable"}
        base = baseline_params(P_m=1.2)
        for row in rows:
            alone = evaluate_point(base.replace(
                delta_a=row.axis1 * base.omega_b,
                theta_a=base.theta_m + row.axis2))
            alone.axis1, alone.axis2 = row.axis1, row.axis2
            assert same_row(row, alone)

    @pytest.mark.parametrize("p_m", [0.9, 1.2])
    def test_a_rejected_stable_drift_is_solved_by_kronecker(
            self, p_m, monkeypatch):
        want = grid_sweep(p_m)
        monkeypatch.setattr(np.linalg, "slogdet",
                            lambda m: (np.zeros(len(m)), np.zeros(len(m))))
        calls = []

        def spy(*args):
            calls.append(args)
            return solve_lyapunov(*args)

        monkeypatch.setattr(dynamics, "solve_lyapunov", spy)
        got = grid_sweep(p_m)
        stable = [r for r in want if r.stable]
        assert stable and len(calls) == len(stable)
        for g, w in zip(got, want):
            assert g.status == w.status
            assert repr((g.stable, g.margin)) == repr((w.stable, w.margin))
            assert g.r_min == pytest.approx(w.r_min, rel=1e-9, nan_ok=True)


class TestRobustness:
    @pytest.mark.parametrize("override", [
        dict(P_m=1e300), dict(T=1e300), dict(kappa_a=1e300),
        dict(omega_b=1e-300), dict(g_mb=1e300),
        dict(delta_m_tilde_target=-1e12)])
    def test_extreme_points_become_error_rows(self, base, override):
        row = evaluate_point(base.replace(**override))
        assert row.status.startswith("error: ")
        assert math.isnan(row.r_min)

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
        want = evaluate_batch(stack(points)).rows
        solve = dynamics.steady_covariances

        def corrupt_second(*args):
            v, errors = solve(*args)
            v[1, 4, 4] = -v[1, 4, 4]  # still symmetric, no longer definite
            return v, errors

        monkeypatch.setattr(dynamics, "steady_covariances", corrupt_second)
        got = evaluate_batch(stack(points)).rows
        assert got[1].status == "error: matrix is not positive definite"
        assert math.isnan(got[1].r_min)
        # a stable point whose entanglement stage fails stays stable
        assert want[1].stable and got[1].stable
        assert repr(got[1].margin) == repr(want[1].margin)
        assert same_row(got[0], want[0]) and same_row(got[2], want[2])

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


#: at P_m = 1.0 W the positive detunings are unstable, and T = 1e300 K
#: makes the Lyapunov solve of the stable points fail
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
        with pytest.raises(IndexError):
            table[27]

    def test_blocks_and_the_per_point_fallback_join_alike(self, base,
                                                          monkeypatch):
        spec = SweepSpec(base=base.replace(P_m=1.0), axes=OVERFLOW_AXES)
        want = table_columns(run_sweep(spec))
        monkeypatch.setattr(sweep, "BLOCK", 1)
        monkeypatch.setattr(sweep, "CHUNK", 4)  # blocks of four points
        assert table_columns(run_sweep(spec)) == want
        slogdet = np.linalg.slogdet

        def refuse_stacks(m):
            if len(m) > 1:
                raise np.linalg.LinAlgError("forced")
            return slogdet(m)

        # every block of more than one point is evaluated point by point
        monkeypatch.setattr(np.linalg, "slogdet", refuse_stacks)
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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(parameter_points(), min_size=1, max_size=4))
def test_batch_rows_equal_single_point_rows_and_never_raise(points):
    singles = [evaluate_point(p) for p in points]
    batch = evaluate_batch(stack(points)).rows
    assert len(batch) == len(points)
    for got, want in zip(batch, singles):
        assert same_row(got, want)
        assert (want.status in ("ok", "unstable")
                or want.status.startswith("error: "))
