"""Drift/diffusion construction, stability and the Lyapunov solve."""

import cmath
import math
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from cmmsim import (NumericalError, ParamBatch, ParameterError,
                    PhysicalParams, UnstableSystemError, baseline_params,
                    build_diffusion, build_drift, dynamics, evaluate_batch,
                    evaluate_point, solve_lyapunov, solve_steady_state,
                    symplectic_eigenvalues)
from cmmsim.meanfield import MeanFieldState
from conftest import CLAIM_REGIMES, min_uncertainty_eig, transpose_mode

TWO_NB_PLUS_1 = 41.681236678072901  # mechanical bath at 10 mK, 10 MHz


def quadrature_flow(params, delta_m):
    """Independent nonlinear flow in quadrature coordinates for the
    finite-difference Jacobian oracle (re-derived from scratch here)."""
    eps_a, eps_m = params.drive_amplitudes()

    def f(u):
        X, Y, x, y, q, p = u
        alpha = (X + 1j * Y) / math.sqrt(2.0)
        m = (x + 1j * y) / math.sqrt(2.0)
        dalpha = (-(1j * params.delta_a + params.kappa_a) * alpha
                  - 1j * params.g_ma * m
                  + eps_a * cmath.exp(-1j * params.theta_a))
        dm = (-(1j * delta_m + params.kappa_m) * m
              - 1j * params.g_ma * alpha
              - 1j * params.g_mb * m * q
              + eps_m * cmath.exp(-1j * params.theta_m))
        dq = params.omega_b * p
        dp = (-params.omega_b * q - params.g_mb * abs(m) ** 2
              - params.gamma_b * p)
        return np.array([math.sqrt(2.0) * dalpha.real,
                         math.sqrt(2.0) * dalpha.imag,
                         math.sqrt(2.0) * dm.real,
                         math.sqrt(2.0) * dm.imag,
                         dq, dp])

    return f


def fd_jacobian(f, u0, h):
    jac = np.zeros((6, 6))
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        jac[:, j] = (f(u0 + e) - f(u0 - e)) / (2.0 * h)
    return jac


class TestBuildDrift:
    def test_decoupled_mechanics_when_g_mb_zero(self, base):
        p = base.replace(g_mb=0.0)
        a = build_drift(p, solve_steady_state(p))
        assert np.all(a[:4, 4:] == 0.0)
        assert np.all(a[4:, :4] == 0.0)
        assert a[4, 5] == p.omega_b and a[5, 4] == -p.omega_b
        assert a[5, 5] == -p.gamma_b

    def test_purely_imaginary_amplitude_sign_pattern(self, base):
        # with m_s = i|m_s| the effective coupling is real and the matrix
        # collapses to the canonical single-quadrature pattern
        mag = 2.0e7
        st = MeanFieldState(alpha_s=0j, m_s=1j * mag, q_s=-1.0, p_s=0.0,
                            delta_m=base.delta_m_tilde_target,
                            delta_m_tilde=base.delta_m_tilde_target)
        a = build_drift(base, st)
        g_eff = math.sqrt(2.0) * base.g_mb * mag
        assert a[2, 4] == pytest.approx(g_eff, rel=1e-15)
        assert a[3, 4] == 0.0
        assert a[5, 2] == 0.0
        assert a[5, 3] == pytest.approx(-g_eff, rel=1e-15)

    def test_explicit_row_layout(self, base):
        st = solve_steady_state(base)
        a = build_drift(base, st)
        mr, mi = st.m_s.real, st.m_s.imag
        c = math.sqrt(2.0) * base.g_mb
        expected = np.array([
            [-base.kappa_a, base.delta_a, 0, base.g_ma, 0, 0],
            [-base.delta_a, -base.kappa_a, -base.g_ma, 0, 0, 0],
            [0, base.g_ma, -base.kappa_m, st.delta_m_tilde, c * mi, 0],
            [-base.g_ma, 0, -st.delta_m_tilde, -base.kappa_m, -c * mr, 0],
            [0, 0, 0, 0, 0, base.omega_b],
            [0, 0, -c * mr, -c * mi, -base.omega_b, -base.gamma_b],
        ])
        assert np.array_equal(a, expected)

    def test_matches_finite_difference_jacobian(self, base):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = base.replace(
                g_mb=base.g_mb * rng.uniform(0.05, 2.0),
                P_a=rng.uniform(0.0, 0.5),
                P_m=rng.uniform(0.0, 1.2),
                delta_a=rng.uniform(-2.0, 2.0) * base.omega_b,
                delta_m_tilde_target=rng.uniform(-2.0, 2.0) * base.omega_b,
                theta_a=rng.uniform(0.0, 2.0 * math.pi),
                theta_m=rng.uniform(0.0, 2.0 * math.pi),
            )
            st = solve_steady_state(p)
            a = build_drift(p, st)
            u0 = np.array([math.sqrt(2.0) * st.alpha_s.real,
                           math.sqrt(2.0) * st.alpha_s.imag,
                           math.sqrt(2.0) * st.m_s.real,
                           math.sqrt(2.0) * st.m_s.imag,
                           st.q_s, st.p_s])
            f = quadrature_flow(p, st.delta_m)
            # the flow is quadratic, so central differences are exact up to
            # roundoff; a large step suppresses the roundoff
            jac = fd_jacobian(f, u0, h=1e-3 * max(1.0, np.abs(u0).max()))
            scale = np.abs(a).max()
            assert np.abs(jac - a).max() <= 1e-6 * scale


class TestBuildDiffusion:
    def test_zero_temperature(self, base):
        d = build_diffusion(base.replace(T=0.0))
        expected = np.diag([base.kappa_a, base.kappa_a, base.kappa_m,
                            base.kappa_m, 0.0, base.gamma_b])
        assert np.array_equal(d, expected)

    def test_baseline_mechanical_entry(self, base):
        d = build_diffusion(base)
        assert d[5, 5] == pytest.approx(base.gamma_b * TWO_NB_PLUS_1, rel=1e-12)
        assert d[4, 4] == 0.0
        # gigahertz baths stay essentially empty
        assert d[0, 0] == pytest.approx(base.kappa_a, rel=1e-15)
        assert d[2, 2] == pytest.approx(base.kappa_m, rel=1e-15)

    def test_overflowing_entries_are_inf_without_a_warning(self, base):
        # kappa_a * (2 N_a + 1) overflows; diffusion_batch says so with inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = build_diffusion(base.replace(kappa_a=1e300, T=1e10))
        assert d[0, 0] == d[1, 1] == math.inf
        assert np.isfinite(d[2:, 2:]).all()

    def test_position_row_always_zero(self, base):
        for T in (0.0, 10e-3, 0.3, 10.0):
            assert build_diffusion(base.replace(T=T))[4, 4] == 0.0

    @pytest.mark.parametrize("override, message", [
        (dict(omega_b=0.0), "omega_b must be > 0, got 0.0"),
        (dict(omega_a=-1.0), "omega_a must be > 0, got -1.0"),
        (dict(T=-1e-3), "T must be >= 0, got -0.001"),
        # a magnon bath frequency delta_m_tilde_target + omega_d <= 0
        (dict(delta_m_tilde_target=-1e12),
         "derived magnon frequency delta_m_tilde_target + omega_a - delta_a "
         "must be > 0, got -937083323926.5573"),
        (dict(T=math.nan), "T must be >= 0, got nan; T must be finite, got nan"),
        (dict(kappa_a=-1.0), "kappa_a must be > 0, got -1.0")])
    def test_undefined_occupation_raises(self, base, override, message):
        # every scalar entry point reads validate's rule list
        p = base.replace(**override)
        state = solve_steady_state(base)
        for build in (build_diffusion, PhysicalParams.occupations,
                      solve_steady_state, PhysicalParams.drive_amplitudes,
                      lambda q: build_drift(q, state)):
            with pytest.raises(ParameterError) as err:
                build(p)
            assert str(err.value) == message


class TestStability:
    def test_baseline_point_is_stable(self, base):
        row = evaluate_point(base)
        assert row.stable and row.margin < -1e5


class TestSolveLyapunov:
    def test_scalar_balance(self):
        kappa, n = 2.5, 3.0
        v = solve_lyapunov(-kappa * np.eye(6), kappa * (2 * n + 1) * np.eye(6))
        assert np.allclose(v, (n + 0.5) * np.eye(6), rtol=1e-13)

    def test_diagonal_balance(self):
        d = np.diag([2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
        v = solve_lyapunov(-np.eye(6), d)
        assert np.allclose(v, d / 2.0, rtol=1e-13)

    def test_unstable_raises(self):
        with pytest.raises(UnstableSystemError):
            solve_lyapunov(np.eye(6), np.eye(6))

    @pytest.mark.parametrize("a, d, shape", [
        (-np.eye(3), np.eye(3), (3, 3)),  # stable, but not 6x6
        (-np.eye(6), np.eye(3), (3, 3)),
        (-np.eye(6)[None], np.eye(6)[None], (1, 6, 6))])
    def test_a_matrix_that_is_not_6x6_is_named(self, a, d, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected a 6x6 matrix, got {shape}")):
            solve_lyapunov(a, d)

    def test_residual_on_random_stable_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a = rng.uniform(-1.0, 1.0, (6, 6)) - 6.0 * np.eye(6)
            d = np.diag(rng.uniform(0.0, 2.0, 6))
            v = solve_lyapunov(a, d)
            assert np.abs(v - v.T).max() < 1e-12
            res = np.linalg.norm(a @ v + v @ a.T + d)
            d_norm = np.linalg.norm(d)
            assert res <= 1e-10 * max(d_norm, 1e-300)

    def test_residual_gate_holds_when_squared_diffusion_overflows(self):
        # at T = 1e150 K the largest diffusion entry squares past the
        # float range; the gate must still read the unscaled residual
        p = baseline_params(T=1e150)
        a, d = build_drift(p, solve_steady_state(p)), build_diffusion(p)
        assert np.abs(d).max() > math.sqrt(sys.float_info.max)

        def unscaled(v):
            """The relative residual of v by math.hypot, which scales its
            arguments itself; the residual matrix is formed as the gate
            forms it, a stack of one, so that both norm the same bits."""
            r = (a[None] @ v[None] + v[None] @ a.T[None] + d[None])[0]
            return math.hypot(*r.ravel()) / math.hypot(*d.ravel())

        v, errors = dynamics.steady_covariances(a[None], d[None])
        assert errors == {}
        residual = dynamics.lyapunov_residual(a[None], v, d[None])
        assert residual[0] == pytest.approx(unscaled(v[0]), rel=1e-6, abs=0.0)
        assert residual[0] <= dynamics.LYAPUNOV_RESIDUAL_TOL
        assert np.array_equal(solve_lyapunov(a, d), v[0])
        perturbed = v[0] * (1.0 + 1e-6)
        residual = dynamics.lyapunov_residual(
            a[None], perturbed[None], d[None])[0]
        assert residual == pytest.approx(unscaled(perturbed), rel=1e-6,
                                         abs=0.0)
        assert residual > dynamics.LYAPUNOV_RESIDUAL_TOL

    def test_a_residual_over_the_tolerance_is_an_error(self, base,
                                                       monkeypatch):
        # no solve meets a zero tolerance: the gate names the residual, a
        # stable point keeps its flag, and the scalar solve raises
        monkeypatch.setattr(dynamics, "LYAPUNOV_RESIDUAL_TOL", 0.0)
        message = r"Lyapunov residual \d\.\d{3}e-\d\d exceeds 0\.0e\+00"
        row = evaluate_point(base)
        assert row.stable
        assert re.fullmatch("error: " + message, row.status)
        a = build_drift(base, solve_steady_state(base))
        with pytest.raises(NumericalError, match=f"^{message}$"):
            solve_lyapunov(a, build_diffusion(base))

    def test_against_schur_based_solver(self, base):
        st = solve_steady_state(base)
        a, d = build_drift(base, st), build_diffusion(base)
        v = solve_lyapunov(a, d)
        v_ref = scipy.linalg.solve_continuous_lyapunov(a, -d)
        assert np.abs(v - v_ref).max() <= 1e-10 * np.abs(v_ref).max()

    def test_physicality_of_random_valid_systems(self, base):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 40:
            p = base.replace(
                g_mb=base.g_mb * rng.uniform(0.05, 1.5),
                P_a=rng.uniform(0.0, 0.5),
                delta_a=rng.uniform(-2.0, 2.0) * base.omega_b,
                theta_a=rng.uniform(0.0, 2.0 * math.pi),
                T=rng.uniform(0.0, 0.2),
            )
            if not evaluate_point(p).stable:
                continue
            a = build_drift(p, solve_steady_state(p))
            v = solve_lyapunov(a, build_diffusion(p))
            min_eig = min_uncertainty_eig(v)
            assert min_eig >= -1e-10, (
                f"unphysical covariance, min eig {min_eig:.3e}")
            checked += 1

    @pytest.mark.parametrize("regime", CLAIM_REGIMES)
    def test_the_covariance_is_linear_in_the_bath_occupations(self, regime):
        # nothing before the diffusion reads T, and the diffusion is three
        # bath patterns scaled by 2 n_j + 1, so V(T) is the same sum of
        # their solutions V_j at unit occupation; 6.3e-16 was measured
        p = baseline_params(**regime)
        a = build_drift(p, solve_steady_state(p))
        patterns = np.zeros((3, 6, 6))
        patterns[0, [0, 1], [0, 1]] = p.kappa_a
        patterns[1, [2, 3], [2, 3]] = p.kappa_m
        patterns[2, 5, 5] = p.gamma_b
        v, errors = dynamics.steady_covariances(np.stack([a] * 3), patterns)
        assert errors == {}
        batch = ParamBatch.from_base(p, 41, T=np.linspace(0.0, 0.4, 41))
        direct = evaluate_batch(batch).covariances
        with np.errstate(all="ignore"):  # T = 0 divides by zero
            weights = 2.0 * batch.occupations() + 1.0
        summed = np.einsum("jt,jkl->tkl", weights, v)
        assert np.abs(summed - direct).max() <= 1e-14 * np.abs(direct).max()


class TestGaugeCovariance:
    def test_global_phase_preserves_pt_spectra(self, base):
        phi = 1.234
        shifted = base.replace(theta_a=base.theta_a + phi,
                               theta_m=base.theta_m + phi)
        spectra = []
        for p in (base, shifted):
            st = solve_steady_state(p)
            v = solve_lyapunov(build_drift(p, st), build_diffusion(p))
            spectra.append([
                symplectic_eigenvalues(transpose_mode(v, mode))
                for mode in range(3)
            ])
        for nu1, nu2 in zip(*spectra):
            assert np.abs(nu1 - nu2).max() < 1e-10
