"""Linearized fluctuation dynamics: drift/diffusion matrices, stability,
and the steady-state covariance matrix.

Quadrature ordering is fixed throughout as (X, Y, x, y, q, p): cavity,
magnon, mechanics, position-like before momentum-like.  The covariance
matrix uses the vacuum normalization V_vac = I/2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (CmmError, IntegrationError, NumericalError,
                     UnstableSystemError)
from .meanfield import MeanFieldBatch, MeanFieldState
from .params import ParamBatch, PhysicalParams, batch_of_one

SQRT2 = math.sqrt(2.0)

#: relative stability margin, in units of omega_b
STABILITY_EPS = 1e-9

#: enforced relative Frobenius residual of the Lyapunov solve
LYAPUNOV_RESIDUAL_TOL = 1e-10


def build_drift(params: PhysicalParams, state: MeanFieldState) -> np.ndarray:
    """Real 6x6 drift matrix of the linearized fluctuation dynamics, the
    :func:`drift_batch` of one point."""
    return drift_batch(ParamBatch.from_base(params, 1), state)[0]


def build_diffusion(params: PhysicalParams) -> np.ndarray:
    """Diagonal 6x6 diffusion matrix of the input noises, the
    :func:`diffusion_batch` of one point.

    Raises ParameterError outside the parameter domain.
    """
    return np.diag(diffusion_batch(batch_of_one(params))[0])


def drift_batch(p: ParamBatch,
                mf: MeanFieldBatch | MeanFieldState) -> np.ndarray:
    """Real drift matrices of the linearized fluctuation dynamics, shape
    (n, 6, 6), at the fixed points ``mf`` of ``p``: a MeanFieldBatch, or
    one MeanFieldState (of either solving mode) shared by every entry.

    Rows are the time derivatives of (X, Y, x, y, q, p).  The
    magnon-mechanics entries carry the real and imaginary parts of the
    steady-state magnon amplitude separately, so the matrix is valid for
    arbitrary drive phases.
    """
    g, cm = p.g_ma, SQRT2 * p.g_mb
    dm, m_re, m_im = mf.delta_m_tilde, mf.m_s.real, mf.m_s.imag
    a = np.zeros((len(p), 6, 6))
    a[:, 0, 0], a[:, 0, 1], a[:, 0, 3] = -p.kappa_a, p.delta_a, g
    a[:, 1, 0], a[:, 1, 1], a[:, 1, 2] = -p.delta_a, -p.kappa_a, -g
    a[:, 2, 1], a[:, 2, 2], a[:, 2, 3] = g, -p.kappa_m, dm
    a[:, 2, 4] = cm * m_im
    a[:, 3, 0], a[:, 3, 2], a[:, 3, 3] = -g, -dm, -p.kappa_m
    a[:, 3, 4] = -cm * m_re
    a[:, 4, 5] = p.omega_b
    a[:, 5, 2], a[:, 5, 3] = -cm * m_re, -cm * m_im
    a[:, 5, 4], a[:, 5, 5] = -p.omega_b, -p.gamma_b
    return a


def diffusion_batch(p: ParamBatch) -> np.ndarray:
    """Diagonals of the diffusion matrices, shape (n, 6): kappa_a(2N_a+1)
    twice, kappa_m(2N_m+1) twice, 0 for the mechanical position and
    gamma_b(2N_b+1) for the mechanical momentum, for entries without
    ``violations``; non-finite where an occupation overflows."""
    n_a, n_m, n_b = p.occupations()
    d = np.zeros((len(p), 6))
    with np.errstate(over="ignore"):
        d[:, 0] = d[:, 1] = p.kappa_a * (2.0 * n_a + 1.0)
        d[:, 2] = d[:, 3] = p.kappa_m * (2.0 * n_m + 1.0)
        d[:, 5] = p.gamma_b * (2.0 * n_b + 1.0)
    return d


def solve_lyapunov(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Unique symmetric solution V of a V + V a^T = -d for stable ``a``.

    Solved densely through the Kronecker identity
    (I (x) a + a (x) I) vec(V) = -vec(d), a 36x36 solve for the 6x6
    system; the fallback and the reference of :func:`modal_lyapunov`.  The
    result is symmetrized and its relative Frobenius residual (NaN
    included) verified against LYAPUNOV_RESIDUAL_TOL.

    Raises UnstableSystemError when ``a`` is not Hurwitz-stable, and
    NumericalError if the solution overflows (finite ``a`` and ``d``
    giving a non-finite residual) or the residual contract fails.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    n = a.shape[0]
    margin = float(np.linalg.eigvals(a).real.max())
    if margin >= 0.0:
        raise UnstableSystemError(
            f"no steady state: spectral abscissa {margin:.3e} >= 0")
    eye = np.eye(n)
    k = np.kron(eye, a) + np.kron(a, eye)
    v = np.linalg.solve(k, -d.flatten(order="F")).reshape((n, n), order="F")
    v = 0.5 * (v + v.T)
    residual = lyapunov_residual(a[None], v[None], d[None])[0]
    # from finite a and d, only an overflow of V or of its residual's
    # products gives a non-finite residual
    if (not math.isfinite(residual) and np.isfinite(a).all()
            and np.isfinite(d).all()):
        raise NumericalError(
            f"Lyapunov solution overflows (residual {residual:.3e})")
    if not residual <= LYAPUNOV_RESIDUAL_TOL:
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds {LYAPUNOV_RESIDUAL_TOL:.1e}")
    return v


def lyapunov_residual(a: np.ndarray, v: np.ndarray,
                      d: np.ndarray) -> np.ndarray:
    """Relative Frobenius residual |a V + V a^T + d| / |d| of each entry of
    a stack of square matrices (the absolute residual where d = 0).

    Both matrices are divided by d's largest |entry| before their entries
    are squared, so that neither norm overflows however large d is.  The
    sums run along one contiguous axis, so that an entry's residual does
    not depend on the stack around it.
    """
    scale = np.abs(d).max(axis=(1, 2))
    scale = np.where(scale > 0, scale, 1.0)[:, None]
    r = (a @ v + v @ a.swapaxes(1, 2) + d).reshape(len(d), -1) / scale
    d = d.reshape(len(d), -1) / scale
    d_norm = np.sqrt((d * d).sum(axis=1))
    return np.sqrt((r * r).sum(axis=1)) / np.where(d_norm > 0, d_norm, 1.0)


def stack_or_nan(func, m: np.ndarray) -> np.ndarray:
    """A stacked ``numpy.linalg`` function (``inv``, ``cholesky``) applied
    to a stack of matrices; a matrix it fails on (singular, not positive
    definite) gets NaN entries instead of failing the whole stack."""
    try:
        return func(m)
    except np.linalg.LinAlgError:
        out = np.full_like(m, np.nan)
        for k, mk in enumerate(m):
            try:
                out[k] = func(mk)
            except np.linalg.LinAlgError:
                pass
        return out


def modal_lyapunov(a: np.ndarray, d: np.ndarray, lam: np.ndarray,
                   s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a V + V a^T = -diag(d) for a stack of stable drifts in the
    eigenbasis of each drift (Bartels-Stewart with a diagonal Schur form).

    ``lam`` and ``s`` are the eigenvalues and eigenvectors from
    ``np.linalg.eig(a)``.  With D~ = S^-1 diag(d) S^-H,
    V = S [-D~_ij / (lam_i + conj(lam_j))] S^H; one refinement step solves
    the same equation for the residual in the same basis.  Returns the
    symmetrized V, shape (n, 6, 6), and each entry's relative Frobenius
    residual, which is NaN or large where ``s`` is (nearly) singular.
    """
    lam = lam.astype(complex)
    s = s.astype(complex)
    s_inv = stack_or_nan(np.linalg.inv, s)
    s_h, s_inv_h = s.conj().swapaxes(1, 2), s_inv.conj().swapaxes(1, 2)
    gap = lam[:, :, None] + lam.conj()[:, None, :]
    d_full = d[:, :, None] * np.eye(a.shape[1])
    a_t = a.swapaxes(1, 2)

    def solve(rhs):
        v = (s @ (-(s_inv @ rhs @ s_inv_h) / gap) @ s_h).real
        return 0.5 * (v + v.swapaxes(1, 2))

    v = solve(d_full)
    v = v + solve(a @ v + v @ a_t + d_full)
    return v, lyapunov_residual(a, v, d_full)


def steady_covariances(a: np.ndarray, d: np.ndarray, lam: np.ndarray,
                       s: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Steady-state covariances of a stack of stable drifts ``a`` with
    diffusion diagonals ``d``, given ``lam, s = np.linalg.eig(a)``; an
    entry may carry a NaN basis ``s`` instead (the sweep engine does so
    for a stable drift whose determinant reads <= 0).

    Uses :func:`modal_lyapunov`; every entry whose residual is not within
    LYAPUNOV_RESIDUAL_TOL (NaN included, so every NaN basis) is solved
    again by the Kronecker :func:`solve_lyapunov`.  Returns the covariances and, keyed by entry,
    the error message of every entry that fallback failed too (its
    covariance is NaN).
    """
    v, residual = modal_lyapunov(a, d, lam, s)
    errors = {}
    for k in np.flatnonzero(~(residual <= LYAPUNOV_RESIDUAL_TOL)).tolist():
        try:
            v[k] = solve_lyapunov(a[k], np.diag(d[k]))
        except (CmmError, np.linalg.LinAlgError) as exc:
            v[k] = np.nan
            errors[k] = str(exc)
    return v, errors


def integrate_covariance(a: np.ndarray, d: np.ndarray, v0: np.ndarray,
                         t_final: float, dt: float | None = None) -> np.ndarray:
    """Propagate dV/dt = a V + V a^T + d with a fixed-step classical
    fourth-order Runge-Kutta scheme, symmetrizing after every step.

    Default step is 0.01 / max|Re eig(a)|.  Serves as the independent
    cross-check of :func:`solve_lyapunov`; for stable ``a`` and
    t_final >> 1/|margin| the two agree to the integrator's accuracy.

    Raises IntegrationError on norm blow-up (entries beyond 1e12),
    which indicates the step is too large for the spectrum of ``a``.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    v = 0.5 * (np.asarray(v0, dtype=float) + np.asarray(v0, dtype=float).T)
    if t_final < 0.0 or (dt is not None and dt <= 0.0):
        raise ValueError("t_final must be >= 0 and dt > 0")
    if t_final == 0.0:
        return v
    if dt is None:
        decay = float(np.abs(np.linalg.eigvals(a).real).max())
        dt = 0.01 / decay if decay > 0.0 else t_final / 1000.0

    def flow(m):
        return a @ m + m @ a.T + d

    n_steps = int(math.ceil(t_final / dt - 1e-12))
    t = 0.0
    for k in range(n_steps):
        h = min(dt, t_final - t)
        k1 = flow(v)
        k2 = flow(v + 0.5 * h * k1)
        k3 = flow(v + 0.5 * h * k2)
        k4 = flow(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = 0.5 * (v + v.T)
        t += h
        if not np.all(np.isfinite(v)) or np.abs(v).max() > 1e12:
            raise IntegrationError(
                f"covariance integration blew up at t={t:.3e} "
                f"(step {k + 1}/{n_steps}); reduce dt")
    return v
