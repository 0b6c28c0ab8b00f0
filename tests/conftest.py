"""Shared fixtures, generators and from-scratch oracles for the test
suite."""

import math

import numpy as np
import pytest
import scipy.integrate

from cmmsim import SweepTable, baseline_params
from cmmsim.sweep import FLOAT_FIELDS


@pytest.fixture
def base():
    """Calibrated baseline parameter set (entangled operating point)."""
    return baseline_params()


def table_of(rows):
    """The SweepTable of a list of SweepRow, statuses aside (the CSV does
    not hold them)."""
    return SweepTable(np.array([r.axis1 for r in rows]),
                      np.array([r.axis2 for r in rows]),
                      np.array([r.stable for r in rows]),
                      np.array([[getattr(r, name) for name in FLOAT_FIELDS]
                                for r in rows]), {})


def haar_unitary(rng, n):
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def orthogonal_symplectic(rng, n_modes):
    """Haar-random orthogonal symplectic matrix (passive transformation),
    interleaved (x1, p1, x2, p2, ...) quadrature ordering."""
    u = haar_unitary(rng, n_modes)
    x, y = u.real, u.imag
    s_xxpp = np.block([[x, -y], [y, x]])
    perm = np.empty(2 * n_modes, dtype=int)
    perm[0::2] = np.arange(n_modes)
    perm[1::2] = np.arange(n_modes) + n_modes
    return s_xxpp[np.ix_(perm, perm)]


def random_symplectic(rng, n_modes, squeeze_max=1.0):
    """Random symplectic via Euler decomposition: passive, squeeze, passive."""
    r = rng.uniform(-squeeze_max, squeeze_max, n_modes)
    z = np.diag(np.repeat(np.exp(r), 2) ** np.tile([1.0, -1.0], n_modes))
    return orthogonal_symplectic(rng, n_modes) @ z @ orthogonal_symplectic(rng, n_modes)


def random_physical_cm(rng, n_modes=3, nu_max=3.0, squeeze_max=1.0):
    """Random physical covariance matrix: random symplectic conjugation of a
    random thermal Williamson form (all symplectic eigenvalues >= 1/2)."""
    nus = rng.uniform(0.5, nu_max, n_modes)
    s = random_symplectic(rng, n_modes, squeeze_max)
    return s @ np.diag(np.repeat(nus, 2)) @ s.T


def tmsv_cm(r):
    """Two-mode squeezed vacuum covariance matrix, vacuum variance 1/2."""
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return 0.5 * np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])


def embed_with_vacuum(v4):
    """Place a two-mode matrix on modes (a, m) with mode b in vacuum."""
    v6 = np.eye(6) * 0.5
    v6[:4, :4] = v4
    return v6


def single_mode_rotation(phi, mode, n_modes=3):
    """Symplectic rotation of one mode's quadrature plane."""
    s = np.eye(2 * n_modes)
    c, sn = np.cos(phi), np.sin(phi)
    k = 2 * mode
    s[k:k + 2, k:k + 2] = [[c, sn], [-sn, c]]
    return s


#: the quadratures of the mode pairs (a, m), (a, b) and (m, b)
PAIRS = ([0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5])


def omega(n_modes):
    """Symplectic form of n modes, quadratures (x1, p1, x2, p2, ...)."""
    return np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])


def transpose_mode(v, mode):
    """Partial transpose of ``v`` on one mode: its momentum's sign flipped."""
    s = np.ones(len(v))
    s[2 * mode + 1] = -1.0
    return v * np.outer(s, s)


def min_uncertainty_eig(v):
    """Smallest eigenvalue of V + (i/2) Omega, >= 0 for a physical state."""
    return float(np.linalg.eigvalsh(v + 0.5j * omega(len(v) // 2))[0])


def pt_symplectic_oracle(v, mode):
    """Symplectic spectrum of ``v`` transposed on ``mode``, ascending:
    |eig(i Omega P V P)|, each value twice, from a general eigensolve."""
    ev = np.linalg.eigvals(1j * omega(len(v) // 2) @ transpose_mode(v, mode))
    return np.sort(np.abs(ev))[::2]


def entanglement_oracle(v):
    """The ten MEASURES of a 6x6 ``v``: the log-negativities
    max(0, -ln 2 nu_-) of the pairs am, ab, mb and of the splits a|mb,
    m|ab, b|am, then E^2(split) - E^2(pair 1) - E^2(pair 2) of each pivot
    and their minimum."""
    def en(cm, mode=0):
        return max(0.0, -math.log(2.0 * pt_symplectic_oracle(cm, mode)[0]))

    am, ab, mb = (en(v[np.ix_(q, q)]) for q in PAIRS)
    a, m, b = (en(v, mode) for mode in range(3))
    residuals = [a * a - am * am - ab * ab, m * m - am * am - mb * mb,
                 b * b - ab * ab - mb * mb]
    return [am, ab, mb, a, m, b, *residuals, min(residuals)]


def ode_covariance(a, d, v0, t_final, atol):
    """V(t_final) of the flow dV/dt = a V + V a^T + d from ``v0``, by
    scipy's DOP853 at rtol 1e-10 and absolute tolerance ``atol``."""
    def flow(_, y):
        v = y.reshape(v0.shape)
        return (a @ v + v @ a.T + d).ravel()

    sol = scipy.integrate.solve_ivp(flow, (0.0, t_final), v0.ravel(),
                                    method="DOP853", rtol=1e-10, atol=atol)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(v0.shape)
