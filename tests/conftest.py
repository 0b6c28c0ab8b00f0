"""Shared fixtures, generators and from-scratch oracles for the test
suite."""

import cmath
import math

import numpy as np
import pytest
import scipy.integrate

from cmmsim import (MeanFieldState, NoSteadyStateError, NumericalError,
                    ParamBatch, SweepTable, baseline_params, validate)
from cmmsim.meanfield import (NON_FINITE_STATE, SINGULAR_RESPONSE,
                              solve_effective_batch)
from cmmsim.sweep import FLOAT_FIELDS, ZOOM


#: the regimes of the claims, as overrides of baseline_params: the
#: baseline, and P_m = 0.9 mW with g_mb = 2 pi 6.2 Hz, 90 uW with 14 Hz and
#: 90 uW with 19.6 Hz, where the phase window reaches the stability edge
CLAIM_REGIMES = [{}, {"P_m": 9e-4, "g_mb": 2 * math.pi * 6.2},
                 {"P_m": 9e-5, "g_mb": 2 * math.pi * 14.0},
                 {"P_m": 9e-5, "g_mb": 2 * math.pi * 19.6}]


def scan_size(resolution):
    """The phase search's scan: phase 0, ceil(resolution / 2) offsets from
    theta0, and theta0 + pi."""
    return -(-resolution // 2) + 2


def zoom_rounds(resolution):
    """The phase search's zoom rounds, from the scan's spacing
    2 pi / resolution down ZOOM-fold a round while above 1e-6 rad."""
    n, h = 0, 2.0 * math.pi / resolution
    while h > 1e-6:
        n, h = n + 1, h / ZOOM
    return n


def end_batches(resolution):
    """The rounds of each zoom batch while an end of the half period stays
    best: a round there is ZOOM one-sided offsets, and a batch takes as
    many as fit in max(2 * ZOOM, the scan's size) offsets."""
    n = zoom_rounds(resolution)
    per = max(2 * ZOOM, scan_size(resolution)) // ZOOM
    return [min(per, n - k) for k in range(0, n, per)]


def end_phases(theta0, end, resolution):
    """The phases that each zoom batch of a search whose best offset stays
    at ``end`` (0 or pi) sends to the engine: its rounds' offsets, less
    every phase of the scan or of an earlier round."""
    offsets = np.concatenate(([-theta0], 2.0 * math.pi * np.arange(
        -(-resolution // 2)) / resolution, [math.pi]))
    seen = set((theta0 + offsets).tolist())
    inward = np.arange(1, ZOOM + 1) * (1 if end == 0.0 else -1)
    batches, g = [], 2.0 * math.pi / resolution
    for rounds in end_batches(resolution):
        batch = []
        for _ in range(rounds):
            for phase in (theta0 + (end + g * inward / ZOOM)).tolist():
                if phase not in seen:
                    seen.add(phase)
                    batch.append(phase)
            g /= ZOOM
        batches.append(batch)
    return batches


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


def cubic_real_roots(a3, a2, a1, a0):
    """Real roots of a3 x^3 + a2 x^2 + a1 x + a0 in closed form
    (trigonometric or Cardano, by the sign of the discriminant)."""
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:  # one real root
        s = math.sqrt(disc)
        t = math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
        u = math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s)
        return [t + u + shift]
    if p == 0.0:  # triple root
        return [shift]
    r = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * r))))
    return sorted(r * math.cos((phi - turn) / 3.0) + shift
                  for turn in (0.0, 2.0 * math.pi, 4.0 * math.pi))


def self_consistency_roots(num2, d0, c, beta):
    """Admissible roots u = |m_s|^2 of u |d0 - i beta c u|^2 = num2, solved
    in w = u / u_ref (u_ref the zero-coupling root), each clamped at 0,
    polished by up to 3 Newton steps and merged within 1e-9."""
    if abs(d0) == 0.0:
        raise NoSteadyStateError(SINGULAR_RESPONSE)
    u_ref = num2 / abs(d0) ** 2
    if beta == 0.0 or u_ref == 0.0:
        return [u_ref]
    k3 = beta ** 2 * abs(c) ** 2
    k2 = 2.0 * beta * (c * d0.conjugate()).imag
    k1 = abs(d0) ** 2
    out = []
    for w in cubic_real_roots(k3 * u_ref ** 3, k2 * u_ref ** 2, k1 * u_ref,
                              -num2):
        u = w * u_ref
        if -1e-12 * u_ref < u < 0.0:
            u = 0.0
        if u < 0.0:
            continue
        for _ in range(3):
            f = u * (k1 + k2 * u + k3 * u * u) - num2
            df = k1 + 2.0 * k2 * u + 3.0 * k3 * u * u
            if df == 0.0:
                break
            u_new = max(u - f / df, 0.0)
            done = abs(u_new - u) <= 1e-14 * max(u, u_ref)
            u = u_new
            if done:
                break
        out.append(u)
    merged = []
    for u in sorted(out):
        if not merged or abs(u - merged[-1]) > 1e-9 * max(u, u_ref):
            merged.append(u)
    return merged


def bare_state_oracle(params, delta_m):
    """Bare-mode fixed point by the closed-form cubic and a 16-step
    homotopy in g_mb, continued from the zero-coupling root; the state at
    the self-consistent detuning comes from the effective solver.  Raises
    as ``solve_steady_state(params, bare_delta_m=delta_m)`` does."""
    validate(params)
    eps_a, eps_m = params.drive_amplitudes()
    if eps_a == 0.0 and eps_m == 0.0:
        return MeanFieldState(0j, 0j, 0.0, 0.0, delta_m, delta_m)
    c = 1j * params.delta_a + params.kappa_a
    num = (-1j * params.g_ma * eps_a * cmath.exp(-1j * params.theta_a)
           + c * eps_m * cmath.exp(-1j * params.theta_m))
    d0 = (1j * delta_m + params.kappa_m) * c + params.g_ma ** 2
    num2 = abs(num) ** 2
    u = self_consistency_roots(num2, d0, c, 0.0)[0]
    for k in range(1, 17):
        beta = (params.g_mb * k / 16) ** 2 / params.omega_b
        roots = self_consistency_roots(num2, d0, c, beta)
        u = min(roots, key=lambda r: abs(r - u))
    ambiguous = [r for r in roots if abs(r - u) <= 1e-9 * max(u, roots[-1])]
    u = min(ambiguous, default=u)
    q_s = -params.g_mb * u / params.omega_b
    with np.errstate(all="ignore"):
        mf = solve_effective_batch(ParamBatch.from_base(
            params.replace(delta_m_tilde_target=delta_m + params.g_mb * q_s),
            1))
    if mf.singular[0]:
        raise NoSteadyStateError("magnon linear response is singular at "
                                 "the self-consistent detuning")
    state = MeanFieldState(complex(mf.alpha_s[0]), complex(mf.m_s[0]), q_s,
                           0.0, delta_m, float(mf.delta_m_tilde[0]),
                           len(roots))
    if not np.isfinite(list(vars(state).values())).all():
        raise NumericalError(NON_FINITE_STATE)
    return state
