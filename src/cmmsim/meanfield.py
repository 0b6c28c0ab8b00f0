"""Classical steady state of the driven cavity-magnon-mechanics system.

The mean-field equations close on the magnon amplitude once the effective
magnon detuning (bare detuning plus the static magnomechanical frequency
pull) is known: m_s = num / den, where the two drives interfere in num.
That response is written once, in ``_magnon_response``, and
``phase_window`` reads from its numerator's two terms the phase about
which every point is mirror-symmetric.  Two solving modes are supported:

* effective targeting (default): the effective detuning is an *input*;
  the magnon equation is then linear, the displacement follows from
  |m_s|^2, and the bare detuning is back-solved.  No iteration.
* bare mode: the bare detuning is given, and |m_s|^2 must satisfy a cubic
  self-consistency condition.  Its roots are the eigenvalues of a stack of
  companion matrices, for a whole batch at once; each is polished by
  Newton steps, and the physical root, the one continued from the
  zero-coupling solution, is the smallest.  That finds the self-consistent
  effective detuning; the effective solver gives the state there.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoSteadyStateError, NumericalError, SingularityError
from .params import ParamBatch, PhysicalParams, batch_of_one

_POLISH_TOL = 1e-14

#: message of the NoSteadyStateError raised at a pole of the magnon response
SINGULAR_RESPONSE = "magnon linear response is singular at the requested detunings"

#: message of the NumericalError raised where a state overflows to inf or NaN
NON_FINITE_STATE = "non-finite mean-field state"


@dataclass(frozen=True)
class MeanFieldState:
    """Self-consistent classical fixed point.

    ``p_s`` is exactly zero in any steady state; ``delta_m`` is the bare
    magnon detuning actually used and ``delta_m_tilde`` the effective one
    (they differ by the frequency pull g_mb*q_s).  ``root_multiplicity``
    counts the admissible roots of the self-consistency cubic the solver
    saw (1 whenever the state is unambiguous).
    """

    alpha_s: complex
    m_s: complex
    q_s: float
    p_s: float
    delta_m: float
    delta_m_tilde: float
    root_multiplicity: int = 1


class MeanFieldBatch(NamedTuple):
    """Effective-mode fixed points of a :class:`ParamBatch`, as arrays.

    ``abs_ms_sq`` is |m_s|^2.  ``singular`` marks entries whose magnon
    response has a pole (``solve_steady_state`` raises there).  (A
    NamedTuple: cheaper to create at import time than a dataclass.)
    """

    alpha_s: np.ndarray
    m_s: np.ndarray
    abs_ms_sq: np.ndarray
    q_s: np.ndarray
    delta_m: np.ndarray
    delta_m_tilde: np.ndarray
    singular: np.ndarray

    def state(self, k: int, root_multiplicity: int = 1) -> MeanFieldState:
        """The scalar state of entry ``k``."""
        return MeanFieldState(
            alpha_s=complex(self.alpha_s[k]), m_s=complex(self.m_s[k]),
            q_s=float(self.q_s[k]), p_s=0.0, delta_m=float(self.delta_m[k]),
            delta_m_tilde=float(self.delta_m_tilde[k]),
            root_multiplicity=root_multiplicity)


def _drive_terms(p, eps_a, eps_m):
    """The two terms of the magnon response's numerator without their
    drive phases, A = -i g_ma eps_a (the cavity drive, through the
    coupling) and B = (i delta_a + kappa_a) eps_m (the magnon drive), so
    that num = A exp(-i theta_a) + B exp(-i theta_m); also the cavity
    response i delta_a + kappa_a."""
    c_a = 1j * p.delta_a + p.kappa_a
    return -1j * p.g_ma * eps_a, c_a * eps_m, c_a


def _magnon_response(p, eps_a, eps_m, delta_m_tilde):
    """The steady magnon amplitude m_s = num / den at effective detuning
    ``delta_m_tilde``, where the two drives interfere in ``num``, and the
    scale below which |den| counts as a pole; also the cavity response
    i delta_a + kappa_a and the cavity drive's phase factor
    exp(-i theta_a), which the cavity amplitude reuses.  Reads only
    parameter attributes, so ``p`` is a ParamBatch or a PhysicalParams."""
    a, b, c_a = _drive_terms(p, eps_a, eps_m)
    phase_a = np.exp(-1j * p.theta_a)
    num = a * phase_a + b * np.exp(-1j * p.theta_m)
    g2 = p.g_ma * p.g_ma
    den = (1j * delta_m_tilde + p.kappa_m) * c_a + g2
    scale = np.maximum(np.maximum(np.abs(delta_m_tilde * p.delta_a),
                                  p.kappa_m * p.kappa_a), g2)
    return num, den, scale, c_a, phase_a


class PhaseWindow(NamedTuple):
    """Where the drives' phase difference acts: |num|^2 = |A|^2 + |B|^2
    + 2 |A| |B| cos(delta_theta - theta0), so a point depends on the phase
    only through cos(delta_theta - theta0), and the points at theta0 + x
    and theta0 - x are the same.  ``rho`` = |A| / |B| is the depth of the
    interference; ``u_max`` and ``u_min`` are |m_s|^2 at theta0 and at
    theta0 + pi with the effective detuning pinned, the ends of the range
    that |m_s|^2 runs over."""

    theta0: np.ndarray
    rho: np.ndarray
    u_max: np.ndarray
    u_min: np.ndarray


def phase_window(p) -> PhaseWindow:
    """The :class:`PhaseWindow` of each entry of a ParamBatch, as arrays,
    or of a PhysicalParams, as numpy floats.  theta0 = arg(A conj(B)) =
    arg(-delta_a - i kappa_a), in (-pi, pi], is 0 where a drive is off,
    and then rho is 0 or inf and the window is flat.  A PhysicalParams is
    checked (ParameterError outside the domain); an entry of a ParamBatch
    outside the domain has meaningless fields, which may be NaN."""
    with np.errstate(all="ignore"):
        eps_a, eps_m = p.drive_amplitudes()
        a, b, c_a = _drive_terms(p, eps_a, eps_m)
        _, den, _, _, _ = _magnon_response(p, eps_a, eps_m,
                                           p.delta_m_tilde_target)
        # A conj(B) = g_ma eps_a eps_m (-i conj(c_a)): its argument is read
        # without the factor > 0, so theta0 has the same bits whatever the
        # couplings and powers
        on = (a != 0.0) & (b != 0.0)
        abs_a, abs_b, abs_den2 = np.abs(a), np.abs(b), np.abs(den) ** 2
        window = (np.where(on, np.angle(-1j * np.conj(c_a)), 0.0),
                  abs_a / abs_b,
                  (abs_a + abs_b) ** 2 / abs_den2,
                  (abs_a - abs_b) ** 2 / abs_den2)
    return PhaseWindow(*(x[()] for x in window))


def solve_effective_batch(p: ParamBatch) -> MeanFieldBatch:
    """Effective-targeting fixed points of every entry of ``p``: the
    magnon equation is linear once the effective detuning is pinned to
    ``delta_m_tilde_target``, the displacement follows from |m_s|^2, and
    the bare detuning is back-solved.  Entries must have no ``violations``;
    call under ``np.errstate(all="ignore")``, since entries may overflow."""
    eps_a, eps_m = p.drive_amplitudes()
    dt = p.delta_m_tilde_target
    num, den, scale, c_a, phase_a = _magnon_response(p, eps_a, eps_m, dt)
    singular = np.abs(den) < 1e-12 * scale
    m_s = num / den
    abs_ms_sq = np.abs(m_s) ** 2
    q_s = -p.g_mb * abs_ms_sq / p.omega_b
    alpha_s = (eps_a * phase_a - 1j * p.g_ma * m_s) / c_a
    delta_m = dt - p.g_mb * q_s
    # undriven entries have the zero state, whatever their response; both
    # amplitudes are >= 0 or NaN, so their sum is 0 only where both are
    undriven = eps_a + eps_m == 0.0
    if undriven.any():
        alpha_s, m_s = np.where(undriven, 0j, [alpha_s, m_s])
        abs_ms_sq, q_s = np.where(undriven, 0.0, [abs_ms_sq, q_s])
        delta_m = np.where(undriven, dt, delta_m)
        singular &= ~undriven
    return MeanFieldBatch(alpha_s, m_s, abs_ms_sq, q_s, delta_m, dt, singular)


def solve_bare_batch(p: ParamBatch,
                     delta_m) -> tuple[MeanFieldBatch, np.ndarray]:
    """Bare-mode fixed points of every entry of ``p`` at the bare magnon
    detunings ``delta_m`` (one per entry, or one for all): u = |m_s|^2
    solves u |d0 - i beta c u|^2 = |num|^2, with d0 the response's den at
    the bare detuning, c = i delta_a + kappa_a and beta = g_mb^2 / omega_b.
    Its roots are the real eigenvalues of one stack of companion matrices
    in w = u / u_ref (u_ref the zero-coupling root keeps the coefficients
    O(1)), clamped at 0, polished by Newton steps and merged within 1e-9.
    :func:`solve_effective_batch` gives the state at the self-consistent
    detuning, with the root's ``q_s`` and the given ``delta_m``.

    The physical root is the branch continued from u_ref as the coupling
    rises from 0, and that is the smallest root.  With v = beta u the
    cubic reads f(v) = v |d0 - i c v|^2 = beta |num|^2: f does not depend
    on g_mb, and the right side is a level that rises with beta.  The
    branch from v = 0 is the lowest crossing of f until the level passes
    f's local maximum, above which only one crossing is left; so where the
    cubic has three roots the branch is the smallest, and where it has one
    that root is the branch.

    Returns the states and each entry's number of roots, 0 at a pole of
    the response at the bare detuning, which ``singular`` marks as it
    marks one at the self-consistent detuning.  Undriven entries have the
    zero state, and entries that overflow have non-finite fields.  Entries
    must have no ``violations``; call under ``np.errstate(all="ignore")``,
    since entries may overflow.
    """
    delta_m = np.full(len(p), delta_m, dtype=float)
    eps_a, eps_m = p.drive_amplitudes()
    num, d0, _, c, _ = _magnon_response(p, eps_a, eps_m, delta_m)
    num2, k1 = np.abs(num) ** 2, np.abs(d0) ** 2
    u_ref = num2 / k1
    # the cubic k3 u^3 + k2 u^2 + k1 u - num2; k2 in real arithmetic, since
    # the complex product (c * conj(d0)).imag rounds differently and would
    # change the states' last bits
    beta = p.g_mb ** 2 / p.omega_b
    k3 = beta ** 2 * np.abs(c) ** 2
    k2 = 2.0 * beta * (c.imag * d0.real - c.real * d0.imag)
    a3 = k3 * (u_ref * u_ref * u_ref)
    companion = np.zeros(beta.shape + (3, 3))
    companion[..., 0, 0] = -(k2 * (u_ref * u_ref)) / a3
    companion[..., 0, 1] = -(k1 * u_ref) / a3
    companion[..., 0, 2] = num2 / a3
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    cubic = np.isfinite(companion[..., 0, :]).all(-1)
    # where k1 u_ref / a3 is not finite, the cubic term is absent (g_mb = 0,
    # no numerator) or below the smallest double: the one root is u_ref
    single = ~np.isfinite(companion[..., 0, 1])
    companion[~cubic] = 0.0
    w = np.linalg.eigvals(companion)
    # the real roots in u, a tiny negative one clamped to 0 and negative
    # ones inadmissible (NaN), each polished by up to 3 Newton steps
    k1, num2, ref = k1[:, None], num2[:, None], u_ref[:, None]
    u = w.real * ref
    u = np.where(cubic[..., None] & (w.imag == 0.0) & (u > -1e-12 * ref),
                 np.maximum(u, 0.0), np.nan)
    k2, k3 = k2[..., None], k3[..., None]
    live = u == u
    for _ in range(3):
        f = ((k3 * u + k2) * u + k1) * u - num2
        df = (3.0 * k3 * u + 2.0 * k2) * u + k1
        live &= df != 0.0
        polished = np.maximum(u - f / df, 0.0)
        moved = np.abs(polished - u) > _POLISH_TOL * np.maximum(u, ref)
        u = np.where(live, polished, u)
        live &= moved
        if not live.any():
            break
    # sorted, inadmissible roots (NaN) last; a root within 1e-9 of the
    # last one kept collapsed onto it
    u.sort(axis=-1)
    tol = 1e-9 * np.maximum(u[..., 1:], ref)
    fresh = u[..., 1:] - u[..., :2] > tol
    fresh[..., 1] = (u[..., 2] - np.where(fresh[..., 0], u[..., 1], u[..., 0])
                     > tol[..., 1])
    u[..., 1:][~fresh] = np.nan
    u = np.where(single[..., None], ref * [1.0, np.nan, np.nan], u)  # u_ref
    count = (u == u).sum(1)
    u = u[:, 0]  # the smallest root: the branch continued from u_ref
    undriven = eps_a + eps_m == 0.0
    pole = (d0 == 0.0) & ~undriven
    count[undriven] = 1
    count[pole] = 0
    q_s = np.where(undriven, 0.0, -p.g_mb * u / p.omega_b)
    at = ParamBatch(p.block.copy())
    at.delta_m_tilde_target[:] = delta_m + p.g_mb * q_s
    mf = solve_effective_batch(at)
    return mf._replace(q_s=q_s, delta_m=delta_m,
                       singular=mf.singular | pole), count


def solve_steady_state(params: PhysicalParams,
                       bare_delta_m: float | None = None) -> MeanFieldState:
    """Solve the classical fixed point.

    With ``bare_delta_m=None`` the effective detuning is pinned to
    ``params.delta_m_tilde_target`` and the bare detuning is back-solved,
    by :func:`solve_effective_batch` on a batch of one.  Passing a bare
    detuning instead solves the cubic self-consistency condition and takes
    its smallest root, by :func:`solve_bare_batch` on a batch of one.

    Raises ParameterError outside the parameter domain, NoSteadyStateError
    if the magnon response has no admissible solution (e.g. at an exact
    pole), and NumericalError if a field of the state is not finite.
    """
    p = batch_of_one(params)
    with np.errstate(all="ignore"):
        if bare_delta_m is None:
            mf, roots = solve_effective_batch(p), None
        else:
            mf, roots = solve_bare_batch(p, bare_delta_m)
    if mf.singular[0]:
        raise NoSteadyStateError(
            SINGULAR_RESPONSE if roots is None or roots[0] == 0 else
            "magnon linear response is singular at the self-consistent detuning")
    state = mf.state(0, 1 if roots is None else int(roots[0]))
    if not np.isfinite(list(vars(state).values())).all():
        raise NumericalError(NON_FINITE_STATE)
    return state


def magnon_amplitude_approx(params: PhysicalParams,
                            delta_m_tilde: float) -> complex:
    """Large-detuning approximation of the magnon amplitude: the magnon
    response with both linewidths set to zero,
    (-i g_ma eps_a e^{-i theta_a} + i delta_a eps_m e^{-i theta_m})
    / (g_ma^2 - delta_m_tilde * delta_a).

    Valid when both detunings dominate the linewidths.  Raises
    SingularityError at the pole g_ma^2 = delta_m_tilde * delta_a, and
    NumericalError if the amplitude is not finite.
    """
    eps_a, eps_m = params.drive_amplitudes()
    with np.errstate(all="ignore"):
        num, den, scale, _, _ = _magnon_response(
            params.replace(kappa_a=0.0, kappa_m=0.0), eps_a, eps_m,
            delta_m_tilde)
        if scale == 0.0 or abs(den) < 1e-12 * scale:
            raise SingularityError("approximate magnon response pole: "
                                   "g_ma^2 = delta_m_tilde * delta_a")
        m_s = complex(num / den)
    if not cmath.isfinite(m_s):
        raise NumericalError(NON_FINITE_STATE)
    return m_s


def residual_batch(p: ParamBatch, alpha_s, m_s, q_s, p_s,
                   delta_m) -> np.ndarray:
    """Euclidean norm of the classical flow (d alpha/dt, dm/dt, dq/dt,
    dp/dt) at the given fields of each entry of ``p`` at bare magnon
    detuning ``delta_m``, normalized by the larger drive amplitude (1 if
    undriven).  Zero iff the fields are an exact fixed point; the drift
    matrix of the fluctuations is this flow's Jacobian in quadratures.
    Call under ``np.errstate(all="ignore")``."""
    eps_a, eps_m = p.drive_amplitudes()
    dalpha = (-(1j * p.delta_a + p.kappa_a) * alpha_s - 1j * p.g_ma * m_s
              + eps_a * np.exp(-1j * p.theta_a))
    dm = (-(1j * delta_m + p.kappa_m) * m_s - 1j * p.g_ma * alpha_s
          - 1j * p.g_mb * m_s * q_s + eps_m * np.exp(-1j * p.theta_m))
    dq = p.omega_b * p_s
    dp = -p.omega_b * q_s - p.g_mb * np.abs(m_s) ** 2 - p.gamma_b * p_s
    scale = np.maximum(eps_a, eps_m)
    return (np.sqrt(np.abs(dalpha) ** 2 + np.abs(dm) ** 2 + dq ** 2 + dp ** 2)
            / np.where(scale == 0.0, 1.0, scale))


def steady_state_residual(params: PhysicalParams,
                          state: MeanFieldState) -> float:
    """Euclidean norm of the classical flow at ``state``, normalized by the
    drive-amplitude scale: :func:`residual_batch` of the batch of one.
    Zero iff the state is an exact fixed point."""
    with np.errstate(all="ignore"):
        return float(residual_batch(
            batch_of_one(params), state.alpha_s, state.m_s, state.q_s,
            state.p_s, state.delta_m)[0])
