"""Classical steady state of the driven cavity-magnon-mechanics system.

The mean-field equations close on the magnon amplitude once the effective
magnon detuning (bare detuning plus the static magnomechanical frequency
pull) is known: m_s = num / den, where the two drives interfere in num.
That response is written once, in ``_magnon_response``.  Two solving
modes are supported:

* effective targeting (default): the effective detuning is an *input*;
  the magnon equation is then linear, the displacement follows from
  |m_s|^2, and the bare detuning is back-solved.  No iteration.
* bare mode: the bare detuning is given, and |m_s|^2 must satisfy a cubic
  self-consistency condition.  The cubic is solved in closed form, each
  root polished by one Newton step, and the physical root selected by a
  16-step homotopy continued from the zero-coupling solution.  That finds
  the self-consistent effective detuning; the effective solver gives the
  state there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import NoSteadyStateError, NumericalError, SingularityError
from .params import ParamBatch, PhysicalParams, batch_of_one

_HOMOTOPY_STEPS = 16
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
    response has a pole (``solve_steady_state`` raises there); ``finite``
    marks entries whose every field is finite.  (A NamedTuple: cheaper to
    create at import time than a dataclass.)
    """

    alpha_s: np.ndarray
    m_s: np.ndarray
    abs_ms_sq: np.ndarray
    q_s: np.ndarray
    delta_m: np.ndarray
    delta_m_tilde: np.ndarray
    singular: np.ndarray

    @property
    def finite(self) -> np.ndarray:
        return (np.isfinite(self.alpha_s) & np.isfinite(self.m_s)
                & np.isfinite(self.q_s) & np.isfinite(self.delta_m))

    def state(self, k: int) -> MeanFieldState:
        """The scalar state of entry ``k``."""
        return MeanFieldState(
            alpha_s=complex(self.alpha_s[k]), m_s=complex(self.m_s[k]),
            q_s=float(self.q_s[k]), p_s=0.0, delta_m=float(self.delta_m[k]),
            delta_m_tilde=float(self.delta_m_tilde[k]))


def _magnon_response(p, eps_a, eps_m, delta_m_tilde):
    """The steady magnon amplitude m_s = num / den at effective detuning
    ``delta_m_tilde``, where the two drives interfere in ``num``, and the
    scale below which |den| counts as a pole.  Reads only parameter
    attributes, so ``p`` is a ParamBatch or a PhysicalParams."""
    c_a = 1j * p.delta_a + p.kappa_a
    num = (-1j * p.g_ma * eps_a * np.exp(-1j * p.theta_a)
           + c_a * eps_m * np.exp(-1j * p.theta_m))
    g2 = p.g_ma * p.g_ma
    den = (1j * delta_m_tilde + p.kappa_m) * c_a + g2
    scale = np.maximum(np.maximum(np.abs(delta_m_tilde * p.delta_a),
                                  p.kappa_m * p.kappa_a), g2)
    return num, den, scale


def solve_effective_batch(p: ParamBatch) -> MeanFieldBatch:
    """Effective-targeting fixed points of every entry of ``p``: the
    magnon equation is linear once the effective detuning is pinned to
    ``delta_m_tilde_target``, the displacement follows from |m_s|^2, and
    the bare detuning is back-solved.  Entries must have no ``violations``;
    call under ``np.errstate(all="ignore")``, since entries may overflow."""
    eps_a, eps_m = p.drive_amplitudes()
    dt = p.delta_m_tilde_target
    num, den, scale = _magnon_response(p, eps_a, eps_m, dt)
    singular = np.abs(den) < 1e-12 * scale
    m_s = num / den
    abs_ms_sq = np.abs(m_s) ** 2
    q_s = -p.g_mb * abs_ms_sq / p.omega_b
    alpha_s = ((eps_a * np.exp(-1j * p.theta_a) - 1j * p.g_ma * m_s)
               / (1j * p.delta_a + p.kappa_a))
    # undriven entries have the zero state, whatever their response
    undriven = (eps_a == 0.0) & (eps_m == 0.0)
    return MeanFieldBatch(
        alpha_s=np.where(undriven, 0j, alpha_s),
        m_s=np.where(undriven, 0j, m_s),
        abs_ms_sq=np.where(undriven, 0.0, abs_ms_sq),
        q_s=np.where(undriven, 0.0, q_s),
        delta_m=np.where(undriven, dt, dt - p.g_mb * q_s),
        delta_m_tilde=dt,
        singular=singular & ~undriven)


def solve_steady_state(params: PhysicalParams,
                       bare_delta_m: float | None = None) -> MeanFieldState:
    """Solve the classical fixed point.

    With ``bare_delta_m=None`` the effective detuning is pinned to
    ``params.delta_m_tilde_target`` and the bare detuning is back-solved,
    by :func:`solve_effective_batch` on a batch of one.  Passing a bare
    detuning instead activates the cubic self-consistency mode with
    homotopy root selection.

    Raises ParameterError outside the parameter domain, NoSteadyStateError
    if the magnon response has no admissible solution (e.g. at an exact
    pole), and NumericalError if a field of the state is not finite.
    """
    p = batch_of_one(params)
    with np.errstate(all="ignore"):
        if bare_delta_m is None:
            mf = solve_effective_batch(p)
            if mf.singular[0]:
                raise NoSteadyStateError(SINGULAR_RESPONSE)
            state = mf.state(0)
        else:
            eps_a, eps_m = (float(eps[0]) for eps in p.drive_amplitudes())
            state = _solve_bare(params, eps_a, eps_m, bare_delta_m)
    if not np.isfinite(list(vars(state).values())).all():
        raise NumericalError(NON_FINITE_STATE)
    return state


def _cubic_real_roots(a3: float, a2: float, a1: float, a0: float) -> list[float]:
    """Real roots of a3 x^3 + a2 x^2 + a1 x + a0 via the discriminant-based
    closed form (trigonometric/Cardano), no iteration."""
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
    # three real roots (possibly degenerate)
    r = 2.0 * math.sqrt(-p / 3.0)
    arg = max(-1.0, min(1.0, 3.0 * q / (p * r)))
    phi = math.acos(arg)
    return sorted(r * math.cos((phi - turn) / 3.0) + shift
                  for turn in (0.0, 2.0 * math.pi, 4.0 * math.pi))


def _self_consistency_roots(num2: float, d0: complex, c: complex,
                            beta: float) -> list[float]:
    """Admissible (real, non-negative) roots u = |m_s|^2 of
    u * |d0 - i*beta*c*u|^2 = num2: num2 is |num|^2 and d0 the response's
    den at the bare detuning, c the cavity response i*delta_a + kappa_a,
    and beta = g_mb^2 / omega_b.

    The cubic is solved in a normalized variable w = u / u_ref with
    u_ref the zero-coupling solution, which keeps coefficients O(1).
    """
    if abs(d0) == 0.0 and beta == 0.0:
        raise NoSteadyStateError(SINGULAR_RESPONSE)
    if beta == 0.0:
        return [num2 / abs(d0) ** 2]
    u_ref = num2 / abs(d0) ** 2 if abs(d0) > 0.0 else (num2 / beta ** 2) ** (1. / 3.)
    if u_ref == 0.0:
        return [0.0]
    # u|d0 - i*beta*c*u|^2 - num2 = 0, expanded in powers of u
    k3 = beta ** 2 * abs(c) ** 2
    k2 = 2.0 * beta * (c * d0.conjugate()).imag
    k1 = abs(d0) ** 2
    # normalize: u = u_ref * w
    roots = _cubic_real_roots(k3 * u_ref ** 3, k2 * u_ref ** 2, k1 * u_ref, -num2)
    out = []
    for w in roots:
        u = w * u_ref
        if u < 0.0 and u > -1e-12 * u_ref:
            u = 0.0
        if u < 0.0:
            continue
        # one Newton polish step on f(u) = u|den(u)|^2 - num2
        for _ in range(3):
            f = u * (k1 + k2 * u + k3 * u * u) - num2
            df = k1 + 2.0 * k2 * u + 3.0 * k3 * u * u
            if df == 0.0:
                break
            step = f / df
            u_new = u - step
            if u_new < 0.0:
                u_new = 0.0
            if abs(u_new - u) <= _POLISH_TOL * max(u, u_ref):
                u = u_new
                break
            u = u_new
        out.append(u)
    # deduplicate roots that collapsed under polishing
    out.sort()
    dedup: list[float] = []
    for u in out:
        if not dedup or abs(u - dedup[-1]) > 1e-9 * max(u, u_ref):
            dedup.append(u)
    if not dedup:
        raise NoSteadyStateError(
            "self-consistency cubic has no admissible non-negative root")
    return dedup


def _solve_bare(params: PhysicalParams, eps_a: float, eps_m: float,
                delta_m: float) -> MeanFieldState:
    """Find the self-consistent effective detuning at the bare detuning
    ``delta_m``; :func:`solve_effective_batch` gives the state there.  An
    undriven system has the zero state."""
    if eps_a == 0.0 and eps_m == 0.0:
        return MeanFieldState(alpha_s=0j, m_s=0j, q_s=0.0, p_s=0.0,
                              delta_m=delta_m, delta_m_tilde=delta_m)
    num, d0, _ = _magnon_response(params, eps_a, eps_m, delta_m)
    num2, d0 = float(abs(num) ** 2), complex(d0)
    c = 1j * params.delta_a + params.kappa_a
    # homotopy in the coupling, continued from the zero-coupling solution
    u = _self_consistency_roots(num2, d0, c, 0.0)[0]
    roots = [u]
    for k in range(1, _HOMOTOPY_STEPS + 1):
        g_k = params.g_mb * k / _HOMOTOPY_STEPS
        roots = _self_consistency_roots(num2, d0, c, g_k ** 2 / params.omega_b)
        u = min(roots, key=lambda r: abs(r - u))
    # tie-break: smallest admissible root wins if continuation is ambiguous
    ambiguous = [r for r in roots if abs(r - u) <= 1e-9 * max(u, roots[-1])]
    if len(ambiguous) > 1:
        u = min(ambiguous)
    q_s = -params.g_mb * u / params.omega_b
    delta_m_tilde = delta_m + params.g_mb * q_s
    mf = solve_effective_batch(ParamBatch.from_base(
        params.replace(delta_m_tilde_target=delta_m_tilde), 1))
    if mf.singular[0]:
        raise NoSteadyStateError(
            "magnon linear response is singular at the self-consistent detuning")
    return replace(mf.state(0), q_s=q_s, delta_m=delta_m,
                   root_multiplicity=len(roots))


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
        num, den, scale = _magnon_response(
            params.replace(kappa_a=0.0, kappa_m=0.0), eps_a, eps_m,
            delta_m_tilde)
        if scale == 0.0 or abs(den) < 1e-12 * scale:
            raise SingularityError("approximate magnon response pole: "
                                   "g_ma^2 = delta_m_tilde * delta_a")
        m_s = complex(num / den)
    if not cmath.isfinite(m_s):
        raise NumericalError(NON_FINITE_STATE)
    return m_s


def classical_rhs(params: PhysicalParams, alpha: complex, m: complex,
                  q: float, p: float, delta_m: float):
    """Right-hand side of the nonlinear classical flow at a given point.

    Returns (dalpha/dt, dm/dt, dq/dt, dp/dt).  The drift matrix of the
    linearized fluctuation dynamics is the Jacobian of this flow mapped to
    quadratures.
    """
    eps_a, eps_m = params.drive_amplitudes()
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
    return dalpha, dm, dq, dp


def steady_state_residual(params: PhysicalParams,
                          state: MeanFieldState) -> float:
    """Euclidean norm of the classical flow at ``state``, normalized by the
    drive-amplitude scale.  Zero iff the state is an exact fixed point."""
    dalpha, dm, dq, dp = classical_rhs(
        params, state.alpha_s, state.m_s, state.q_s, state.p_s, state.delta_m)
    eps_a, eps_m = params.drive_amplitudes()
    scale = max(eps_a, eps_m)
    if scale == 0.0:
        scale = 1.0
    return math.sqrt(abs(dalpha) ** 2 + abs(dm) ** 2 + dq ** 2 + dp ** 2) / scale
