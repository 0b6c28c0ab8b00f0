"""Linearized fluctuation dynamics: drift/diffusion matrices and the
steady-state covariance matrix, the symmetric solution of the Lyapunov
equation a V + V a^T = -d, solved for its 21 independent entries.

Quadrature ordering is fixed throughout as (X, Y, x, y, q, p): cavity,
magnon, mechanics, position-like before momentum-like.  The covariance
matrix uses the vacuum normalization V_vac = I/2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, UnstableSystemError
from .meanfield import MeanFieldBatch, MeanFieldState
from .params import ParamBatch, PhysicalParams, batch_of_one

SQRT2 = math.sqrt(2.0)

#: relative stability margin, in units of omega_b
STABILITY_EPS = 1e-9

#: enforced relative Frobenius residual of the Lyapunov solve
LYAPUNOV_RESIDUAL_TOL = 1e-10

#: the quadratures driven by a noise, and which bath drives each: the
#: cavity's, the magnon's, the mechanics' (its momentum only)
_NOISY, _NOISE_OF = np.array([0, 1, 2, 3, 5]), np.array([0, 0, 1, 1, 2])

#: the sign of each entry of the drift matrix (1 where it is zero)
_DRIFT_SIGNS = np.ones((6, 6))
_DRIFT_SIGNS[[0, 1, 1, 1, 2, 3, 3, 3, 3, 5, 5, 5, 5],
             [0, 0, 1, 2, 2, 0, 2, 3, 4, 2, 3, 4, 5]] = -1.0


def build_drift(params: PhysicalParams, state: MeanFieldState) -> np.ndarray:
    """Real 6x6 drift matrix of the linearized fluctuation dynamics, the
    :func:`drift_batch` of one point.

    Raises ParameterError outside the parameter domain.
    """
    return drift_batch(batch_of_one(params), state)[0]


def build_diffusion(params: PhysicalParams) -> np.ndarray:
    """Diagonal 6x6 diffusion matrix of the input noises, the
    :func:`diffusion_batch` of one point.

    Raises ParameterError outside the parameter domain.
    """
    p = batch_of_one(params)
    with np.errstate(all="ignore"):
        return np.diag(diffusion_batch(p)[0])


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
    dm, m_re, m_im = mf.delta_m_tilde, cm * mf.m_s.real, cm * mf.m_s.imag
    a = np.zeros((len(p), 6, 6))
    a[:, 0, 0], a[:, 0, 1], a[:, 0, 3] = p.kappa_a, p.delta_a, g
    a[:, 1, 0], a[:, 1, 1], a[:, 1, 2] = p.delta_a, p.kappa_a, g
    a[:, 2, 1], a[:, 2, 2], a[:, 2, 3], a[:, 2, 4] = g, p.kappa_m, dm, m_im
    a[:, 3, 0], a[:, 3, 2], a[:, 3, 3], a[:, 3, 4] = g, dm, p.kappa_m, m_re
    a[:, 4, 5] = p.omega_b
    a[:, 5, 2], a[:, 5, 3], a[:, 5, 4], a[:, 5, 5] = (m_re, m_im, p.omega_b,
                                                      p.gamma_b)
    # the entries above lack their sign; one multiplication by +-1 gives
    # each its sign, exactly as a negation would
    a *= _DRIFT_SIGNS
    return a


def diffusion_batch(p: ParamBatch) -> np.ndarray:
    """Diagonals of the diffusion matrices, shape (n, 6): kappa_a(2N_a+1)
    twice, kappa_m(2N_m+1) twice, 0 for the mechanical position and
    gamma_b(2N_b+1) for the mechanical momentum, for entries without
    ``violations``; non-finite where an occupation overflows.  Call under
    ``np.errstate(all="ignore")``."""
    rates = np.array([p.kappa_a, p.kappa_m, p.gamma_b])
    d = np.zeros((len(p), 6))
    d[:, _NOISY] = (rates * (2.0 * p.occupations() + 1.0))[_NOISE_OF].T
    return d


#: the 21 unknowns of a symmetric 6x6 V, its entries (i, j) with i <= j;
#: also the 21 independent equations of a V + V a^T = -d
_I, _J = np.triu_indices(6)

#: each unknown's position among the 21, at both of its entries (i, j)
#: and (j, i) of V
_UNKNOWN = np.zeros((6, 6), int)
_UNKNOWN[_I, _J] = _UNKNOWN[_J, _I] = np.arange(_I.size)


def _operator_tables() -> tuple[np.ndarray, np.ndarray]:
    """The two flat drift entries whose sum is each coefficient of the
    21x21 operator of a V + V a^T on symmetric V; index 36 stands for 0.

    Entry (i, j) of a V + V a^T is sum_m a_im V_mj + a_jm V_im, so the
    coefficient of the unknown (k, l) collects a_ik if j = l, a_il if
    j = k != l, a_jk if i = l and a_jl if i = k != l.  With i <= j and
    k <= l at most two of the four hold.
    """
    i, j = _I[:, None], _J[:, None]
    k, l = _I[None, :], _J[None, :]
    terms = np.sort([np.where(j == l, 6 * i + k, 36),
                     np.where((j == k) & (k != l), 6 * i + l, 36),
                     np.where(i == l, 6 * j + k, 36),
                     np.where((i == k) & (k != l), 6 * j + l, 36)], axis=0)
    return terms[0], terms[1]


_FIRST, _SECOND = _operator_tables()


def steady_covariances(a: np.ndarray,
                       d: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Symmetric solutions V of a V + V a^T = -d for a stack of stable 6x6
    drifts ``a`` and symmetric diffusion matrices ``d``, shape (n, 6, 6).

    The unknowns are the 21 entries of V on and above the diagonal, so
    each entry is one real 21x21 solve.  Every coefficient of the operator
    is a drift entry or the sum of two, gathered by index, so an entry's
    operator, and with it its V, is the same bits in any stack.  Returns
    the covariances and, keyed by entry, the message of every entry whose
    operator is singular (impossible for a stable drift in exact
    arithmetic) or whose relative Frobenius residual is not within
    LYAPUNOV_RESIDUAL_TOL, NaN included; the covariance of each is NaN.
    """
    # gathered, not a product with a 0/1 (36, 441) matrix: that gives the
    # same bits in about the same time (76 us per 128 points on 2 CPUs,
    # the gather 61 us), but OpenBLAS threads it, and with two forked
    # sweep workers the 101 x 101 phase grid took 0.40-0.62 s, not 0.21 s.
    # The drift entries as rows, the gathers' fastest axis, and row 36 zero
    n = len(a)
    rows = np.zeros((37, n))
    rows[:36] = a.reshape(n, 36).T
    op = rows[_FIRST]
    op += rows[_SECOND]
    u, singular = stack_or_nan(np.linalg.solve, op.transpose(2, 0, 1),
                               -d[:, _I, _J, None])
    v = u[:, _UNKNOWN, 0]
    residual = lyapunov_residual(a, v, d)
    errors = {}
    for k in (~(residual <= LYAPUNOV_RESIDUAL_TOL)).nonzero()[0].tolist():
        # from finite a and d, a non-finite residual of a solved entry
        # means that V or its residual's products overflowed
        if k in singular:
            errors[k] = "singular Lyapunov operator"
        elif (not math.isfinite(residual[k]) and np.isfinite(a[k]).all()
                and np.isfinite(d[k]).all()):
            errors[k] = ("Lyapunov solution overflows "
                         f"(residual {residual[k]:.3e})")
        else:
            errors[k] = (f"Lyapunov residual {residual[k]:.3e} exceeds "
                         f"{LYAPUNOV_RESIDUAL_TOL:.1e}")
        v[k] = np.nan
    return v, errors


def solve_lyapunov(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Unique symmetric solution V of a V + V a^T = -d for a stable 6x6
    ``a`` and symmetric ``d``: the :func:`steady_covariances` of a stack
    of one, whose residual is verified against LYAPUNOV_RESIDUAL_TOL.

    Raises ValueError naming the shape of an ``a`` or ``d`` that is not
    6x6, UnstableSystemError when ``a`` is not Hurwitz-stable, and
    NumericalError if the solution overflows (finite ``a`` and ``d``
    giving a non-finite residual) or the residual contract fails.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    for m in (a, d):
        if m.shape != (6, 6):
            raise ValueError(f"expected a 6x6 matrix, got {m.shape}")
    margin = float(np.linalg.eigvals(a).real.max())
    if margin >= 0.0:
        raise UnstableSystemError(
            f"no steady state: spectral abscissa {margin:.3e} >= 0")
    v, errors = steady_covariances(a[None], d[None])
    if errors:
        raise NumericalError(errors[0])
    return v[0]


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


def stack_or_nan(func, *stacks: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A stacked ``numpy.linalg`` function (``cholesky``, ``solve``)
    applied to stacks of matrices; an entry it fails on (not positive
    definite, singular) gets NaN entries instead of failing the whole
    stack.  Returns the result, shaped as the last stack, and the entries
    it failed on, in order."""
    try:
        return func(*stacks), []
    except np.linalg.LinAlgError:
        out, failed = np.full_like(stacks[-1], np.nan), []
        for k, args in enumerate(zip(*stacks)):
            try:
                out[k] = func(*args)
            except np.linalg.LinAlgError:
                failed.append(k)
        return out, failed

