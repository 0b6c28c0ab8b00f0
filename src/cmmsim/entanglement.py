"""Gaussian entanglement measures on 6x6 covariance matrices.

Modes are labeled 'a' (cavity), 'm' (magnon), 'b' (mechanics) in that
order; quadratures interleave as (x_1, p_1, x_2, p_2, ...) with vacuum
variance 1/2.  Logarithmic negativity kinks at 2*nu = 1, the contangle is
its square, and the residual contangle of pivot r is
E^2(r|st) - E^2(r|s) - E^2(r|t).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dynamics import stack_or_nan
from .errors import NumericalError

#: tolerance on the pairing of the doubled nu^2 eigenvalues of K^T K (see
#: symplectic_spectra), relative to the largest of them
PAIRING_TOL = 1e-9

#: slack on monogamy margins and on the vacuum bound 1/2 of a split's
#: symplectic eigenvalues, absolute
MONOGAMY_SLACK = 1e-10


@dataclass(frozen=True)
class EntanglementReport:
    """Every measure of one covariance matrix, named as the columns of
    :func:`entanglement_batch`: the pairwise (``en_am``, ...) and
    one-vs-two (``en_a_mb``, ...) log-negativities, each exactly 0.0 for a
    PPT-separable split, the three residual contangles and their minimum.
    The pairwise terms are symmetric in the two non-pivot modes, so
    ``r_min`` is the minimum over mode permutations; r_min > 0 certifies
    genuine tripartite entanglement."""

    en_am: float
    en_ab: float
    en_mb: float
    en_a_mb: float
    en_m_ab: float
    en_b_am: float
    residual_a: float
    residual_m: float
    residual_b: float
    r_min: float

    @property
    def monogamy_ok(self) -> bool:
        """Whether every residual contangle is >= -MONOGAMY_SLACK."""
        return all(r >= -MONOGAMY_SLACK for r in
                   (self.residual_a, self.residual_m, self.residual_b))


#: Omega M from the rows of M: each mode's two swapped, the second negated
_SWAP, _SIGNS = np.arange(6) ^ 1, np.array([[1.0], [-1.0]] * 3)


def symplectic_spectra(m: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Symplectic spectra of a stack of k symmetric 2n x 2n matrices, as a
    symmetric eigenproblem.

    With the Cholesky factor M = L L^T, K = L^T Omega L is similar to
    Omega M and real antisymmetric, so its eigenvalues are +/- i nu and
    K^T K has every nu^2 twice; one batched ``eigvalsh`` gives them.  A
    partially transposed covariance matrix is congruent to the covariance
    matrix, so the factor exists exactly when the state's matrix is
    positive definite.

    Returns the spectra, shape (k, n), each ascending, and the message of
    every matrix that is non-finite, not symmetric (both masked before
    LAPACK), not positive definite, or whose doubled nu^2 fail to pair up
    to PAIRING_TOL, keyed by its index; the spectra of those matrices are
    meaningless (NaN where the matrix is not positive definite).
    """
    # max propagates NaN, so top is finite exactly where m is
    top = np.abs(m).max(axis=(1, 2))
    finite = np.isfinite(top)
    if not finite.all():
        m = np.where(finite[:, None, None], m, 0.0)
    asym = np.abs(m - m.swapaxes(1, 2)).max(axis=(1, 2))
    usable = finite & (asym <= 1e-8 * top)
    # divide each matrix by an even power of two near its largest |entry|,
    # 2**shift, so that K^T K cannot overflow; exact, and L, K and nu
    # scale by exact powers of two with it
    shift = np.frexp(top)[1] & -2
    m = np.ldexp(m, -shift[:, None, None])
    if not usable.all():
        m[~usable] = np.eye(m.shape[1])
    l, failed = stack_or_nan(np.linalg.cholesky, m)
    size = m.shape[1]
    omega_l = l[:, _SWAP[:size]] * _SIGNS[:size]
    k = l.swapaxes(1, 2) @ omega_l
    ktk = k.swapaxes(1, 2) @ k
    # zero, so nu^2 = 0, where the factor does not exist
    ktk[failed] = 0.0
    w = np.linalg.eigvalsh(ktk)
    nu_sq = w[:, 0::2]
    positive = nu_sq[:, 0] > 0.0
    ref = np.maximum(w[:, -1], 1e-300)
    mismatch = np.abs(w[:, 1::2] - nu_sq).max(axis=1) / ref
    errors = {}
    good = usable & positive & (mismatch <= PAIRING_TOL)
    for j in (~good).nonzero()[0].tolist():
        if not finite[j]:
            errors[j] = "matrix has non-finite entries"
        elif not usable[j]:
            errors[j] = f"matrix is not symmetric: |V - V^T| = {asym[j]:.3e}"
        elif not positive[j]:
            errors[j] = "matrix is not positive definite"
        else:
            errors[j] = ("symplectic spectrum fails +/- pairing "
                         f"(mismatch {mismatch[j]:.2e})")
    nu = np.sqrt(np.where(positive[:, None], nu_sq, np.nan))
    return np.ldexp(nu, shift[:, None]), errors


def symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive-definite 4x4 or 6x6
    matrix: the n values nu such that Omega V has eigenvalues +/- i nu,
    by the routine of :func:`symplectic_spectra`.

    Returned ascending.  Raises NumericalError if the matrix is not finite,
    symmetric and positive definite, or its doubled nu^2 do not pair up to
    PAIRING_TOL.
    """
    v = np.asarray(v, dtype=float)
    if v.shape not in ((4, 4), (6, 6)):
        raise ValueError(f"expected a 4x4 or 6x6 matrix, got {v.shape}")
    nus, errors = symplectic_spectra(v[None])
    if errors:
        raise NumericalError(errors[0])
    return nus[0]


#: columns of entanglement_batch: the EntanglementReport fields, in order
MEASURES = tuple(f.name for f in fields(EntanglementReport))

#: sign patterns transposing a, m, b against the other two modes
_SPLIT_SIGNS = np.array([np.outer(s, s) for s in 1.0 - 2.0 * np.eye(6)[1::2]])
#: the partially transposed pairs (a, m), (a, b), (m, b) as 4x4 blocks
#: of the splits, flattened (k, 3, 6, 6): the pair's quadratures in the
#: split that transposes its first mode (a, a, m)
_PAIR_QUADS = np.array([[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]])
_PAIR_ENTRIES = (36 * np.array([0, 0, 1])[:, None, None]
                 + 6 * _PAIR_QUADS[:, :, None] + _PAIR_QUADS[:, None, :])
#: the residual contangle of pivot a, m, b is E^2 of its split minus
#: E^2 of its two pairs, columns of the log-negativities en_am .. en_b_am
_FIRST_PAIR, _SECOND_PAIR = np.array([0, 0, 1]), np.array([1, 2, 2])


def entanglement_batch(v: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Every measure of :func:`entanglement_report` for a stack of k
    covariance matrices, shape (k, 6, 6).

    The three pair and three one-vs-two partial transpositions go through
    two batched :func:`symplectic_spectra` calls.  Returns a (k, 10) array
    whose columns are MEASURES, and the message of every matrix that fails
    a spectrum check or has more than one symplectic eigenvalue below
    vacuum after a 1|2 transposition, keyed by its index: its first pair
    error, else its first one-vs-two error.
    """
    k = v.shape[0]
    splits = v[:, None] * _SPLIT_SIGNS
    pairs = splits.reshape(k, 108)[:, _PAIR_ENTRIES]
    nu_pair, pair_errors = symplectic_spectra(pairs.reshape(3 * k, 4, 4))
    nu_split, split_errors = symplectic_spectra(splits.reshape(3 * k, 6, 6))
    # at most one symplectic eigenvalue of a physical state's 1|2 partial
    # transposition, the smallest, is below vacuum; the measures rely on it
    vacuum = 0.5 - MONOGAMY_SLACK
    for j in (nu_split[:, 1] < vacuum).nonzero()[0].tolist():
        below = int((nu_split[j] < vacuum).sum())
        split_errors.setdefault(
            j, f"{below} symplectic eigenvalues below vacuum after a 1|2 "
            "partial transposition; covariance matrix is not physical")
    errors = {}
    for j, message in sorted(pair_errors.items()) + sorted(split_errors.items()):
        errors.setdefault(j // 3, message)
    # log-negativities max[0, -ln(2 nu)]: exactly 0.0 where 2 nu >= 1 or NaN
    two_nu = 2.0 * np.concatenate(
        [nu_pair[:, 0].reshape(k, 3), nu_split[:, 0].reshape(k, 3)], axis=1)
    en = np.where(two_nu < 1.0, -np.log(two_nu), 0.0)
    sq = en * en
    residuals = sq[:, 3:] - sq[:, _FIRST_PAIR] - sq[:, _SECOND_PAIR]
    r_min = residuals.min(axis=1, keepdims=True)
    return np.concatenate([en, residuals, r_min], axis=1), errors


def entanglement_report(v: np.ndarray) -> EntanglementReport:
    """Evaluate every measure reported by the sweep engine on one matrix.

    Raises NumericalError if a partial transposition fails a spectrum
    check (see :func:`entanglement_batch`)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got {v.shape}")
    measures, errors = entanglement_batch(v[None])
    if errors:
        raise NumericalError(errors[0])
    return EntanglementReport(**dict(zip(MEASURES, measures[0].tolist())))
