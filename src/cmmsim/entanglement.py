"""Gaussian entanglement measures on 6x6 covariance matrices.

Modes are labeled 'a' (cavity), 'm' (magnon), 'b' (mechanics) in that
order; quadratures interleave as (x_1, p_1, x_2, p_2, ...) with vacuum
variance 1/2.  Logarithmic negativity kinks at 2*nu = 1, the contangle is
its square, and the residual contangle of pivot r is
E^2(r|st) - E^2(r|s) - E^2(r|t).

Symplectic spectra come from one routine, :func:`_spectra`, which scales,
Cholesky-factors and diagonalizes a checked stack (:func:`_checked`) and
gives its messages.  :func:`symplectic_spectra` runs it on any stack;
:func:`entanglement_batch` runs it on the pair blocks and once on V for
its three splits.
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
#: the same with mode a, m or b's block of Omega negated, shape (3, 6, 1).
#: Transposing mode j negates its momentum, S_j V S_j with S_j diagonal,
#: and the Cholesky factor of S_j V S_j is S_j L S_j exactly, so
#: K = S_j (L^T Omega_j L) S_j with Omega_j = S_j Omega S_j: the spectra of
#: all three splits come from V's factor L and Omega_j
_SPLIT_OMEGA = _SIGNS * np.repeat(1.0 - 2.0 * np.eye(3), 2, axis=1)[..., None]
#: a pair block transposes its first mode, in its own 4x4 quadratures
_PAIR_OMEGA = _SPLIT_OMEGA[0, :4]


def _checked(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matrices ``m``, shape (..., n, n), with every non-finite one
    zeroed, and each one's largest |entry| ``top`` (non-finite exactly
    where the matrix is: max propagates NaN) and largest |M - M^T|."""
    top = np.abs(m).max(axis=(-2, -1))
    finite = np.isfinite(top)
    if not finite.all():
        m = np.where(finite[..., None, None], m, 0.0)
    return m, top, np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1))


def _spectra(m: np.ndarray, top: np.ndarray, asym: np.ndarray,
             signs: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Symplectic spectra of the matrices ``m``, shape (..., n, n), whose
    largest |entry| is ``top`` and largest |M - M^T| is ``asym``, both of
    shape (...) and ``top`` non-finite exactly where a matrix is (see
    :func:`_checked`), with the Omega whose row signs ``signs`` broadcast
    against ``m``'s rows.

    Each matrix is divided by an even power of two near its largest
    |entry|, 2**shift, so that K^T K cannot overflow; this is exact, and
    its Cholesky factor L, K and nu scale by exact powers of two with it.
    A matrix that is non-finite or not symmetric is factored as the
    identity, one that is not positive definite gets a zero factor (so
    nu^2 = 0).  K = L^T Omega L is similar to Omega M and real
    antisymmetric, so its eigenvalues are +/- i nu and K^T K has every
    nu^2 twice; one batched ``eigvalsh`` gives them.  Returns the
    spectra, shape (..., n) with ``signs`` broadcast in, and the messages
    as :func:`symplectic_spectra` does, keyed by each matrix's index in
    the flattened leading shape."""
    usable = np.isfinite(top) & (asym <= 1e-8 * top)
    shift = np.frexp(top)[1] & -2
    size = m.shape[-1]
    m = np.ldexp(m, -shift[..., None, None])
    if not usable.all():
        m[~usable] = np.eye(size)
    l, failed = stack_or_nan(np.linalg.cholesky, m.reshape(-1, size, size))
    if failed:
        l[failed] = 0.0
    l = l.reshape(m.shape)
    k = l.swapaxes(-1, -2) @ (l[..., _SWAP[:size], :] * signs)
    # a copy, because numpy sends K^T @ K on one buffer to BLAS syrk, which
    # is slower than gemm for small matrices; eigvalsh reads the lower
    # triangle, the same bits in both
    ktk = k.swapaxes(-1, -2) @ k.copy()
    w = np.linalg.eigvalsh(ktk.reshape(-1, size, size)).reshape(ktk.shape[:-1])
    nu_sq = w[..., 0::2]
    positive = nu_sq[..., 0] > 0.0
    ref = np.maximum(w[..., -1], 1e-300)
    mismatch = np.abs(w[..., 1::2] - nu_sq).max(axis=-1) / ref
    good = usable & positive & (mismatch <= PAIRING_TOL)
    errors = {}
    if not good.all():
        flat = [np.broadcast_to(x, good.shape).ravel()
                for x in (top, asym, usable, positive, mismatch)]
        for j in np.flatnonzero(~good).tolist():
            top_j, asym_j, usable_j, positive_j, mismatch_j = (
                x[j] for x in flat)
            if not np.isfinite(top_j):
                errors[j] = "matrix has non-finite entries"
            elif not usable_j:
                errors[j] = f"matrix is not symmetric: |V - V^T| = {asym_j:.3e}"
            elif not positive_j:
                errors[j] = "matrix is not positive definite"
            else:
                errors[j] = ("symplectic spectrum fails +/- pairing "
                             f"(mismatch {mismatch_j:.2e})")
        nu_sq = np.where(positive[..., None], nu_sq, np.nan)
    return np.ldexp(np.sqrt(nu_sq), shift[..., None]), errors


def symplectic_spectra(m: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Symplectic spectra of a stack of k symmetric 2n x 2n matrices, as a
    symmetric eigenproblem (see :func:`_spectra`).

    A partially transposed covariance matrix is congruent to the
    covariance matrix, so its Cholesky factor exists exactly when the
    state's matrix is positive definite.  Returns the spectra, shape
    (k, n), each ascending, and the message of every matrix that is
    non-finite, not symmetric (both masked before LAPACK), not positive
    definite, or whose doubled nu^2 fail to pair up to PAIRING_TOL, keyed
    by its index; the spectra of those matrices are meaningless (NaN where
    the matrix is not positive definite).
    """
    return _spectra(*_checked(m), _SIGNS[:m.shape[1]])


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

#: the pairs (a, m), (a, b), (m, b) as their 4x4 blocks of a flattened
#: 6x6 covariance matrix
_PAIR_QUADS = np.array([[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]])
_PAIR_ENTRIES = 6 * _PAIR_QUADS[:, :, None] + _PAIR_QUADS[:, None, :]
#: the residual contangle of pivot a, m, b is E^2 of its split minus
#: E^2 of its two pairs, columns of the log-negativities en_am .. en_b_am
_FIRST_PAIR, _SECOND_PAIR = np.array([0, 0, 1]), np.array([1, 2, 2])


def entanglement_batch(v: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Every measure of :func:`entanglement_report` for a stack of k
    covariance matrices, shape (k, 6, 6).

    Each covariance is checked once: a split's largest |entry| and
    asymmetry are V's, and a pair's are the maxima over its 4x4 block,
    since transposing a mode only flips signs.  :func:`_spectra` runs once
    on the 3k pair blocks and once on the k covariances, whose one factor
    gives all three splits' spectra (see _SPLIT_OMEGA).  Returns a (k, 10)
    array whose columns are MEASURES, and the message of every matrix that
    fails a spectrum check or has more than one symplectic eigenvalue
    below vacuum after a 1|2 transposition, keyed by its index: its first
    pair error, else its first one-vs-two error.
    """
    k = v.shape[0]
    pairs, top, asym = _checked(v.reshape(k, 36)[:, _PAIR_ENTRIES])
    nu_pair, pair_errors = _spectra(pairs, top, asym, _PAIR_OMEGA)
    # every entry of V lies in a pair block, so V's largest |entry| and
    # asymmetry are the largest of its pairs'; V, as (k, 1, 6, 6), is
    # factored once for its three splits
    nu_split, split_errors = _spectra(
        v[:, None], top.max(axis=1, keepdims=True),
        asym.max(axis=1, keepdims=True), _SPLIT_OMEGA)
    # at most one symplectic eigenvalue of a physical state's 1|2 partial
    # transposition, the smallest, is below vacuum; the measures rely on it
    vacuum = 0.5 - MONOGAMY_SLACK
    nu_split = nu_split.reshape(3 * k, 3)
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
        [nu_pair[..., 0], nu_split[:, 0].reshape(k, 3)], axis=1)
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
