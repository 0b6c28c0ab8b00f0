"""Gaussian entanglement measures: symplectic spectra, negativities,
contangles, monogamy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmmsim import NumericalError, entanglement_report, symplectic_eigenvalues
from cmmsim.entanglement import (MEASURES, MONOGAMY_SLACK,
                                 entanglement_batch, symplectic_spectra)
from conftest import (PAIRS, embed_with_vacuum, entanglement_oracle,
                      min_uncertainty_eig, pt_symplectic_oracle,
                      random_physical_cm, random_symplectic,
                      single_mode_rotation, tmsv_cm, transpose_mode)

VACUUM6 = 0.5 * np.eye(6)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert np.allclose(symplectic_eigenvalues(VACUUM6), [0.5, 0.5, 0.5])

    def test_williamson_diagonal(self):
        v = np.diag([0.9, 0.9, 0.6, 0.6])
        assert np.allclose(symplectic_eigenvalues(v), [0.6, 0.9], atol=1e-12)

    def test_tmsv_after_partial_transposition(self):
        v = tmsv_cm(1.0)
        p0 = np.diag([1.0, -1.0, 1.0, 1.0])
        nus = symplectic_eigenvalues(p0 @ v @ p0)
        assert nus[0] == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-12)
        assert np.allclose(nus, pt_symplectic_oracle(v, 0), atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 5), (4, 6), (6,), (2, 6, 6)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ValueError) as err:
            symplectic_eigenvalues(np.zeros(shape))
        assert str(err.value) == f"expected a 4x4 or 6x6 matrix, got {shape}"

    def test_asymmetric_input_rejected(self):
        v = 0.5 * np.eye(4)
        v[0, 1] = 0.3
        with pytest.raises(NumericalError):
            symplectic_eigenvalues(v)

    def test_uncertainty_bound_for_physical_states(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = random_physical_cm(rng)
            assert symplectic_eigenvalues(v)[0] >= 0.5 - 1e-10

    def test_matches_eig_oracle_on_random_states(self):
        # Tolerance 1e-10 of the largest partially transposed symplectic
        # eigenvalue: both sides lose accuracy relative to the spectrum's
        # scale, and over 3000 such states the worst gap was 3.7e-13 of it.
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = random_physical_cm(rng, nu_max=10.0 ** rng.uniform(0.0, 3.0),
                                   squeeze_max=rng.uniform(0.0, 2.0))
            pairs = [v[np.ix_(q, q)] for q in PAIRS]
            for cms, modes in (((v,) * 3, (0, 1, 2)), (pairs, (0, 0, 0))):
                nus, errors = symplectic_spectra(np.array([
                    transpose_mode(cm, mode) for cm, mode in zip(cms, modes)]))
                assert errors == {}
                for nu, cm, mode in zip(nus, cms, modes):
                    want = pt_symplectic_oracle(cm, mode)
                    assert np.abs(nu - want).max() <= 1e-10 * want.max()

    def test_powers_of_four_scale_the_spectra_bit_for_bit(self):
        # each matrix is divided by a power of four near its largest
        # entry, which is exact, so scaling by 4**k only scales nu, even
        # where K^T K of the unscaled matrix would overflow or underflow
        rng = np.random.default_rng(14)
        for _ in range(20):
            v = random_physical_cm(rng, nu_max=10.0 ** rng.uniform(0.0, 3.0),
                                   squeeze_max=rng.uniform(0.0, 2.0))
            for stack in (np.array([v] + [transpose_mode(v, mode)
                                          for mode in range(3)]),
                          np.array([transpose_mode(v[np.ix_(q, q)], 0)
                                    for q in (PAIRS[0], PAIRS[2])])):
                nus, errors = symplectic_spectra(stack)
                for k in (-200, -130, -1, 1, 75, 200):
                    got, got_errors = symplectic_spectra(4.0 ** k * stack)
                    assert got_errors == errors
                    assert np.array_equal(got, 4.0 ** k * nus)
        # the symmetry check is relative too: an asymmetry of 1e-6 of the
        # largest entry is rejected at every scale
        v = random_physical_cm(rng)
        v[0, 2] += 1e-6 * np.abs(v).max()
        for k in (-200, -130, -1, 0, 1, 75, 200):
            _, errors = symplectic_spectra(4.0 ** k * v[None])
            assert list(errors) == [0]
            assert errors[0].startswith("matrix is not symmetric")

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.floats(0.5, 1e3), min_size=2, max_size=3),
           st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
    def test_williamson_form_is_recovered(self, nus, squeeze, seed):
        # V = S diag(nu) S^T has symplectic spectrum nu for any symplectic S
        nus = np.sort(nus)
        s = random_symplectic(np.random.default_rng(seed), len(nus), squeeze)
        v = s @ np.diag(np.repeat(nus, 2)) @ s.T
        got = symplectic_eigenvalues(0.5 * (v + v.T))
        assert np.abs(got - nus).max() <= 1e-10 * nus.max()

    def test_not_positive_definite_rejected(self):
        v = np.diag([1.0, 0.5, -0.2, 0.5])  # symmetric, one negative entry
        with pytest.raises(NumericalError, match="not positive definite"):
            symplectic_eigenvalues(v)
        with pytest.raises(NumericalError, match="not positive definite"):
            symplectic_eigenvalues(np.zeros((6, 6)))

    def test_not_positive_definite_is_confined_to_its_matrix(self):
        rng = np.random.default_rng(13)
        good = [random_physical_cm(rng) for _ in range(3)]
        bad = good[1].copy()
        bad[4, 4] = -bad[4, 4]
        measures, errors = entanglement_batch(np.array([good[0], bad, good[2]]))
        assert list(errors) == [1] and "not positive definite" in errors[1]
        for k in (0, 2):
            alone, _ = entanglement_batch(good[k][None])
            assert np.array_equal(measures[k], alone[0])


def measures_of_spectra(v):
    """The MEASURES of each covariance of the stack ``v`` from
    symplectic_spectra of its explicitly built partial transposes, the
    arithmetic of entanglement_batch written out, and the first error of
    each covariance: its first pair's, else its first split's."""
    k = len(v)
    pairs = np.array([transpose_mode(cm[np.ix_(q, q)], 0)
                      for cm in v for q in PAIRS])
    splits = np.array([transpose_mode(cm, mode)
                       for cm in v for mode in range(3)])
    nu_pair, pair_errors = symplectic_spectra(pairs)
    nu_split, split_errors = symplectic_spectra(splits)
    for j in np.flatnonzero(nu_split[:, 1] < 0.5 - MONOGAMY_SLACK).tolist():
        below = int((nu_split[j] < 0.5 - MONOGAMY_SLACK).sum())
        split_errors.setdefault(
            j, f"{below} symplectic eigenvalues below vacuum after a 1|2 "
            "partial transposition; covariance matrix is not physical")
    errors = {}
    for j, message in sorted(pair_errors.items()) + sorted(split_errors.items()):
        errors.setdefault(j // 3, message)
    two_nu = 2.0 * np.concatenate([nu_pair[:, 0].reshape(k, 3),
                                   nu_split[:, 0].reshape(k, 3)], axis=1)
    en = np.where(two_nu < 1.0, -np.log(two_nu), 0.0)
    sq = en * en
    residuals = np.stack([sq[:, 3] - sq[:, 0] - sq[:, 1],
                          sq[:, 4] - sq[:, 0] - sq[:, 2],
                          sq[:, 5] - sq[:, 1] - sq[:, 2]], axis=1)
    return (np.concatenate([en, residuals, residuals.min(axis=1)[:, None]],
                           axis=1), errors)


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64),
                                                 y.view(np.uint64))


#: momentum sign flips S_j transposing mode a, m, b of a 6x6 matrix
SIGN_FLIPS = [np.diag(np.where(np.arange(6) == 2 * mode + 1, -1.0, 1.0))
              for mode in range(3)]


class TestOnePass:
    """entanglement_batch checks each covariance once and factors it once
    for its three splits; it must give what symplectic_spectra gives for
    each explicitly built partial transpose, bit for bit, and the same
    message for every kind of failure."""

    @pytest.fixture(scope="class")
    def physical(self):
        rng = np.random.default_rng(21)
        return np.array([random_physical_cm(
            rng, nu_max=10.0 ** rng.uniform(0.0, 3.0),
            squeeze_max=rng.uniform(0.0, 2.0)) for _ in range(12)])

    @pytest.fixture(scope="class")
    def covariances(self, physical):
        # scaled by 4**k, k = -200 ... 200; below k = 0 most are below
        # vacuum, so they fail the vacuum check, with the same messages
        return np.concatenate([4.0 ** k * physical
                               for k in range(-200, 201, 8)])

    @pytest.mark.bits
    def test_equals_the_spectra_of_explicit_transposes_bit_for_bit(
            self, covariances):
        want, want_errors = measures_of_spectra(covariances)
        assert 0 < len(want_errors) < len(covariances)
        for chunk in (len(covariances), 128, 7):
            got, errors = [], {}
            for s in range(0, len(covariances), chunk):
                measures, found = entanglement_batch(covariances[s:s + chunk])
                got.append(measures)
                errors.update((s + j, message) for j, message in found.items())
            assert same_bits(np.concatenate(got), want)
            assert errors == want_errors
        for j, (v, row) in enumerate(zip(covariances, want)):
            got, errors = entanglement_batch(v[None])
            assert same_bits(got[0], row)
            assert errors == ({0: want_errors[j]} if j in want_errors else {})

    @pytest.mark.bits
    def test_the_factor_of_a_sign_flip_is_the_flipped_factor(
            self, covariances):
        # cholesky(S V S) = S cholesky(V) S for diagonal S = +/-1, bit for
        # bit: every product in the factorization flips with S
        factors = np.linalg.cholesky(covariances)
        for s in SIGN_FLIPS:
            assert same_bits(np.linalg.cholesky(s @ covariances @ s),
                             s @ factors @ s)
            for q in PAIRS:
                blocks = covariances[:, q][:, :, q]
                sq = s[np.ix_(q, q)]
                assert same_bits(np.linalg.cholesky(sq @ blocks @ sq),
                                 sq @ np.linalg.cholesky(blocks) @ sq)

    @staticmethod
    def crafted():
        """Covariances that fail in one way each, by name, with the
        message each gets."""
        v = random_physical_cm(np.random.default_rng(22))
        v = 0.5 * (v + v.T)
        non_finite = v.copy()
        non_finite[0, 5] = non_finite[5, 0] = np.inf
        # (2, 4) lies in the block of the pair (m, b) only
        asymmetric = v.copy()
        asymmetric[2, 4] += 1e-5
        # eigenvalues 1.3 (five times) and -0.5; every 4x4 block has
        # eigenvalues 1.3 and 0.1
        not_pd = np.eye(6) - 0.3 * (np.ones((6, 6)) - np.eye(6))
        two_below = np.diag([0.3, 0.3, 0.3, 0.3, 1.0, 1.0])
        return {
            "non_finite": (non_finite, "matrix has non-finite entries"),
            "asymmetric_pair": (asymmetric,
                                "matrix is not symmetric: |V - V^T| = "
                                "1.000e-05"),
            "not_pd_with_pd_pairs": (not_pd,
                                     "matrix is not positive definite"),
            "two_below_vacuum": (two_below,
                                 "2 symplectic eigenvalues below vacuum "
                                 "after a 1|2 partial transposition; "
                                 "covariance matrix is not physical"),
        }

    @pytest.mark.parametrize("name", ["non_finite", "asymmetric_pair",
                                      "not_pd_with_pd_pairs",
                                      "two_below_vacuum"])
    def test_crafted_failures_keep_their_message(self, name, physical):
        bad, message = self.crafted()[name]
        if name == "not_pd_with_pd_pairs":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(bad)
            for q in PAIRS:
                np.linalg.cholesky(bad[np.ix_(q, q)])
        stack = np.array([physical[0], bad, physical[1]])
        measures, errors = entanglement_batch(stack)
        assert errors == {1: message}
        assert measures_of_spectra(stack)[1] == errors
        for k in (0, 2):
            alone, _ = entanglement_batch(stack[k][None])
            assert same_bits(measures[k], alone[0])
        with pytest.raises(NumericalError) as err:
            entanglement_report(bad)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["non_finite", "asymmetric"])
    def test_a_pair_error_precedes_the_split_error(self, name, physical):
        # (0, 2) lies in the block of the pair (a, m) only, (0, 5) in that
        # of (a, b) only and (2, 4) in that of (m, b) only; the first
        # pair's error is the message, not V's own
        v = 0.5 * (physical[0] + physical[0].T)
        v[0, 2] += 1e-5
        if name == "non_finite":
            v[0, 5] = v[5, 0] = np.inf
            own = "matrix has non-finite entries"
        else:
            v[2, 4] += 1e-3
            own = "matrix is not symmetric: |V - V^T| = 1.000e-03"
        assert symplectic_spectra(v[None])[1] == {0: own}
        message = "matrix is not symmetric: |V - V^T| = 1.000e-05"
        stack = np.array([physical[1], v, physical[2]])
        _, errors = entanglement_batch(stack)
        assert errors == {1: message}
        assert measures_of_spectra(stack)[1] == errors
        with pytest.raises(NumericalError) as err:
            entanglement_report(v)
        assert str(err.value) == message

    def test_a_pairing_failure_keeps_its_message(self, physical,
                                                 monkeypatch):
        # no covariance fails the pairing check, so the eigenvalues of one
        # split (covariance 1, m|ab: row 3 * 1 + 1 of the 3k splits) are
        # pulled apart by 1e-6 of the largest
        eigvalsh = np.linalg.eigvalsh

        def unpaired(m):
            w = eigvalsh(m)
            if m.shape[1:] == (6, 6):
                w[4, 1] = w[4, 0] + 1e-6 * w[4, -1]
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", unpaired)
        _, errors = entanglement_batch(physical[:3])
        assert errors == {1: "symplectic spectrum fails +/- pairing "
                             "(mismatch 1.00e-06)"}


class TestLogNegativity:
    def test_vacuum_is_separable(self):
        rep = entanglement_report(VACUUM6)
        assert rep.en_am == rep.en_a_mb == rep.en_b_am == 0.0

    def test_tmsv_pair(self):
        v = embed_with_vacuum(tmsv_cm(1.0))
        assert entanglement_report(v).en_am == pytest.approx(2.0, abs=1e-9)

    def test_appending_vacuum_mode_changes_nothing(self):
        v = embed_with_vacuum(tmsv_cm(1.0))
        assert entanglement_report(v).en_a_mb == pytest.approx(2.0, abs=1e-9)

    def test_contangle_squares(self):
        v = embed_with_vacuum(tmsv_cm(0.5))
        assert entanglement_report(v).en_am ** 2 == pytest.approx(
            1.0, abs=1e-9)
        v = embed_with_vacuum(tmsv_cm(1.0))
        assert entanglement_report(v).en_am ** 2 == pytest.approx(
            4.0, abs=1e-8)


class TestResidualContangle:
    def test_thermal_product_state(self):
        rep = entanglement_report(np.diag([0.7, 0.7, 1.3, 1.3, 2.0, 2.0]))
        assert rep.residual_a == rep.residual_m == rep.residual_b == 0.0
        assert rep.r_min == 0.0

    def test_tmsv_with_spectator_mode(self):
        rep = entanglement_report(embed_with_vacuum(tmsv_cm(1.0)))
        # pivot a: one-vs-two equals the pair contangle, the rest vanish
        assert rep.residual_a == pytest.approx(0.0, abs=1e-7)
        assert rep.residual_b == pytest.approx(0.0, abs=1e-12)
        assert rep.r_min == pytest.approx(0.0, abs=1e-7)

    def test_monogamy_on_random_states(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            rep = entanglement_report(random_physical_cm(rng))
            assert rep.monogamy_ok, f"monogamy violated: {rep}"

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        v = random_physical_cm(rng)
        # swap modes a and b by permuting quadrature blocks
        perm = [4, 5, 2, 3, 0, 1]
        v_swapped = v[np.ix_(perm, perm)]
        assert entanglement_report(v_swapped).r_min == pytest.approx(
            entanglement_report(v).r_min, abs=1e-10)


class TestEngineTables:
    def test_every_column_matches_the_from_scratch_oracle(self):
        # the pair, split and residual gathers of entanglement_batch against
        # index lists, sign flips and general eigensolves written out anew
        rng = np.random.default_rng(16)
        v = np.array([random_physical_cm(rng, nu_max=rng.uniform(0.5, 10.0),
                                         squeeze_max=rng.uniform(0.0, 1.5))
                      for _ in range(300)])
        measures, errors = entanglement_batch(v)
        assert errors == {}
        want = np.array([entanglement_oracle(cm) for cm in v])
        assert np.abs(measures - want).max() <= 1e-9
        # every log-negativity column is nonzero somewhere
        assert (measures[:, :6] > 0.0).any(axis=0).all()


class TestInvariances:
    def test_local_rotation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = random_physical_cm(rng)
            mode = int(rng.integers(0, 3))
            s = single_mode_rotation(rng.uniform(0, 2 * math.pi), mode)
            rep = entanglement_report(v)
            rep_rot = entanglement_report(s @ v @ s.T)
            for name in ("en_am", "en_m_ab", "r_min"):
                assert getattr(rep_rot, name) == pytest.approx(
                    getattr(rep, name), abs=1e-9)

    def test_log_negativity_continuity(self):
        rng = np.random.default_rng(9)
        v = embed_with_vacuum(tmsv_cm(0.8))
        h = rng.normal(size=(6, 6))
        h = (h + h.T) / np.linalg.norm(h + h.T)
        e0 = entanglement_report(v).en_am
        for eps in (1e-8, 1e-7, 1e-6):
            e1 = entanglement_report(v + eps * h).en_am
            assert abs(e1 - e0) < 50.0 * eps


class TestExactZeros:
    @pytest.mark.parametrize("v", [VACUUM6,
                                   np.diag([0.7, 0.7, 1.3, 1.3, 2.0, 2.0])])
    def test_product_states_report_exact_zeros(self, v):
        rep = entanglement_report(v)
        assert [getattr(rep, name) for name in MEASURES] == [0.0] * 10
        assert rep.monogamy_ok


class TestPhysicality:
    def test_vacuum_saturates(self):
        assert min_uncertainty_eig(VACUUM6) == pytest.approx(0.0, abs=1e-12)

    def test_subvacuum_isotropic_rejected(self):
        assert min_uncertainty_eig(0.25 * np.eye(6)) < -0.2

    def test_thermal_state_margin(self):
        assert min_uncertainty_eig(np.eye(6)) == pytest.approx(0.5, abs=1e-12)


class TestReport:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(10)
        v = random_physical_cm(rng)
        rep = entanglement_report(v)
        assert rep.r_min == min(rep.residual_a, rep.residual_m, rep.residual_b)
        assert rep.monogamy_ok

    def test_unphysical_matrix_rejected(self):
        # every 1|2 transposition of 0.1 * I has three eigenvalues 0.1
        with pytest.raises(NumericalError) as err:
            entanglement_report(0.1 * np.eye(6))
        assert str(err.value) == (
            "3 symplectic eigenvalues below vacuum after a 1|2 partial "
            "transposition; covariance matrix is not physical")

    def test_a_matrix_that_is_not_6x6_is_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a 6x6 matrix"):
            entanglement_report(0.5 * np.eye(4))

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(NumericalError,
                           match="^matrix has non-finite entries$"):
            entanglement_report(np.full((6, 6), np.nan))
