"""Gaussian entanglement measures: reductions, partial transposition,
symplectic spectra, negativities, contangles, monogamy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmmsim import (NumericalError, check_physicality, entanglement_report,
                    partial_transpose, reduce_cm, symplectic_eigenvalues,
                    symplectic_form)
from cmmsim.entanglement import (MEASURES, entanglement_batch,
                                 symplectic_spectra)
from conftest import (embed_with_vacuum, random_physical_cm,
                      random_symplectic, single_mode_rotation, tmsv_cm)

VACUUM6 = 0.5 * np.eye(6)


def pt_symplectic_oracle(v, mode_pos):
    """Independent eigensolve of |eig(i Omega P V P)| coded from scratch."""
    n = v.shape[0] // 2
    p = np.eye(v.shape[0])
    p[2 * mode_pos + 1, 2 * mode_pos + 1] = -1.0
    omega = np.zeros((2 * n, 2 * n))
    for k in range(n):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    ev = np.linalg.eigvals(1j * omega @ (p @ v @ p))
    return np.sort(np.abs(ev))[::2]


class TestReduce:
    def test_vacuum(self):
        assert np.array_equal(reduce_cm(VACUUM6, ("a", "m")), 0.5 * np.eye(4))

    def test_block_diagonal_selection(self):
        v = np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        assert np.array_equal(reduce_cm(v, ("a", "b")),
                              np.diag([1.0, 1.0, 3.0, 3.0]))
        assert np.array_equal(reduce_cm(v, ("m", "b")),
                              np.diag([2.0, 2.0, 3.0, 3.0]))

    def test_index_selection_matches_explicit_loop(self):
        rng = np.random.default_rng(0)
        v = random_physical_cm(rng)
        got = reduce_cm(v, ("a", "b"))
        idx = [0, 1, 4, 5]
        expected = np.empty((4, 4))
        for i, gi in enumerate(idx):
            for j, gj in enumerate(idx):
                expected[i, j] = v[gi, gj]
        assert np.array_equal(got, expected)

    def test_pair_order_does_not_matter(self):
        rng = np.random.default_rng(1)
        v = random_physical_cm(rng)
        assert np.array_equal(reduce_cm(v, ("b", "a")), reduce_cm(v, ("a", "b")))

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError):
            reduce_cm(VACUUM6, ("a", "a"))


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(2)
        v = random_physical_cm(rng)
        assert np.array_equal(
            partial_transpose(partial_transpose(v, "m"), "m"), v)

    def test_mechanical_mode_signs(self):
        rng = np.random.default_rng(3)
        v = random_physical_cm(rng)
        p = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        assert np.array_equal(partial_transpose(v, "b"), p @ v @ p)

    def test_first_kept_mode_of_reduced_matrix(self):
        rng = np.random.default_rng(4)
        v4 = reduce_cm(random_physical_cm(rng), ("a", "m"))
        p0 = np.diag([1.0, -1.0, 1.0, 1.0])
        assert np.array_equal(partial_transpose(v4, "a", ("a", "m")),
                              p0 @ v4 @ p0)

    def test_mode_not_present_rejected(self):
        v4 = 0.5 * np.eye(4)
        with pytest.raises(ValueError):
            partial_transpose(v4, "b", ("a", "m"))


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
            splits = [partial_transpose(v, mode) for mode in ("a", "m", "b")]
            pairs = [partial_transpose(reduce_cm(v, pair), pair[0], pair)
                     for pair in (("a", "m"), ("a", "b"), ("m", "b"))]
            for stack, cms in ((np.array(splits), (v,) * 3),
                               (np.array(pairs),
                                (reduce_cm(v, ("a", "m")),
                                 reduce_cm(v, ("a", "b")),
                                 reduce_cm(v, ("m", "b"))))):
                nus, errors = symplectic_spectra(stack)
                assert errors == {}
                for nu, cm, pos in zip(nus, cms, (0, 1, 2) if len(cms[0]) == 6
                                       else (0, 0, 0)):
                    want = pt_symplectic_oracle(cm, pos)
                    assert np.abs(nu - want).max() <= 1e-10 * want.max()

    def test_powers_of_four_scale_the_spectra_bit_for_bit(self):
        # each matrix is divided by a power of four near its largest
        # entry, which is exact, so scaling by 4**k only scales nu, even
        # where K^T K of the unscaled matrix would overflow or underflow
        rng = np.random.default_rng(14)
        for _ in range(20):
            v = random_physical_cm(rng, nu_max=10.0 ** rng.uniform(0.0, 3.0),
                                   squeeze_max=rng.uniform(0.0, 2.0))
            for stack in (np.array([v] + [partial_transpose(v, mode)
                                          for mode in ("a", "m", "b")]),
                          np.array([partial_transpose(reduce_cm(v, pair),
                                                      pair[0], pair)
                                    for pair in (("a", "m"), ("m", "b"))])):
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
        ok, margin = check_physicality(VACUUM6)
        assert ok and margin == pytest.approx(0.0, abs=1e-12)

    def test_subvacuum_isotropic_rejected(self):
        ok, margin = check_physicality(0.25 * np.eye(6))
        assert not ok and margin < -0.2

    def test_thermal_state_margin(self):
        ok, margin = check_physicality(np.eye(6))
        assert ok and margin == pytest.approx(0.5, abs=1e-12)


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

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(NumericalError,
                           match="^matrix has non-finite entries$"):
            entanglement_report(np.full((6, 6), np.nan))

    def test_symplectic_form_structure(self):
        omega = symplectic_form(3)
        assert np.array_equal(omega, -omega.T)
        assert np.array_equal(omega @ omega, -np.eye(6))
