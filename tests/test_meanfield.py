"""Mean-field steady state: closed forms, self-consistency, oracles."""

import cmath
import math

import numpy as np
import pytest

from cmmsim import (TWO_PI, CmmError, NoSteadyStateError, NumericalError,
                    ParamBatch, SingularityError, apply_pump_mode,
                    baseline_params, evaluate_batch, evaluate_point,
                    magnon_amplitude_approx, optimize_phase, phase_window,
                    solve_steady_state, steady_state_residual)
from cmmsim.entanglement import MEASURES
from cmmsim.meanfield import (NON_FINITE_STATE, SINGULAR_RESPONSE,
                              residual_batch, solve_bare_batch,
                              solve_effective_batch)
from cmmsim.sweep import FLOAT_FIELDS
from conftest import CLAIM_REGIMES, bare_state_oracle


def magnon_numerator(p):
    """Where the two drives interfere: the numerator of m_s, written out
    with cmath, independently of the solver's array code."""
    eps_a, eps_m = p.drive_amplitudes()
    return (-1j * p.g_ma * eps_a * cmath.exp(-1j * p.theta_a)
            + (1j * p.delta_a + p.kappa_a) * eps_m * cmath.exp(-1j * p.theta_m))


def magnon_denominator(p, delta_m_tilde):
    """The denominator of m_s at effective detuning ``delta_m_tilde``."""
    return ((1j * delta_m_tilde + p.kappa_m) * (1j * p.delta_a + p.kappa_a)
            + p.g_ma ** 2)


def picard_magnon_intensity(params, bare_delta_m, damping=0.5, tol=1e-14):
    """Independent oracle: damped fixed-point iteration on u = |m_s|^2."""
    u = 0.0
    for _ in range(100000):
        delta_tilde = bare_delta_m - params.g_mb ** 2 * u / params.omega_b
        num = magnon_numerator(params)
        den = magnon_denominator(params, delta_tilde)
        u_new = (1.0 - damping) * u + damping * abs(num / den) ** 2
        if u > 0.0 and abs(u_new - u) / u < tol:
            return u_new
        u = u_new
    raise AssertionError("Picard iteration did not converge")


class TestEffectiveTargeting:
    def test_decoupled_closed_form(self, base):
        p = base.replace(g_mb=0.0)
        st = solve_steady_state(p)
        assert st.m_s == pytest.approx(
            magnon_numerator(p) / magnon_denominator(p, p.delta_m_tilde_target),
            rel=1e-14)
        assert st.q_s == 0.0
        assert steady_state_residual(p, st) < 1e-13

    def test_effective_detuning_is_pinned(self, base):
        st = solve_steady_state(base)
        assert st.delta_m_tilde == base.delta_m_tilde_target
        assert st.p_s == 0.0
        assert st.q_s == pytest.approx(
            -base.g_mb * abs(st.m_s) ** 2 / base.omega_b, rel=1e-12)
        # bare and effective detunings differ by the frequency pull
        assert st.delta_m + base.g_mb * st.q_s == pytest.approx(
            st.delta_m_tilde, rel=1e-14)

    def test_baseline_residual(self, base):
        st = solve_steady_state(base)
        assert steady_state_residual(base, st) < 1e-9

    def test_perturbed_state_has_positive_residual(self, base):
        st = solve_steady_state(base)
        bad = type(st)(alpha_s=st.alpha_s, m_s=st.m_s,
                       q_s=st.q_s * (1.0 + 1e-3), p_s=st.p_s,
                       delta_m=st.delta_m, delta_m_tilde=st.delta_m_tilde)
        assert steady_state_residual(base, bad) > 1e-6

    def test_pole_of_the_response_raises(self, base):
        # with vanishing linewidths the response
        # (i dt + kappa_m)(i delta_a + kappa_a) + g_ma^2 has a pole at
        # dt * delta_a = g_ma^2
        p = base.replace(kappa_a=1e-9, kappa_m=1e-9, delta_a=base.g_ma,
                         delta_m_tilde_target=base.g_ma)
        with pytest.raises(NoSteadyStateError) as err:
            solve_steady_state(p)
        assert str(err.value) == SINGULAR_RESPONSE
        assert evaluate_point(p).status == (
            "error: magnon linear response is singular at the requested "
            "detunings")

    def test_zero_drives_give_zero_state(self, base):
        p = base.replace(P_a=0.0, P_m=0.0)
        bare = -1.1 * p.omega_b
        for st in (solve_steady_state(p),
                   solve_steady_state(p, bare_delta_m=bare)):
            assert st.alpha_s == 0 and st.m_s == 0 and st.q_s == 0.0
            assert steady_state_residual(p, st) == 0.0
        # without a displacement the bare detuning is the effective one
        assert st.delta_m == st.delta_m_tilde == bare


class TestNonFiniteState:
    @pytest.mark.parametrize("override", [
        dict(P_m=1e308),
        # hbar * omega_d underflows to 0, so both drive amplitudes are inf
        dict(omega_a=1e-300, delta_a=0.0, delta_m_tilde_target=1.0)])
    def test_overflow_raises_the_engines_message(self, base, override):
        p = base.replace(**override)
        for bare in (None, -1.1 * p.omega_b):
            with pytest.raises(NumericalError) as err:
                solve_steady_state(p, bare_delta_m=bare)
            assert str(err.value) == NON_FINITE_STATE
        with pytest.raises(NumericalError, match=NON_FINITE_STATE):
            magnon_amplitude_approx(p, p.delta_m_tilde_target)
        assert evaluate_point(p).status == f"error: {NON_FINITE_STATE}"


class TestBareDetuningMode:
    def test_magnon_only_matches_picard_oracle(self, base):
        # negative bare detuning: the frequency pull pushes the effective
        # detuning further from resonance, so the Picard map contracts
        p = base.replace(P_a=0.0, g_ma=0.0)
        bare = -1.1 * p.omega_b
        st = solve_steady_state(p, bare_delta_m=bare)
        u_oracle = picard_magnon_intensity(p, bare)
        assert abs(st.m_s) ** 2 == pytest.approx(u_oracle, rel=1e-10)
        # closed form through the effective detuning
        eps_m = p.drive_amplitudes()[1]
        expected = (eps_m * cmath.exp(-1j * p.theta_m)
                    / (1j * st.delta_m_tilde + p.kappa_m))
        assert st.m_s == pytest.approx(expected, rel=1e-12)

    def test_baseline_round_trip_matches_picard_oracle(self, base):
        st_eff = solve_steady_state(base)
        u_oracle = picard_magnon_intensity(base, st_eff.delta_m)
        assert abs(st_eff.m_s) ** 2 == pytest.approx(u_oracle, rel=1e-10)
        st_bare = solve_steady_state(base, bare_delta_m=st_eff.delta_m)
        assert abs(st_bare.m_s) ** 2 == pytest.approx(abs(st_eff.m_s) ** 2,
                                                      rel=1e-12)
        assert st_bare.delta_m_tilde == pytest.approx(st_eff.delta_m_tilde,
                                                      rel=1e-12)

    def test_every_root_satisfies_the_cubic(self, base):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = base.replace(
                g_mb=base.g_mb * rng.uniform(0.1, 3.0),
                P_a=rng.uniform(0.0, 0.5),
                P_m=rng.uniform(0.0, 1.2),
                delta_a=rng.uniform(-2.0, 2.0) * base.omega_b,
                theta_a=rng.uniform(0.0, 2.0 * math.pi),
            )
            bare = rng.uniform(-2.0, 2.0) * p.omega_b
            st = solve_steady_state(p, bare_delta_m=bare)
            u = abs(st.m_s) ** 2
            den = magnon_denominator(p, bare - p.g_mb ** 2 * u / p.omega_b)
            num2 = abs(magnon_numerator(p)) ** 2
            if num2 == 0.0:
                assert u == 0.0
                continue
            assert u * abs(den) ** 2 == pytest.approx(num2, rel=1e-10)

    def test_bistable_region_reports_multiplicity(self, base):
        # strong pull regime: the self-consistency cubic has three
        # admissible roots; the solver picks the smallest, the branch
        # continued from zero coupling, and reports how many roots it saw
        st = solve_steady_state(base, bare_delta_m=1.6 * base.omega_b)
        assert st.root_multiplicity == 3
        assert steady_state_residual(base, st) < 1e-9
        u = abs(st.m_s) ** 2
        den = magnon_denominator(base, 1.6 * base.omega_b
                                 - base.g_mb ** 2 * u / base.omega_b)
        assert u * abs(den) ** 2 == pytest.approx(
            abs(magnon_numerator(base)) ** 2, rel=1e-10)

    def test_a_vanishing_coupling_gives_the_uncoupled_state(self, base):
        # a cubic term below the smallest double leaves the one root u_ref
        for bare in (-1.1 * base.omega_b, 1.6 * base.omega_b):
            uncoupled = solve_steady_state(base.replace(g_mb=0.0),
                                           bare_delta_m=bare)
            for g_mb in 10.0 ** np.linspace(-200.0, -30.0, 69):
                st = solve_steady_state(base.replace(g_mb=g_mb),
                                        bare_delta_m=bare)
                assert st.m_s == pytest.approx(uncoupled.m_s, rel=1e-14)
                assert st.root_multiplicity == 1

    def test_homotopy_continuity_in_coupling(self, base):
        # the selected branch varies continuously as g_mb ramps up
        bare = 1.6 * base.omega_b
        us = []
        for scale in np.linspace(0.02, 1.0, 25):
            st = solve_steady_state(base.replace(g_mb=base.g_mb * scale),
                                    bare_delta_m=bare)
            us.append(abs(st.m_s) ** 2)
        jumps = np.abs(np.diff(us)) / np.maximum.reduce([us[:-1], us[1:]])
        assert jumps.max() < 0.3


def random_bare_points(seed, n):
    """``n`` seeded (params, bare detuning) pairs from the distributions of
    test_every_root_satisfies_the_cubic."""
    base = baseline_params()
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        p = base.replace(
            g_mb=base.g_mb * rng.uniform(0.1, 3.0),
            P_a=rng.uniform(0.0, 0.5),
            P_m=rng.uniform(0.0, 1.2),
            delta_a=rng.uniform(-2.0, 2.0) * base.omega_b,
            theta_a=rng.uniform(0.0, 2.0 * math.pi),
        )
        points.append((p, rng.uniform(-2.0, 2.0) * p.omega_b))
    return points


def near_fold_points(seed, n, eps):
    """Bare-mode points of random_bare_points(seed, n) whose cubic has three
    roots, the smallest two about to merge: with v = beta u the cubic reads
    f(v) = v |d0 - i c v|^2 = beta |num|^2, and g_mb is set so that the
    level beta |num|^2 sits a relative ``eps`` below f's local maximum.
    Draws where f has no local maximum at v > 0, or where that level is
    not above f's local minimum, are left out."""
    points = []
    for p, bare in random_bare_points(seed, n):
        c = 1j * p.delta_a + p.kappa_a
        d0 = magnon_denominator(p, bare)
        # f(v) = a v^3 + b v^2 + k v, so f'(v) = 3 a v^2 + 2 b v + k
        a, b, k = abs(c) ** 2, 2.0 * (c * d0.conjugate()).imag, abs(d0) ** 2
        disc = b * b - 3.0 * a * k
        if b >= 0.0 or disc <= 0.0:
            continue
        v_max, v_min = ((-b + s * math.sqrt(disc)) / (3.0 * a)
                        for s in (-1.0, 1.0))
        f_max, f_min = (((a * v + b) * v + k) * v for v in (v_max, v_min))
        level = f_max * (1.0 - eps)
        num2 = abs(magnon_numerator(p)) ** 2
        if level > f_min and num2 > 0.0:
            points.append((p.replace(g_mb=math.sqrt(level * p.omega_b / num2)),
                           bare))
    return points


def edge_bare_points():
    """Bare-mode points at the edges of the solver, as (params, bare)."""
    base = baseline_params()
    w_b = base.omega_b
    # with linewidths this small and g_ma = 0, d0 underflows to exactly 0
    zero_d0 = dict(kappa_a=1e-200, kappa_m=1e-200, delta_a=0.0, g_ma=0.0)
    # a pole of the response at the bare detuning, which g_mb = 0 keeps
    near_pole = dict(kappa_a=1e-9, kappa_m=1e-9, delta_a=base.g_ma, g_mb=0.0)
    st = solve_steady_state(base)
    return [
        (base.replace(P_a=0.0, P_m=0.0), -1.1 * w_b),  # undriven
        (base.replace(P_a=0.0, P_m=0.0, **zero_d0), 0.0),  # ... at a pole
        (base.replace(P_m=0.0), 1.6 * w_b),  # cavity drive only
        (base.replace(P_a=0.0), 1.6 * w_b),  # magnon drive only
        (base.replace(P_a=0.0, g_ma=0.0), -1.1 * w_b),  # ... uncoupled
        (base.replace(g_mb=0.0), 0.9 * w_b),
        (base.replace(g_ma=0.0), 1.6 * w_b),
        (base, 1.6 * w_b),  # three roots
        (base, st.delta_m),  # round trip
        (base.replace(**zero_d0), 0.0),  # pole at the bare detuning
        (base.replace(**near_pole), base.g_ma),  # ... at the fixed point
        (base.replace(P_m=1e308), -1.1 * w_b),  # overflow
        (base.replace(omega_a=1e-300, delta_a=0.0, delta_m_tilde_target=1.0),
         1.6 * w_b),
        (base.replace(kappa_a=-1.0), 1.6 * w_b),  # invalid
    ]


def outcome(solve, p, bare):
    try:
        return solve(p, bare)
    except CmmError as exc:
        return type(exc), str(exc)


class TestBareOracle:
    """Bare mode against the closed-form cubic and homotopy of the tests'
    oracle (conftest.bare_state_oracle)."""

    @pytest.mark.parametrize("points, errors, roots", [
        *(pytest.param(random_bare_points(seed, 100), [], None,
                       id=f"seed{seed}")
          for seed in (7, 8, 9, 10)),
        pytest.param(edge_bare_points(), [
            SINGULAR_RESPONSE,
            "magnon linear response is singular at the self-consistent "
            "detuning",
            NON_FINITE_STATE, NON_FINITE_STATE,
            "kappa_a must be > 0, got -1.0"], None, id="edges"),
        # where a discrete walk along the coupling would most likely jump
        # branches: three roots, two of them about to merge.  Closer to the
        # fold the roots' condition number, about eps^-1/2, lifts the
        # rounding of both solvers above the tolerances (1e-12 at 1e-6)
        pytest.param([*near_fold_points(11, 300, 1e-2),
                      *near_fold_points(12, 300, 1e-3)], [], 3,
                     id="near-folds", marks=pytest.mark.bits)])
    def test_agrees_with_the_closed_form(self, points, errors, roots):
        raised = []
        for p, bare in points:
            got = outcome(
                lambda p, bare: solve_steady_state(p, bare_delta_m=bare),
                p, bare)
            want = outcome(bare_state_oracle, p, bare)
            if isinstance(want, tuple):
                assert got == want
                raised.append(want[1])
                continue
            assert got.root_multiplicity == want.root_multiplicity
            assert roots in (None, got.root_multiplicity)
            assert got.delta_m == want.delta_m and got.p_s == 0.0
            for name, rel in (("m_s", 1e-13), ("q_s", 1e-13),
                              ("delta_m_tilde", 1e-13), ("alpha_s", 1e-12)):
                a, b = getattr(got, name), getattr(want, name)
                assert abs(a - b) <= rel * abs(b), (name, a, b)
        assert raised == errors


def bare_batch():
    """A 4 096-entry bare batch of random points, with undriven,
    single-drive, g_mb = 0, pole and overflowing entries mixed in; returns
    the batch, its bare detunings and the indices of each kind."""
    base = baseline_params()
    rng = np.random.default_rng(12)
    n = 4096
    p = ParamBatch.from_base(
        base, n, g_mb=base.g_mb * rng.uniform(0.1, 3.0, n),
        P_a=rng.uniform(0.0, 0.5, n), P_m=rng.uniform(0.0, 1.2, n),
        delta_a=rng.uniform(-2.0, 2.0, n) * base.omega_b,
        theta_a=rng.uniform(0.0, 2.0 * math.pi, n))
    bare = rng.uniform(-2.0, 2.0, n) * base.omega_b
    kinds = {"undriven": [3, 2048, 4095], "cavity only": [17, 3000],
             "magnon only": [18, 3001], "uncoupled": [800, 3998],
             "pole": [0, 1554, 4094], "pole at the fixed point": [5, 2600],
             "overflow": [9, 2060, 4093]}
    for k in kinds["undriven"]:
        p.P_a[k] = p.P_m[k] = 0.0
    p.P_m[kinds["cavity only"]] = 0.0
    p.P_a[kinds["magnon only"]] = 0.0
    p.g_mb[kinds["uncoupled"]] = 0.0
    for k in kinds["pole"]:
        p.kappa_a[k] = p.kappa_m[k] = 1e-200
        p.delta_a[k] = p.g_ma[k] = bare[k] = 0.0
    for k in kinds["pole at the fixed point"]:
        p.kappa_a[k] = p.kappa_m[k] = 1e-9
        p.delta_a[k] = bare[k] = base.g_ma
        p.g_mb[k] = 0.0
    p.P_m[kinds["overflow"]] = 1e308
    return p, bare, kinds


class TestBareBatch:
    @pytest.mark.bits
    def test_entries_equal_their_batches_of_one_bit_for_bit(self):
        # 4 096 entries make the arrays of 3 roots an entry (12 288
        # elements) longer than numpy's 8 192-element buffers
        p, bare, kinds = bare_batch()
        with np.errstate(all="ignore"):
            mf, roots = solve_bare_batch(p, bare)
            special = sorted(k for ks in kinds.values() for k in ks)
            sample = np.random.default_rng(13).choice(len(p), 40,
                                                      replace=False)
            for k in [*special, *sample]:
                one, one_roots = solve_bare_batch(p.take([k]), bare[k])
                for name, a, b in zip(mf._fields, mf, one):
                    assert a[k:k + 1].tobytes() == b.tobytes(), (k, name)
                assert roots[k] == one_roots[0]
        # each outcome stays in its own entries
        pole = kinds["pole"] + kinds["pole at the fixed point"]
        finite = np.isfinite([mf.alpha_s, mf.m_s, mf.q_s,
                              mf.delta_m_tilde]).all(0)
        assert np.flatnonzero(mf.singular).tolist() == sorted(pole)
        assert np.flatnonzero(~finite & ~mf.singular).tolist() == sorted(
            kinds["overflow"])
        assert (roots[kinds["pole"]] == 0).all()
        assert (roots[finite & ~mf.singular] > 0).all()
        undriven = kinds["undriven"]
        assert (mf.m_s[undriven] == 0).all() and (mf.q_s[undriven] == 0).all()
        assert (mf.delta_m_tilde[undriven] == bare[undriven]).all()
        assert set(roots.tolist()) == {0, 1, 3}
        assert (mf.delta_m == bare).all()

    def test_one_eigvals_call_of_the_whole_stack(self, monkeypatch):
        # every entry's roots come from one stack of 3x3 companion
        # matrices, and no other numpy.linalg routine runs
        p, bare, _ = bare_batch()
        seen = []
        for name in np.linalg.__all__:
            func = getattr(np.linalg, name)
            if isinstance(func, type):
                continue
            def spy(m, *args, func=func, name=name, **kwargs):
                seen.append((name, np.shape(m)))
                return func(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        with np.errstate(all="ignore"):
            solve_bare_batch(p, bare)
        monkeypatch.undo()
        assert seen == [("eigvals", (len(p), 3, 3))]

    def test_every_solved_entry_is_a_fixed_point(self):
        p, bare, kinds = bare_batch()
        with np.errstate(all="ignore"):
            mf, _ = solve_bare_batch(p, bare)
            residual = residual_batch(p, mf.alpha_s, mf.m_s, mf.q_s, 0.0,
                                      mf.delta_m)
        solved = ~mf.singular & np.isfinite(mf.m_s)
        assert solved.sum() == len(p) - 8
        assert residual[solved].max() < 1e-9
        assert (residual[kinds["undriven"]] == 0.0).all()


class TestPhaseStructure:
    def test_global_phase_is_gauge(self, base):
        st = solve_steady_state(base)
        phi = 0.917
        st2 = solve_steady_state(base.replace(theta_a=base.theta_a + phi,
                                              theta_m=base.theta_m + phi))
        assert st2.m_s == pytest.approx(st.m_s * cmath.exp(-1j * phi), rel=1e-12)
        assert abs(st2.m_s) ** 2 == pytest.approx(abs(st.m_s) ** 2, rel=1e-12)
        assert st2.q_s == pytest.approx(st.q_s, rel=1e-12)

    def test_intensity_periodic_in_phase_difference(self, base):
        for dth in (0.3, 2.1, 4.0):
            st1 = solve_steady_state(base.replace(theta_a=dth))
            st2 = solve_steady_state(base.replace(theta_a=dth + 2.0 * math.pi))
            assert abs(st1.m_s) ** 2 == pytest.approx(abs(st2.m_s) ** 2,
                                                      rel=1e-12)


def at_phases(params, phases):
    """A batch of ``params`` at each phase difference of ``phases``."""
    return ParamBatch.from_base(params, len(phases),
                                theta_a=params.theta_m + np.asarray(phases))


class TestPhaseWindow:
    """A point depends on the drives' phase difference only through
    cos(delta_theta - theta0): the two drives interfere in one term."""

    #: where the phase acts most: P_m = 90 uW, and the edge coupling
    EDGE = {"P_m": 9e-5, "g_mb": TWO_PI * 19.6}
    #: offsets from theta0 across the half period
    OFFSETS = np.linspace(0.01, math.pi - 0.01, 40)

    def test_rows_are_mirror_images_about_theta0(self):
        # 27 of the 40 pairs stable; 8e-12 relative was measured
        p = baseline_params(**self.EDGE)
        theta0 = phase_window(p).theta0
        plus = evaluate_batch(at_phases(p, theta0 + self.OFFSETS)).table
        minus = evaluate_batch(at_phases(p, theta0 - self.OFFSETS)).table
        assert plus.stable.tolist() == minus.stable.tolist()
        assert 0 < plus.stable.sum() < len(plus)
        assert ([plus.status(k) for k in range(len(plus))]
                == [minus.status(k) for k in range(len(minus))])
        for j, name in enumerate(FLOAT_FIELDS):
            np.testing.assert_allclose(plus.values[:, j], minus.values[:, j],
                                       rtol=1e-11, atol=0.0, err_msg=name)

    @pytest.mark.parametrize("bare", [0.9, 1.1, 1.3])
    def test_bare_states_are_mirror_images_about_theta0(self, bare):
        # the cubic reads |num|^2 alone; one and three roots both occur
        p = baseline_params(**self.EDGE)
        theta0 = phase_window(p).theta0
        with np.errstate(all="ignore"):
            plus, n_plus = solve_bare_batch(
                at_phases(p, theta0 + self.OFFSETS), bare * p.omega_b)
            minus, n_minus = solve_bare_batch(
                at_phases(p, theta0 - self.OFFSETS), bare * p.omega_b)
        assert n_plus.tolist() == n_minus.tolist()
        assert set(n_plus.tolist()) == {1, 3}
        for name in ("abs_ms_sq", "delta_m_tilde"):
            np.testing.assert_allclose(getattr(plus, name),
                                       getattr(minus, name),
                                       rtol=1e-13, atol=0.0, err_msg=name)

    @pytest.mark.parametrize("regime", CLAIM_REGIMES)
    def test_a_phase_is_the_magnon_drive_at_a_matched_coupling(self, regime):
        # the drift reads g_mb, the powers and the phase only through
        # G_mb = sqrt(2) g_mb |m_s|, so a row is the magnon-only row at
        # g_mb sqrt(u / u_mo), u_mo not depending on g_mb with
        # delta_m_tilde pinned; 2.3e-13 was measured, and 24 of the 68
        # points at 19.6 Hz are unstable
        p = baseline_params(**regime)
        x = np.repeat(np.linspace(0.0, math.pi, 17), 4)
        T = np.tile([0.01, 0.05, 0.1, 0.2], 17)
        rows = evaluate_batch(ParamBatch.from_base(
            p, len(x), theta_a=p.theta_m + phase_window(p).theta0 + x,
            T=T)).table
        magnon = apply_pump_mode(p, "magnon-only")
        ratio = rows.column("abs_ms_sq") / evaluate_point(magnon).abs_ms_sq
        single = evaluate_batch(ParamBatch.from_base(
            magnon, len(x), g_mb=p.g_mb * np.sqrt(ratio), T=T)).table
        assert rows.stable.tolist() == single.stable.tolist()
        for name in ("margin",) + MEASURES:
            j = FLOAT_FIELDS.index(name)
            np.testing.assert_allclose(
                single.values[:, j], rows.values[:, j], rtol=0.0,
                atol=1e-12 * np.nanmax(np.abs(rows.values[:, j])),
                err_msg=name)

    @pytest.mark.parametrize("g_mb_hz", [0.28, 14.0])
    def test_the_intensity_follows_the_window(self, g_mb_hz):
        # |m_s|^2 = |B|^2 |1 + rho e^{i(dtheta - theta0)}|^2 / |den|^2
        p = baseline_params(P_m=9e-5, g_mb=TWO_PI * g_mb_hz)
        window = phase_window(p)
        phases = TWO_PI * np.arange(64) / 64
        with np.errstate(all="ignore"):
            u = solve_effective_batch(at_phases(p, phases)).abs_ms_sq
        want = (window.u_max / (1.0 + window.rho) ** 2 * np.abs(
            1.0 + window.rho * np.exp(1j * (phases - window.theta0))) ** 2)
        np.testing.assert_allclose(u, want, rtol=10 * np.finfo(float).eps,
                                   atol=0.0)
        assert window.u_min <= u.min() <= u.max() <= window.u_max

    def test_theta0_is_the_cavity_response_alone(self, base):
        theta0 = phase_window(base).theta0
        assert theta0 == math.atan2(-base.kappa_a, -base.delta_a)
        changes = [{"g_ma": 3.0 * base.g_ma}, {"P_a": 0.45}, {"P_m": 9e-5},
                   {"delta_m_tilde_target": 0.3 * base.omega_b},
                   {"g_mb": 70.0 * base.g_mb}]
        for change in changes:
            assert phase_window(base.replace(**change)).theta0 == theta0
        # a batch's entries are their batches of one
        points = [base, base.replace(P_a=0.45, delta_a=-1.1 * base.omega_b),
                  base.replace(P_a=0.0)]
        batch = phase_window(ParamBatch.from_base(
            base, 3, P_a=[p.P_a for p in points],
            delta_a=[p.delta_a for p in points]))
        for k, p in enumerate(points):
            assert tuple(x[k] for x in batch) == tuple(phase_window(p))

    @pytest.mark.parametrize("off, rho", [
        ("P_a", 0.0), ("P_m", math.inf), ("P_a P_m", math.nan)],
        ids=["P_a", "P_m", "neither"])
    def test_a_single_drive_has_a_flat_window(self, base, off, rho):
        # rho = |A| / |B|, A from the cavity drive and B from the magnon
        # drive: 0/0 without either, where the state is zero
        p = base.replace(**dict.fromkeys(off.split(), 0.0))
        window = phase_window(p)
        assert window.theta0 == 0.0
        assert repr(float(window.rho)) == repr(rho)
        assert window.u_min == window.u_max
        assert (window.u_max == 0.0) == (off == "P_a P_m")
        theta, value, scan = optimize_phase(p, 16)
        assert theta == 0.0
        assert scan == [scan[0]] * len(scan) == [value] * len(scan)
        assert value == evaluate_point(p).r_min


class TestMagnonAmplitudeApprox:
    def test_no_drives(self, base):
        p = base.replace(P_a=0.0, P_m=0.0)
        assert magnon_amplitude_approx(p, p.delta_m_tilde_target) == 0

    def test_pole_raises(self, base):
        pole_detuning = base.g_ma ** 2 / base.delta_a
        with pytest.raises(SingularityError):
            magnon_amplitude_approx(base, pole_detuning)

    def test_destructive_interference(self, base):
        # equal phases with g_ma*eps_a = delta_a*eps_m cancels the numerator
        p = base.replace(theta_a=0.0, theta_m=0.0, delta_a=0.5 * base.omega_b)
        eps_a = p.drive_amplitudes()[0]
        target_eps_m = p.g_ma * eps_a / p.delta_a
        # invert eps_m -> P_m
        from cmmsim.params import HBAR
        P_m = target_eps_m ** 2 * HBAR * p.drive_frequency / (2.0 * p.kappa_m)
        p = p.replace(P_m=P_m)
        ea, em = p.drive_amplitudes()
        scale = abs(p.g_ma * ea) + abs(p.delta_a * em)
        num = abs(magnon_amplitude_approx(p, p.delta_m_tilde_target)
                  * (p.g_ma ** 2 - p.delta_m_tilde_target * p.delta_a))
        assert num < 1e-9 * scale

    def test_tracks_exact_solution_within_stated_bound(self, base):
        # the dropped linewidths mostly rotate the phase of the amplitude,
        # which is gauge-like; the magnitude (which sets the effective
        # magnomechanical coupling) obeys the regime bound kappa_a/|delta_a|
        st = solve_steady_state(base)
        approx = magnon_amplitude_approx(base, st.delta_m_tilde)
        bound = base.kappa_a / abs(base.delta_a)
        assert abs(abs(approx) - abs(st.m_s)) / abs(st.m_s) < bound
        assert abs(approx - st.m_s) / abs(st.m_s) < 2.5 * bound
