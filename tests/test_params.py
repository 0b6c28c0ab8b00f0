"""Parameter model: thermal occupations, drive amplitudes, validation."""

import math

import numpy as np
import pytest

from cmmsim import TWO_PI, ParameterError, baseline_params, validate
from cmmsim.params import thermal_occupations

# high-precision scalar evaluations of the Bose-Einstein and drive-amplitude
# formulas (40-digit arithmetic, exact SI-2019 constants)
N_10MHZ_10MK = 20.340618339036451
N_10GHZ_10MK = 1.4359924589903224e-21
EPS_9MW = 130646618067369.51
EPS_450MW = 923811095745258.96


def occupation(omega, T):
    """thermal_occupations of one mode."""
    return thermal_occupations(np.array([omega]), np.array([T]))[0]


def cavity_drive(P):
    """eps_a at kappa_a = 2*pi * 1 MHz and, with delta_a = 0, omega_d =
    omega_a = 2*pi * 10 GHz."""
    return baseline_params(delta_a=0.0, P_a=P).drive_amplitudes()[0]


class TestThermalOccupation:
    def test_zero_temperature_is_exactly_zero(self, base):
        assert occupation(TWO_PI * 10e6, 0.0) == 0.0
        assert base.replace(T=0.0).occupations() == (0.0, 0.0, 0.0)

    def test_mechanical_mode_at_10mk(self):
        n = occupation(TWO_PI * 10e6, 10e-3)
        assert n == pytest.approx(N_10MHZ_10MK, rel=1e-12)

    def test_microwave_mode_at_10mk(self):
        n = occupation(TWO_PI * 10e9, 10e-3)
        assert n == pytest.approx(N_10GHZ_10MK, rel=1e-10)

    def test_huge_exponent_underflows_to_zero(self):
        assert occupation(TWO_PI * 10e9, 1e-9) == 0.0

    def test_underflowing_exponent_gives_inf(self, base):
        # hbar*omega/(k_B*T) underflows to 0, and 1/expm1(0) is inf
        assert occupation(1e-300, 1e300) == math.inf
        p = base.replace(omega_b=1e-300, T=1e300)
        assert p.occupations()[2] == math.inf

    def test_domain_errors(self, base):
        # the occupations read validate's rule list, infinities included
        for override, message in [
                (dict(T=math.inf), "T must be finite, got inf"),
                (dict(omega_b=math.inf), "omega_b must be finite, got inf"),
                (dict(omega_a=-math.inf), "omega_a must be > 0, got -inf; "
                                          "omega_a must be finite, got -inf")]:
            with pytest.raises(ParameterError) as err:
                base.replace(**override).occupations()
            assert str(err.value) == message

    def test_monotone_in_temperature_and_frequency(self):
        temps = np.array([1e-3, 3e-3, 10e-3, 30e-3, 100e-3])
        occs = thermal_occupations(np.full(5, TWO_PI * 10e6), temps)
        assert (np.diff(occs) > 0.0).all()
        omegas = TWO_PI * np.array([1e6, 3e6, 10e6, 30e6])
        occs = thermal_occupations(omegas, np.full(4, 10e-3))
        assert (np.diff(occs) < 0.0).all()


class TestDriveAmplitude:
    def test_zero_power_gives_zero(self):
        p = baseline_params(P_a=0.0, P_m=0.0)
        assert p.drive_amplitudes() == (0.0, 0.0)

    def test_weak_drive_value(self):
        assert cavity_drive(9e-3) == pytest.approx(EPS_9MW, rel=1e-12)

    def test_strong_drive_value(self):
        eps = cavity_drive(0.45)
        assert eps == pytest.approx(EPS_450MW, rel=1e-12)
        # sqrt(P) scaling between the two shipped powers
        assert eps / EPS_9MW == pytest.approx(math.sqrt(0.45 / 9e-3), rel=1e-12)

    def test_quadrupling_power_exactly_doubles(self):
        a1 = cavity_drive(0.013)
        a4 = cavity_drive(4 * 0.013)
        assert a4 == 2.0 * a1  # exact in IEEE arithmetic

    def test_domain_errors(self, base):
        # the drive amplitudes read validate's rule list
        for override, message in [
                (dict(kappa_a=0.0), "kappa_a must be > 0, got 0.0"),
                (dict(P_m=-1.0), "P_m must be >= 0, got -1.0"),
                (dict(P_a=math.inf), "P_a must be finite, got inf"),
                (dict(delta_a=base.omega_a),
                 "derived drive frequency omega_a - delta_a must be > 0, "
                 "got 0.0")]:
            with pytest.raises(ParameterError) as err:
                base.replace(**override).drive_amplitudes()
            assert str(err.value) == message


class TestValidate:
    def test_baseline_is_valid(self, base):
        assert validate(base) is base

    def test_zero_kappa_a_names_the_field(self, base):
        with pytest.raises(ParameterError, match="kappa_a"):
            validate(base.replace(kappa_a=0.0))

    def test_negative_temperature_names_the_field(self, base):
        with pytest.raises(ParameterError, match="T must be >= 0"):
            validate(base.replace(T=-1e-3))

    def test_values_print_as_floats(self, base):
        # an int or numpy field prints as the float the engine reads
        for value in (0, np.float64(0.0)):
            with pytest.raises(ParameterError) as err:
                validate(base.replace(kappa_a=value))
            assert err.value.violations == ["kappa_a must be > 0, got 0.0"]

    def test_all_violations_reported_at_once(self, base):
        bad = base.replace(kappa_a=0.0, gamma_b=-1.0, P_m=-2.0)
        with pytest.raises(ParameterError) as err:
            validate(bad)
        joined = " ".join(err.value.violations)
        assert len(err.value.violations) == 3
        for name in ("kappa_a", "gamma_b", "P_m"):
            assert name in joined


class TestDerivedQuantities:
    def test_drive_frequency_is_derived(self, base):
        assert base.drive_frequency == base.omega_a - base.delta_a

    def test_occupations_at_baseline(self, base):
        n_a, n_m, n_b = base.occupations()
        assert n_b == pytest.approx(N_10MHZ_10MK, rel=1e-12)
        # both gigahertz baths are empty at 10 mK
        assert n_a < 1e-20
        assert n_m < 1e-20

    def test_occupations_deterministic(self, base):
        assert base.occupations() == base.occupations()

    def test_baseline_overrides(self):
        p = baseline_params(P_a=0.45, T=0.1)
        assert p.P_a == 0.45 and p.T == 0.1
        assert p.omega_b == TWO_PI * 10e6
