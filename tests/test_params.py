"""Parameter model: thermal occupations, drive amplitudes, validation."""

import math

import numpy as np
import pytest

from cmmsim import (TWO_PI, ParameterError, baseline_params, drive_amplitude,
                    thermal_occupation, validate)

# high-precision scalar evaluations of the Bose-Einstein and drive-amplitude
# formulas (40-digit arithmetic, exact SI-2019 constants)
N_10MHZ_10MK = 20.340618339036451
N_10GHZ_10MK = 1.4359924589903224e-21
EPS_9MW = 130646618067369.51
EPS_450MW = 923811095745258.96


class TestThermalOccupation:
    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupation(TWO_PI * 10e6, 0.0) == 0.0

    def test_mechanical_mode_at_10mk(self):
        n = thermal_occupation(TWO_PI * 10e6, 10e-3)
        assert n == pytest.approx(N_10MHZ_10MK, rel=1e-12)

    def test_microwave_mode_at_10mk(self):
        n = thermal_occupation(TWO_PI * 10e9, 10e-3)
        assert n == pytest.approx(N_10GHZ_10MK, rel=1e-10)

    def test_huge_exponent_underflows_to_zero(self):
        assert thermal_occupation(TWO_PI * 10e9, 1e-9) == 0.0

    def test_underflowing_exponent_gives_inf(self):
        # hbar*omega/(k_B*T) underflows to 0, and 1/expm1(0) is inf
        assert thermal_occupation(1e-300, 1e300) == math.inf

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            thermal_occupation(0.0, 1.0)
        with pytest.raises(ParameterError):
            thermal_occupation(-1.0, 1.0)
        with pytest.raises(ParameterError):
            thermal_occupation(1.0, -1e-3)
        # NaN fails every sign rule, and an infinite argument is rejected
        for args, message in [
                ((math.nan, 1.0), "omega must be > 0, got nan"),
                ((1e9, math.nan), "T must be >= 0, got nan"),
                ((math.inf, 1.0), "omega must be finite, got inf"),
                ((-math.inf, 1.0), "omega must be > 0, got -inf"),
                ((1e9, math.inf), "T must be finite, got inf")]:
            with pytest.raises(ParameterError) as err:
                thermal_occupation(*args)
            assert str(err.value) == f"thermal_occupation: {message}"

    def test_monotone_in_temperature_and_frequency(self):
        temps = [1e-3, 3e-3, 10e-3, 30e-3, 100e-3]
        occs = [thermal_occupation(TWO_PI * 10e6, t) for t in temps]
        assert all(a < b for a, b in zip(occs, occs[1:]))
        omegas = [TWO_PI * 1e6, TWO_PI * 3e6, TWO_PI * 10e6, TWO_PI * 30e6]
        occs = [thermal_occupation(w, 10e-3) for w in omegas]
        assert all(a > b for a, b in zip(occs, occs[1:]))


class TestDriveAmplitude:
    def test_zero_power_gives_zero(self):
        assert drive_amplitude(TWO_PI * 1e6, 0.0, TWO_PI * 10e9) == 0.0

    def test_weak_drive_value(self):
        eps = drive_amplitude(TWO_PI * 1e6, 9e-3, TWO_PI * 10e9)
        assert eps == pytest.approx(EPS_9MW, rel=1e-12)

    def test_strong_drive_value(self):
        eps = drive_amplitude(TWO_PI * 1e6, 0.45, TWO_PI * 10e9)
        assert eps == pytest.approx(EPS_450MW, rel=1e-12)
        # sqrt(P) scaling between the two shipped powers
        assert eps / EPS_9MW == pytest.approx(math.sqrt(0.45 / 9e-3), rel=1e-12)

    def test_quadrupling_power_exactly_doubles(self):
        a1 = drive_amplitude(TWO_PI * 1e6, 0.013, TWO_PI * 10e9)
        a4 = drive_amplitude(TWO_PI * 1e6, 4 * 0.013, TWO_PI * 10e9)
        assert a4 == 2.0 * a1  # exact in IEEE arithmetic

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            drive_amplitude(TWO_PI * 1e6, 1.0, 0.0)
        with pytest.raises(ParameterError):
            drive_amplitude(0.0, 1.0, TWO_PI * 10e9)
        with pytest.raises(ParameterError):
            drive_amplitude(TWO_PI * 1e6, -1.0, TWO_PI * 10e9)
        # NaN fails every sign rule, and an infinite argument is rejected
        for args, message in [
                ((math.nan, 1.0, 1e10), "kappa must be > 0, got nan"),
                ((1.0, math.nan, 1e10), "P must be >= 0, got nan"),
                ((1.0, 1.0, math.nan), "omega_d must be > 0, got nan"),
                ((math.inf, 0.0, 1e10), "kappa must be finite, got inf"),
                ((1.0, math.inf, 1e10), "P must be finite, got inf"),
                ((1.0, 1.0, math.inf), "omega_d must be finite, got inf"),
                ((1.0, -math.inf, 1e10), "P must be >= 0, got -inf")]:
            with pytest.raises(ParameterError) as err:
                drive_amplitude(*args)
            assert str(err.value) == f"drive_amplitude: {message}"


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
        occ = base.occupations()
        assert occ.n_b == pytest.approx(N_10MHZ_10MK, rel=1e-12)
        # both gigahertz baths are empty at 10 mK
        assert occ.n_a < 1e-20
        assert occ.n_m < 1e-20

    def test_occupations_deterministic(self, base):
        assert base.occupations() == base.occupations()

    def test_baseline_overrides(self):
        p = baseline_params(P_a=0.45, T=0.1)
        assert p.P_a == 0.45 and p.T == 0.1
        assert p.omega_b == TWO_PI * 10e6
