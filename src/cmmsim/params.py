"""Physical parameter model for the driven cavity-magnon-mechanics system.

Unit conventions
----------------
All frequencies and rates inside the library are angular (rad/s).  User-facing
configuration quotes ordinary frequencies in Hz; the config loader multiplies
by 2*pi exactly once at the boundary (see :mod:`cmmsim.cli`).  Powers are in
watts, phases in radians, temperature in kelvin.

Both drive tones share one frequency ``omega_d = omega_a - delta_a``; it is
always derived, never user-supplied, so detunings are the only frequency
handles exposed.

The parameter domain (every field finite; frequencies, linewidths and
damping positive; powers, temperature and couplings non-negative; the
drive frequency positive) is one rule list, read by :func:`violations` for
a batch of points.  :func:`validate` is its batch of one and the sweep
engine's front gate reads it too, so both reject the same points with the
same messages.

Physical constants are the exact SI-2019 (CODATA 2018) values:

    h   = 6.62607015e-34 J s        (exact)
    k_B = 1.380649e-23  J/K         (exact)
    hbar = h / (2*pi)               = 1.0545718176461565e-34 J s
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ParameterError

TWO_PI = 2.0 * math.pi
PLANCK = 6.62607015e-34
HBAR = PLANCK / TWO_PI
BOLTZMANN = 1.380649e-23


@dataclass(frozen=True)
class PhysicalParams:
    """One complete system instance.  All rates/frequencies in rad/s.

    Attributes
    ----------
    omega_a, omega_b : float
        Cavity and mechanical resonance frequencies.
    kappa_a, kappa_m : float
        Cavity and magnon amplitude dissipation rates.
    gamma_b : float
        Mechanical damping rate.
    g_ma : float
        Magnon-microwave beamsplitter coupling rate.
    g_mb : float
        Single-magnon magnomechanical coupling rate.
    P_a, P_m : float
        Input powers of the cavity and magnon drives [W].
    delta_a : float
        Cavity-drive detuning (cavity frequency minus drive frequency).
    delta_m_tilde_target : float
        Target *effective* magnon-drive detuning, i.e. the bare detuning
        shifted by the static magnomechanical displacement.  The bare
        detuning is back-solved by the mean-field solver.
    T : float
        Bath temperature [K], shared by all three baths.
    theta_a, theta_m : float
        Drive phases [rad]; only the difference is physical.
    """

    omega_a: float
    omega_b: float
    kappa_a: float
    kappa_m: float
    gamma_b: float
    g_ma: float
    g_mb: float
    P_a: float
    P_m: float
    delta_a: float
    delta_m_tilde_target: float
    T: float
    theta_a: float = 0.0
    theta_m: float = 0.0

    @property
    def drive_frequency(self) -> float:
        """Shared drive frequency omega_d = omega_a - delta_a [rad/s]."""
        return self.omega_a - self.delta_a

    @property
    def delta_theta(self) -> float:
        """Drive phase difference theta_a - theta_m."""
        return self.theta_a - self.theta_m

    def drive_amplitudes(self) -> tuple[float, float]:
        """(eps_a, eps_m), both in 1/s, from the shared drive frequency."""
        wd = self.drive_frequency
        return (drive_amplitude(self.kappa_a, self.P_a, wd),
                drive_amplitude(self.kappa_m, self.P_m, wd))

    def occupations(self) -> "NoiseOccupations":
        """Thermal occupations of the three baths.

        The magnon bath is evaluated at the magnon frequency reconstructed
        from the effective detuning, ``delta_m_tilde_target + omega_d``;
        at millikelvin temperatures this choice is numerically irrelevant
        because both gigahertz occupations are ~1e-21.
        """
        wd = self.drive_frequency
        return NoiseOccupations(
            n_a=thermal_occupation(self.omega_a, self.T),
            n_m=thermal_occupation(self.delta_m_tilde_target + wd, self.T),
            n_b=thermal_occupation(self.omega_b, self.T),
        )

    def replace(self, **changes) -> "PhysicalParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class NoiseOccupations:
    """Mean thermal excitation numbers of the photon/magnon/phonon baths."""

    n_a: float
    n_m: float
    n_b: float


def thermal_occupation(omega: float, T: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar*omega/k_B*T) - 1), the
    :func:`thermal_occupations` of one entry.

    Returns exactly 0.0 at T = 0, and inf where hbar*omega/(k_B*T)
    underflows to zero (for example omega = 1e-300 at T = 1e300).  Raises
    ParameterError for omega <= 0 (T < 0 is likewise rejected).
    """
    if omega <= 0.0:
        raise ParameterError([f"thermal_occupation: omega must be > 0, got {omega!r}"])
    if T < 0.0:
        raise ParameterError([f"thermal_occupation: T must be >= 0, got {T!r}"])
    return float(thermal_occupations(np.array([omega], float),
                                     np.array([T], float))[0])


def thermal_occupations(omega: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Elementwise Bose-Einstein occupation for ``T >= 0``: exactly 0.0
    where ``hbar*omega/(k_B*T)`` exceeds 700 (the occupation is below
    ~1e-304 there) or is not a number, so at T = 0; inf where that ratio
    underflows to zero; NaN where ``omega <= 0``.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = HBAR * omega / (BOLTZMANN * T)
        occ = np.where(x <= 700.0, 1.0 / np.expm1(x), 0.0)
    occ[~(omega > 0.0)] = np.nan
    return occ


def drive_amplitude(kappa: float, P: float, omega_d: float) -> float:
    """Drive amplitude sqrt(2*kappa*P / (hbar*omega_d)) in 1/s.

    Zero iff P = 0.  Scales exactly as sqrt(P).
    """
    if omega_d <= 0.0:
        raise ParameterError([f"drive_amplitude: omega_d must be > 0, got {omega_d!r}"])
    if kappa <= 0.0:
        raise ParameterError([f"drive_amplitude: kappa must be > 0, got {kappa!r}"])
    if P < 0.0:
        raise ParameterError([f"drive_amplitude: P must be >= 0, got {P!r}"])
    return math.sqrt(2.0 * kappa * P / (HBAR * omega_d))


class ParamBatch:
    """Struct-of-arrays form of :class:`PhysicalParams`: one float64 array
    per field, of the same name, with one entry per operating point.

    A plain slotted class rather than a dataclass, because creating a
    dataclass at import time costs milliseconds.
    """

    __slots__ = tuple(f.name for f in fields(PhysicalParams))

    def __init__(self, **columns):
        for name in self.__slots__:
            setattr(self, name, columns[name])

    @classmethod
    def from_base(cls, base: PhysicalParams, n: int, **columns) -> "ParamBatch":
        """``n`` copies of ``base`` with the named fields replaced by the
        given length-``n`` arrays."""
        return cls(**{name: np.asarray(columns[name], dtype=float)
                      if name in columns
                      else np.full(n, float(getattr(base, name)))
                      for name in cls.__slots__})

    def __len__(self) -> int:
        return self.omega_a.shape[0]

    def point(self, k: int) -> PhysicalParams:
        """The scalar parameters of entry ``k``."""
        return PhysicalParams(**{name: float(getattr(self, name)[k])
                                 for name in self.__slots__})

    def take(self, index) -> "ParamBatch":
        """The entries selected by ``index`` (an index array or mask)."""
        return ParamBatch(**{name: getattr(self, name)[index]
                             for name in self.__slots__})

    @property
    def drive_frequency(self) -> np.ndarray:
        return self.omega_a - self.delta_a

    def drive_amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """(eps_a, eps_m) for entries without :func:`violations`."""
        wd = self.drive_frequency
        return (np.sqrt(2.0 * self.kappa_a * self.P_a / (HBAR * wd)),
                np.sqrt(2.0 * self.kappa_m * self.P_m / (HBAR * wd)))

    def occupations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n_a, n_m, n_b) as in :meth:`PhysicalParams.occupations`; n_m is
        NaN where the reconstructed magnon frequency is not positive."""
        return (thermal_occupations(self.omega_a, self.T),
                thermal_occupations(self.delta_m_tilde_target
                                    + self.drive_frequency, self.T),
                thermal_occupations(self.omega_b, self.T))


#: the domain's sign and finiteness rules as (fields, test, message), in
#: the order that violations reports them
_RULES = (
    (("omega_a", "omega_b", "kappa_a", "kappa_m", "gamma_b"),
     lambda x: x > 0.0, "must be > 0"),
    (("P_a", "P_m", "T", "g_ma", "g_mb"), lambda x: x >= 0.0, "must be >= 0"),
    (ParamBatch.__slots__, np.isfinite, "must be finite"),
)


def violations(p: ParamBatch) -> dict[int, list[str]]:
    """The entries of ``p`` outside the parameter domain, each with the
    messages of the rules it breaks, in rule order, each naming the field
    and its value printed as a Python float.  The derived drive frequency
    is checked only where every other rule holds.
    """
    found = {}
    with np.errstate(invalid="ignore"):
        for names, holds, rule in _RULES:
            values = np.array([getattr(p, name) for name in names])
            for f, k in zip(*np.nonzero(~holds(values))):
                found.setdefault(int(k), []).append(
                    f"{names[f]} {rule}, got {float(values[f, k])!r}")
        wd = p.drive_frequency
        for k in np.flatnonzero(~(wd > 0.0)).tolist():
            if k not in found:
                found[k] = ["derived drive frequency omega_a - delta_a must "
                            f"be > 0, got {float(wd[k])!r}"]
    return found


def validate(params: PhysicalParams) -> PhysicalParams:
    """Check every type invariant; return ``params`` unchanged if all hold.

    Raises ParameterError carrying the *complete* list of violations,
    each naming the offending field and value: the :func:`violations` of
    a batch of one.
    """
    found = violations(ParamBatch.from_base(params, 1))
    if found:
        raise ParameterError(found[0])
    return params


def baseline_params(**overrides) -> PhysicalParams:
    """The experimentally-accessible baseline parameter set used throughout
    the shipped configs, demos and tests.

    Cavity at 10 GHz, mechanics at 10 MHz, megahertz-scale dissipation and
    magnon-microwave coupling, a sub-hertz single-magnon magnomechanical
    coupling (the strong magnon drive lifts it to an effective coupling of a
    few MHz), drives of 9 mW / 0.9 W at a common tone, 10 mK baths.  The
    default operating point sits at delta_a = -1.35 omega_b with effective
    magnon detuning +0.9 omega_b and drive phase difference pi/2, where the
    steady state is both stable and tripartite-entangled.
    """
    base = dict(
        omega_a=TWO_PI * 10e9,
        omega_b=TWO_PI * 10e6,
        kappa_a=TWO_PI * 1e6,
        kappa_m=TWO_PI * 1e6,
        gamma_b=TWO_PI * 100.0,
        g_ma=TWO_PI * 1e6,
        g_mb=TWO_PI * 0.28,
        P_a=9e-3,
        P_m=0.9,
        delta_a=-1.35 * TWO_PI * 10e6,
        delta_m_tilde_target=0.9 * TWO_PI * 10e6,
        T=10e-3,
        theta_a=math.pi / 2.0,
        theta_m=0.0,
    )
    base.update(overrides)
    return PhysicalParams(**base)
