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
derived drive and magnon-bath frequencies positive) is one rule list, read
by :func:`violations` for a batch of points.  Every scalar entry point is a
checked batch of one, :func:`batch_of_one`, and the sweep engine's front
gate reads the list too, so all reject the same points with the same
messages.

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
        """(eps_a, eps_m), both in 1/s, from the shared drive frequency:
        :meth:`ParamBatch.drive_amplitudes` of the :func:`batch_of_one`."""
        p = batch_of_one(self)
        with np.errstate(all="ignore"):
            eps_a, eps_m = p.drive_amplitudes()
        return float(eps_a[0]), float(eps_m[0])

    def occupations(self) -> tuple[float, float, float]:
        """(n_a, n_m, n_b), the thermal occupations of the three baths:
        :meth:`ParamBatch.occupations` of the :func:`batch_of_one`."""
        p = batch_of_one(self)
        with np.errstate(all="ignore"):
            n_a, n_m, n_b = p.occupations()
        return float(n_a[0]), float(n_m[0]), float(n_b[0])

    def replace(self, **changes) -> "PhysicalParams":
        return replace(self, **changes)


def thermal_occupations(omega: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Elementwise Bose-Einstein occupation for ``omega > 0`` and
    ``T >= 0``: exactly 0.0 where ``hbar*omega/(k_B*T)`` exceeds 700 (the
    occupation is below ~1e-304 there) or is not a number, so at T = 0;
    inf where that ratio underflows to zero.  Call under
    ``np.errstate(all="ignore")``, since T = 0 divides by zero.
    """
    x = HBAR * omega / (BOLTZMANN * T)
    return np.where(x <= 700.0, 1.0 / np.expm1(x), 0.0)


#: the fields of PhysicalParams in order: the rows of a ParamBatch's block
FIELDS = tuple(f.name for f in fields(PhysicalParams))
_ROW = {name: j for j, name in enumerate(FIELDS)}


class ParamBatch:
    """Struct-of-arrays form of :class:`PhysicalParams`: one float64 row per
    field, of the same name, with one entry per operating point.  The rows
    are views of one (len(FIELDS), n) ``block``, so that building,
    selecting and checking a batch each take one array operation whatever
    its size.

    A plain slotted class rather than a dataclass, because creating a
    dataclass at import time costs milliseconds.
    """

    __slots__ = ("block",) + FIELDS

    def __init__(self, block: np.ndarray):
        self.block = block
        for name, row in zip(FIELDS, block):
            setattr(self, name, row)

    @classmethod
    def from_base(cls, base: PhysicalParams, n: int, **columns) -> "ParamBatch":
        """``n`` copies of ``base`` with the named fields replaced by the
        given values: a length-``n`` array or list, or a scalar."""
        block = np.empty((len(FIELDS), n))
        block[:] = np.array([getattr(base, name) for name in FIELDS],
                            dtype=float)[:, None]
        for name, column in columns.items():
            block[_ROW[name]] = column
        return cls(block)

    def __len__(self) -> int:
        return self.block.shape[1]

    def take(self, index) -> "ParamBatch":
        """A copy of the entries selected by ``index`` (an index array or
        mask)."""
        return ParamBatch(self.block[:, index])

    @property
    def drive_frequency(self) -> np.ndarray:
        return self.omega_a - self.delta_a

    @property
    def magnon_frequency(self) -> np.ndarray:
        """delta_m_tilde_target + omega_d, the magnon bath's frequency."""
        return self.delta_m_tilde_target + self.drive_frequency

    def drive_amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """(eps_a, eps_m) for entries without :func:`violations`; call
        under ``np.errstate(all="ignore")``, since entries may overflow."""
        photon = HBAR * self.drive_frequency
        return (np.sqrt(2.0 * self.kappa_a * self.P_a / photon),
                np.sqrt(2.0 * self.kappa_m * self.P_m / photon))

    def occupations(self) -> np.ndarray:
        """(n_a, n_m, n_b) as the rows of a (3, n) array: the bath
        occupations at omega_a, :attr:`magnon_frequency` and omega_b (at
        millikelvin, both gigahertz ones are ~1e-21), for entries without
        :func:`violations`; call under ``np.errstate(all="ignore")``."""
        return thermal_occupations(
            np.array([self.omega_a, self.magnon_frequency, self.omega_b]),
            self.T)


#: the domain's sign and finiteness rules as (fields, test, message), in
#: the order that violations reports them
_RULES = (
    (("omega_a", "omega_b", "kappa_a", "kappa_m", "gamma_b"),
     lambda x: x > 0.0, "must be > 0"),
    (("P_a", "P_m", "T", "g_ma", "g_mb"), lambda x: x >= 0.0, "must be >= 0"),
    (FIELDS, np.isfinite, "must be finite"),
)

#: the block rows that each rule reads
_RULE_ROWS = tuple(np.array([_ROW[name] for name in names])
                   for names, _, _ in _RULES)


def violations(p: ParamBatch) -> dict[int, list[str]]:
    """The entries of ``p`` outside the parameter domain, each with the
    messages of the rules it breaks, in rule order, each naming the field
    and its value printed as a Python float.  The derived drive, then
    magnon, frequency is checked only where every earlier rule holds.
    Call under ``np.errstate(all="ignore")``, since the derived frequencies
    of non-finite or huge fields overflow.
    """
    held = [holds(p.block[rows])
            for (_, holds, _), rows in zip(_RULES, _RULE_ROWS)]
    derived = np.array([p.drive_frequency, p.magnon_frequency])
    held.append(derived > 0.0)
    if np.concatenate(held).all():
        return {}
    found = {}
    for (names, _, rule), rows, holds in zip(_RULES, _RULE_ROWS, held):
        for f, k in zip(*np.nonzero(~holds)):
            found.setdefault(int(k), []).append(
                f"{names[f]} {rule}, got {float(p.block[rows[f], k])!r}")
    labels = ("drive frequency omega_a - delta_a",
              "magnon frequency delta_m_tilde_target + omega_a - delta_a")
    for f, k in zip(*np.nonzero(~held[-1])):
        found.setdefault(int(k), [f"derived {labels[f]} must be > 0, "
                                  f"got {float(derived[f, k])!r}"])
    return found


def batch_of_one(params: PhysicalParams) -> ParamBatch:
    """``params`` as a :class:`ParamBatch` of one entry, checked: raises
    ParameterError with :func:`validate`'s messages if it breaks a rule of
    the domain.  The scalar entry points evaluate through it."""
    p = ParamBatch.from_base(params, 1)
    with np.errstate(all="ignore"):
        found = violations(p)
    if found:
        raise ParameterError(found[0])
    return p


def validate(params: PhysicalParams) -> PhysicalParams:
    """Check every type invariant; return ``params`` unchanged if all hold.

    Raises ParameterError carrying the *complete* list of violations,
    each naming the offending field and value: the :func:`violations` of
    a batch of one (see :func:`batch_of_one`).
    """
    batch_of_one(params)
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
