"""Independent correctness gate for benchmark outputs.

Runs after the timed region, in the benchmark's parent process.  The model
itself (mean field, drift and diffusion) comes from cmmsim; everything
numerical downstream of it is recomputed independently:

* the stability flag and margin from ``scipy.linalg.eigvals`` of the drift;
* the covariance matrix from ``scipy.linalg.solve_continuous_lyapunov``;
* each smallest partially transposed symplectic eigenvalue as the smallest
  of ``|eigvals(i Omega V~)|``, the way acceptance criterion 2 checks it.
"""

from __future__ import annotations

import csv
import math
import random

import numpy as np
import scipy.linalg

from cmmsim import dynamics, meanfield
from cmmsim.cli import fmt, parse_config
from cmmsim.sweep import apply_axis, apply_pump_mode

#: over every stable point of both benchmark grids the worst deviations are
#: 5e-10 absolute in the entanglement columns and 5e-9 relative in the
#: margin, both the CSV's 9-digit rounding
ATOL = 1e-7
RTOL = 1e-6

#: rows drawn per grid run: stable rows get the full oracle, all drawn rows
#: get the stability cross-check
STABLE_SAMPLE = 200
FLAG_SAMPLE = 500

CSV_FIELDS = ("R_min", "R_a", "R_m", "R_b", "EN_am", "EN_ab", "EN_mb",
              "EN_a_mb", "EN_m_ab", "EN_b_am")

PHASE_OPT_KEYS = ("delta_theta_star_rad", "r_min_star", "r_min_at_zero_phase")

_OMEGA_2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# (quadrature indices kept, index of the momentum whose sign flips)
_PARTITIONS = {
    "EN_am": ((0, 1, 2, 3), 1),
    "EN_ab": ((0, 1, 4, 5), 1),
    "EN_mb": ((2, 3, 4, 5), 3),
    "EN_a_mb": ((0, 1, 2, 3, 4, 5), 1),
    "EN_m_ab": ((0, 1, 2, 3, 4, 5), 3),
    "EN_b_am": ((0, 1, 2, 3, 4, 5), 5),
}


def _log_negativity(v: np.ndarray, keep, flip: int) -> float:
    idx = list(keep)
    sub = v[np.ix_(idx, idx)].copy()
    k = idx.index(flip)
    sub[k, :] *= -1.0
    sub[:, k] *= -1.0
    omega = np.kron(np.eye(len(idx) // 2), _OMEGA_2)
    nu = float(np.sort(np.abs(scipy.linalg.eigvals(1j * omega @ sub)))[0])
    return max(0.0, -math.log(2.0 * nu))


def evaluate(params) -> dict:
    """Oracle values for one operating point: stable flag, margin and, for a
    stable point, the CSV's entanglement columns keyed by CSV name."""
    state = meanfield.solve_steady_state(params)
    a = dynamics.build_drift(params, state)
    d = dynamics.build_diffusion(params)
    margin = float(scipy.linalg.eigvals(a).real.max())
    eps = dynamics.STABILITY_EPS * params.omega_b
    out = {"margin": margin, "stable": margin < -eps, "eps": eps}
    if not out["stable"]:
        return out
    v = scipy.linalg.solve_continuous_lyapunov(a, -d)
    v = 0.5 * (v + v.T)
    en = {name: _log_negativity(v, keep, flip)
          for name, (keep, flip) in _PARTITIONS.items()}
    out.update(en)
    out["R_a"] = en["EN_a_mb"] ** 2 - en["EN_am"] ** 2 - en["EN_ab"] ** 2
    out["R_m"] = en["EN_m_ab"] ** 2 - en["EN_am"] ** 2 - en["EN_mb"] ** 2
    out["R_b"] = en["EN_b_am"] ** 2 - en["EN_ab"] ** 2 - en["EN_mb"] ** 2
    out["R_min"] = min(out["R_a"], out["R_m"], out["R_b"])
    return out


def close(got: float, want: float, atol: float = ATOL) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= atol + RTOL * abs(want)


def error_rows(rows: list[dict]) -> int:
    """Rows the sweep engine turned into errors: a NaN margin, or a stable
    row without entanglement values."""
    return sum(1 for r in rows
               if math.isnan(float(r["margin"]))
               or (r["stable"] == "true" and math.isnan(float(r["R_min"]))))


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _grid_params(spec):
    """Operating points in CSV row order, from the exact axis values."""
    ax1, ax2 = spec.axes
    base = apply_pump_mode(spec.base, spec.pump_mode)
    for x in ax1.values():
        p1 = apply_axis(base, ax1.name, float(x))
        for y in ax2.values():
            yield float(x), float(y), apply_axis(p1, ax2.name, float(y))


def check_grid(config_text: str, rows: list[dict], seed: int) -> list[str]:
    """Mismatches between a sweep CSV and the oracle on a seeded sample."""
    _, spec = parse_config(config_text)
    points = list(_grid_params(spec))
    if len(points) != len(rows):
        return [f"CSV has {len(rows)} rows, grid has {len(points)} points"]
    rng = random.Random(f"grid-oracle-{seed}")
    stable = [i for i, r in enumerate(rows) if r["stable"] == "true"]
    picked = set(rng.sample(stable, min(STABLE_SAMPLE, len(stable))))
    picked |= set(rng.sample(range(len(rows)), min(FLAG_SAMPLE, len(rows))))
    problems = []
    for i in sorted(picked):
        x, y, params = points[i]
        row = rows[i]
        if row["axis1"] != fmt(x) or row["axis2"] != fmt(y):
            problems.append(f"row {i}: axes {row['axis1']},{row['axis2']} "
                            f"!= {fmt(x)},{fmt(y)}")
            continue
        want = evaluate(params)
        problems += _compare_point(f"row {i}", row, want)
    return problems


def _compare_point(label: str, row: dict, want: dict) -> list[str]:
    problems = []
    got_margin = float(row["margin"])
    # within the eigensolver's accuracy of the stability threshold the flag
    # is undecidable, so only the margin value is compared there
    decidable = abs(want["margin"] + want["eps"]) > want["eps"]
    if decidable and (row["stable"] == "true") != want["stable"]:
        problems.append(f"{label}: stable={row['stable']}, oracle margin "
                        f"{want['margin']:.6e}")
    if not close(got_margin, want["margin"], atol=want["eps"]):
        problems.append(f"{label}: margin {got_margin!r} != {want['margin']!r}")
    if row["stable"] == "true" and want["stable"]:
        for name in CSV_FIELDS:
            if not close(float(row[name]), want[name]):
                problems.append(f"{label}: {name} {row[name]} != "
                                f"{want[name]!r}")
    return problems


def check_phase_opt(config_text: str, result: dict) -> list[str]:
    """Check one ``phase-opt`` report: its optimum and its zero-phase
    baseline against the oracle, and that the optimum is no worse than the
    baseline."""
    missing = [key for key in PHASE_OPT_KEYS if key not in result]
    if missing:
        return [f"phase-opt output lacks {', '.join(missing)}"]
    params, spec = parse_config(config_text)
    base = apply_pump_mode(params, spec.pump_mode)
    problems = []
    theta = float(result["delta_theta_star_rad"])
    r_star = float(result["r_min_star"])
    r_zero = float(result["r_min_at_zero_phase"])
    want_star = evaluate(apply_axis(base, "delta_theta", theta))
    want_zero = evaluate(apply_axis(base, "delta_theta", 0.0))
    if not want_star["stable"] or not close(r_star, want_star["R_min"]):
        problems.append(f"r_min_star {r_star!r} != oracle "
                        f"{want_star.get('R_min', math.nan)!r}")
    if not close(r_zero, want_zero.get("R_min", math.nan)):
        problems.append(f"r_min_at_zero_phase {r_zero!r} != oracle "
                        f"{want_zero.get('R_min', math.nan)!r}")
    if not math.isnan(r_zero) and r_star < r_zero - ATOL:
        problems.append(f"r_min_star {r_star!r} below zero-phase {r_zero!r}")
    return problems
