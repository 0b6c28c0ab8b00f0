"""Workload definitions and seeded input generation.

Every workload is a list of ``cmmsim`` command lines (argument vectors for
``cmmsim.cli.main``) plus the config files they read.  The seed draws the
``phase_opt`` operating points; the grid workloads are fixed grids and the
seed only picks the rows the oracle checks.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass

WORKLOADS = ("phase_grid", "stability_edge", "phase_opt")
GRID_WORKLOADS = ("phase_grid", "stability_edge")

PHASE_GRID_CFG = os.path.join("configs", "sweep_phase_grid.cfg")
BASELINE_CFG = os.path.join("configs", "baseline.cfg")

PHASE_OPT_RESOLUTION = 64
#: operating points drawn per run, one phase-opt call each per pass; more
#: than 110, so that p90 has ten samples beyond it
PHASE_OPT_POINTS = 120
#: phase-opt calls per pass of a traced run
PHASE_OPT_PASS = 100

SMOKE_GRID_COUNT = 6
SMOKE_PHASE_OPT_CALLS = 4


@dataclass(frozen=True)
class Inputs:
    """What one run executes: ``commands`` in order (cycled when time
    allows), a ``warmup`` command run untimed first, and each command's
    config text for the oracle."""

    workload: str
    commands: list[list[str]]
    configs: list[str]
    warmup: list[str]
    points_per_command: int
    csv_path: str | None


def set_key(text: str, key: str, value: str) -> str:
    """Replace the value of ``key`` in a flat config; the key must occur
    exactly once so that a reshaped shipped config fails loudly."""
    pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
    new, n = pattern.subn(f"{key} = {value}", text)
    if n != 1:
        raise ValueError(f"config key {key!r} occurs {n} times, expected 1")
    return new


def _read(root: str, rel: str) -> str:
    with open(os.path.join(root, rel), encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def grid_config(workload: str, root: str, count: int | None = None) -> str:
    """Config text of a grid workload.  ``stability_edge`` is the shipped
    phase grid at P_m = 1.2 W on 201 x 201 points; ``count`` overrides the
    points per axis."""
    text = _read(root, PHASE_GRID_CFG)
    if workload == "stability_edge":
        text = set_key(text, "P_m_w", "1.2")
        count = count or 201
    if count is not None:
        text = set_key(text, "sweep.delta_a", f"-2:2:{count}")
        text = set_key(text, "sweep.delta_theta",
                       f"0:6.283185307179586:{count}")
    return text


def phase_opt_points(seed: int, n: int) -> list[tuple[float, float, float]]:
    """(delta_a / omega_b, P_a [W], T [K]) draws: delta_a uniform in
    [-1.6, -1.1], P_a log-uniform in [1e-3, 0.5], T uniform in [10, 100] mK.
    The draws are stratified (a Latin hypercube): each axis's n equal
    strata hold one point each, so every seed spreads its points alike."""
    rng = random.Random(f"phase-opt-{seed}")

    def stratified() -> list[float]:
        strata = list(range(n))
        rng.shuffle(strata)
        return [(s + rng.random()) / n for s in strata]

    lo, hi = math.log(1e-3), math.log(0.5)
    return [(-1.6 + 0.5 * u, math.exp(lo + (hi - lo) * v), 0.010 + 0.090 * w)
            for u, v, w in zip(stratified(), stratified(), stratified())]


def make_inputs(workload: str, seed: int, root: str, workdir: str,
                smoke: bool = False) -> Inputs:
    """Write the workload's config files under ``workdir`` and return the
    commands that read them.  Every config is parsed once, so a broken
    input fails here and not inside the timed region."""
    from cmmsim.cli import parse_config

    os.makedirs(workdir, exist_ok=True)
    if workload in GRID_WORKLOADS:
        text = grid_config(workload, root, SMOKE_GRID_COUNT if smoke else None)
        _, spec = parse_config(text)
        cfg = _write(os.path.join(workdir, "grid.cfg"), text)
        out = os.path.join(workdir, "grid.csv")
        return Inputs(
            workload=workload,
            commands=[["sweep", "--config", cfg, "--out", out]],
            configs=[text],
            # the whole grid once, so that the first timed sweep finds the
            # interpreter's heap grown as the later ones do
            warmup=["sweep", "--config", cfg, "--out",
                    os.path.join(workdir, "warmup.csv")],
            points_per_command=math.prod(ax.count for ax in spec.axes),
            csv_path=out,
        )
    if workload != "phase_opt":
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    base = _read(root, BASELINE_CFG)
    n = SMOKE_PHASE_OPT_CALLS if smoke else PHASE_OPT_POINTS
    commands, configs = [], []
    for k, (da, pa, t) in enumerate(phase_opt_points(seed, n + 1)):
        text = set_key(base, "delta_a_over_omega_b", repr(da))
        text = set_key(text, "P_a_w", repr(pa))
        text = set_key(text, "T_k", repr(t))
        parse_config(text)
        path = _write(os.path.join(workdir, f"point{k:03d}.cfg"), text)
        commands.append(["phase-opt", "--config", path, "--resolution",
                         str(PHASE_OPT_RESOLUTION)])
        configs.append(text)
    # the extra draw warms up; it is never timed or checked
    return Inputs(workload=workload, commands=commands[1:], configs=configs[1:],
                  warmup=commands[0], points_per_command=1, csv_path=None)
