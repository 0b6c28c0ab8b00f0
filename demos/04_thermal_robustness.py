"""Thermal fragility of the tripartite entanglement.

R_min decays monotonically with bath temperature and vanishes below 1 K.
Compares two drive phase differences at the entangled operating point.
"""
import numpy as np

import cmmsim as c

base = c.baseline_params()
temps = np.linspace(0.01, 0.30, 16)
PHASES = {"pi/2": np.pi / 2.0, "0": 0.0}


def r_min(temps):
    """R_min at each temperature of ``temps`` for each of PHASES, as one
    batch: a row does not depend on the batch it is in."""
    t, th = np.meshgrid(temps, list(PHASES.values()))
    p = c.ParamBatch.from_base(base, t.size, T=t.ravel(),
                               theta_a=base.theta_m + th.ravel())
    values = c.evaluate_batch(p).table.column("r_min")
    return dict(zip(PHASES, values.reshape(t.shape)))


print("      T [mK]   R_min(pi/2)    R_min(0)")
curves = r_min(temps)
for T, a, b in zip(temps, curves["pi/2"], curves["0"]):
    print(f"  {1e3 * T:10.1f}   {a:10.6f}   {b:10.6f}")

# death temperature: first T at which R_min is exactly zero
scan = np.linspace(0.01, 1.0, 100)
for label, values in r_min(scan).items():
    dead = np.flatnonzero(values == 0.0)
    death = (f"entanglement death at T = {1e3 * scan[dead[0]]:.0f} mK"
             if dead.size else "no death below 1 K")
    print(f"delta_theta = {label:4s}: {death}")

mono = np.all(np.diff(curves["pi/2"]) <= 1e-12)
print(f"\nmonotone non-increasing in T (pi/2 curve): {mono}")
