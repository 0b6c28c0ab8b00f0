"""Tripartite entanglement versus cavity detuning.

The minimum residual contangle lives on the negative-detuning side, with a
near-resonance maximum and a magnon-phonon polariton peak near
|delta_a|/omega_b ~ 1.3; the positive side is stable but unentangled.
Prints an ASCII profile and compares single-pump baselines.
"""
import numpy as np

import cmmsim as c

base = c.baseline_params()
axis = c.SweepAxis("delta_a", -2.0, 2.0, 81)

print("Sweeping delta_a/omega_b over [-2, 2] (81 points, both pumps)...")
table = c.run_sweep(c.SweepSpec(base=base, axes=(axis,)))

xs, rmin, stable = table.axis1, table.column("r_min"), table.stable

peak = np.nanargmax(rmin)
print(f"peak R_min = {rmin[peak]:.5f} at delta_a/omega_b = {xs[peak]:+.3f} "
      f"({int(stable.sum())}/{len(table)} stable points)")

top = np.nanmax(rmin)
print("\n  delta_a/omega_b   R_min")
for x, r, s in zip(xs[::2], rmin[::2], stable[::2]):
    bar = "" if not s or np.isnan(r) else "#" * int(round(40 * r / top))
    label = "unstable" if not s else f"{r:8.5f} {bar}"
    print(f"  {x:+14.3f}   {label}")

# single-pump baselines over the same axis
for mode in ("magnon-only", "cavity-only"):
    table_1p = c.run_sweep(c.SweepSpec(base=base, axes=(axis,),
                                       pump_mode=mode))
    mx = np.nanmax(table_1p.column("r_min"))
    print(f"\n{mode:12s}: max R_min over the sweep = {mx:.6f}")
print(f"{'both':12s}: max R_min over the sweep = {top:.6f}")
