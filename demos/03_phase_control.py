"""Phase control of tripartite entanglement.

The drive phase difference modulates the steady-state magnon amplitude and
through it the effective magnomechanical coupling, so R_min(delta_theta) is
2pi-periodic.  The optimizer scans the phase and then zooms in on the best
one, batch by batch.
"""
import numpy as np

import cmmsim as c

# strong cavity drive: the interference depth of the two drives,
# rho = |g_ma eps_a| / (|i delta_a + kappa_a| eps_m), is about 0.05
base = c.baseline_params(P_a=0.45)
print("R_min versus drive phase difference at delta_a/omega_b = "
      f"{base.delta_a / base.omega_b:+.2f}, P_a = {base.P_a} W")

# the scan is one batch: a row does not depend on the batch it is in
ths = np.linspace(0.0, 2.0 * np.pi, 25)
scan = c.evaluate_batch(c.ParamBatch.from_base(
    base, ths.size, theta_a=base.theta_m + ths)).table
for th, row in zip(ths, scan):
    mark = "unstable" if not row.stable else f"{row.r_min:8.5f} " + \
        "#" * int(round(40 * row.r_min / 0.02))
    print(f"  delta_theta = {th / np.pi:5.3f} pi : {mark}")

theta_star, r_star, _ = c.optimize_phase(base, resolution=48)
print(f"\noptimizer: delta_theta* = {theta_star / np.pi:.4f} pi, "
      f"R_min* = {r_star:.6f}")

# periodicity and gauge invariance checks
row_a = c.evaluate_point(c.apply_axis(base, "delta_theta", 1.0))
row_b = c.evaluate_point(c.apply_axis(base, "delta_theta", 1.0 + 2.0 * np.pi))
print(f"periodicity: |R_min(1 rad) - R_min(1 rad + 2pi)| = "
      f"{abs(row_a.r_min - row_b.r_min):.2e}")

shift = 0.7331
shifted = base.replace(theta_a=base.theta_a + shift, theta_m=base.theta_m + shift)
print(f"gauge shift of both phases: |R_min difference| = "
      f"{abs(c.evaluate_point(base).r_min - c.evaluate_point(shifted).r_min):.2e}")
