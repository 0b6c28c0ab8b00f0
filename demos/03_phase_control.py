"""Phase control of tripartite entanglement.

The drive phase difference modulates the steady-state magnon amplitude and
through it the effective magnomechanical coupling, so R_min(delta_theta) is
2pi-periodic.  The drives interfere in one term, so R_min depends on the
phase only through cos(delta_theta - theta0): the phases theta0 + x and
theta0 - x are the same point.  The optimizer scans the half period from
theta0 and then zooms in on the best offset from theta0: one round a batch
inside the half period, and at its ends, where a round is one side, as
many rounds a batch as fit in the scan's size; no phase is evaluated
twice.
"""
import numpy as np

import cmmsim as c

# strong cavity drive: the interference depth of the two drives,
# rho = |g_ma eps_a| / (|i delta_a + kappa_a| eps_m), is about 0.05
base = c.baseline_params(P_a=0.45)
print("R_min versus drive phase difference at delta_a/omega_b = "
      f"{base.delta_a / base.omega_b:+.2f}, P_a = {base.P_a} W")
window = c.phase_window(base)
print(f"phase window: theta0 = {window.theta0:.6f} rad, "
      f"rho = {window.rho:.4f}")

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

# the mirror: theta0 + x and theta0 - x are the same point
x = 1.0
pair = [c.evaluate_point(c.apply_axis(base, "delta_theta",
                                      window.theta0 + dx)) for dx in (x, -x)]
print(f"mirror: R_min(theta0 + 1 rad) = {pair[0].r_min:.9f}, "
      f"R_min(theta0 - 1 rad) = {pair[1].r_min:.9f}")

# periodicity and gauge invariance checks
row_a = c.evaluate_point(c.apply_axis(base, "delta_theta", 1.0))
row_b = c.evaluate_point(c.apply_axis(base, "delta_theta", 1.0 + 2.0 * np.pi))
print(f"periodicity: |R_min(1 rad) - R_min(1 rad + 2pi)| = "
      f"{abs(row_a.r_min - row_b.r_min):.2e}")

shift = 0.7331
shifted = base.replace(theta_a=base.theta_a + shift, theta_m=base.theta_m + shift)
print(f"gauge shift of both phases: |R_min difference| = "
      f"{abs(c.evaluate_point(base).r_min - c.evaluate_point(shifted).r_min):.2e}")
