"""Mean-field steady state and stability of the dual-driven system.

Walks through the first half of the pipeline at the baseline operating
point: solve the classical fixed point, inspect the magnomechanical
frequency pull, and read the engine's spectral stability test.
"""
import numpy as np

import cmmsim as c

p = c.baseline_params()
print("Baseline operating point")
print(f"  delta_a / omega_b        = {p.delta_a / p.omega_b:+.3f}")
print(f"  effective magnon detuning = {p.delta_m_tilde_target / p.omega_b:+.3f} omega_b")
print(f"  drive phase difference    = {p.delta_theta / np.pi:.3f} pi")

eps_a, eps_m = p.drive_amplitudes()
print(f"\nDrive amplitudes: eps_a = {eps_a:.4e} 1/s, eps_m = {eps_m:.4e} 1/s")

state = c.solve_steady_state(p)
print("\nMean-field fixed point")
print(f"  |alpha_s|^2 = {abs(state.alpha_s)**2:.6e}")
print(f"  |m_s|^2     = {abs(state.m_s)**2:.6e}")
print(f"  q_s         = {state.q_s:.6e}")
print(f"  bare magnon detuning back-solved to {state.delta_m / p.omega_b:+.4f} omega_b")
print(f"  frequency pull g_mb*q_s = {p.g_mb * state.q_s / p.omega_b:+.4f} omega_b")
print(f"  fixed-point residual    = {c.steady_state_residual(p, state):.3e}")

# effective magnomechanical coupling set by the drives: |G_mb| = sqrt2 g_mb |m_s|
g_mb_eff = np.sqrt(2.0) * p.g_mb * abs(state.m_s)
print(f"\nEffective magnomechanical coupling |G_mb|/2pi = "
      f"{g_mb_eff / c.TWO_PI / 1e6:.3f} MHz")

row = c.evaluate_point(p)
print(f"Spectral stability: stable={row.stable}, "
      f"margin = {row.margin:.4e} rad/s")

# the large-detuning closed form tracks the exact magnon amplitude
approx = c.magnon_amplitude_approx(p, state.delta_m_tilde)
rel = abs(approx - state.m_s) / abs(state.m_s)
print(f"\nLarge-detuning approximation off by {rel:.3%} "
      f"(bounded by kappa_a/|delta_a| = {p.kappa_a / abs(p.delta_a):.3%})")

# push the drive power up until the fixed point destabilizes
print("\nStability versus cavity drive power at this detuning:")
for P_a in (0.009, 0.09, 0.9, 9.0, 90.0):
    row = c.evaluate_point(p.replace(P_a=P_a))
    print(f"  P_a = {P_a:7.3f} W : stable={str(row.stable):5s} "
          f"margin = {row.margin:+.3e} rad/s")
