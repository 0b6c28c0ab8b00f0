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

# bare-detuning mode takes the bare detuning as the input instead: at the
# back-solved one it returns the same state; further up, the
# self-consistency cubic has three roots, and the smallest is taken: it is
# the branch continued from zero magnomechanical coupling
trip = c.solve_steady_state(p, bare_delta_m=state.delta_m)
print(f"  bare mode at the back-solved detuning: effective "
      f"{trip.delta_m_tilde / p.omega_b:+.4f} omega_b, |m_s|^2 relative "
      f"change {abs(trip.m_s) ** 2 / abs(state.m_s) ** 2 - 1:+.1e}")
high = c.solve_steady_state(p, bare_delta_m=1.6 * p.omega_b)
print(f"  bare mode at +1.6000 omega_b: {high.root_multiplicity} roots, "
      f"effective {high.delta_m_tilde / p.omega_b:+.4f} omega_b")

# effective magnomechanical coupling set by the drives: |G_mb| = sqrt2 g_mb |m_s|
g_mb_eff = np.sqrt(2.0) * p.g_mb * abs(state.m_s)
print(f"\nEffective magnomechanical coupling |G_mb|/2pi = "
      f"{g_mb_eff / c.TWO_PI / 1e6:.3f} MHz")

row = c.evaluate_point(p)
print(f"Spectral stability: stable={row.stable}, "
      f"margin = {row.margin:.4e} rad/s")

# the large-detuning closed form tracks the exact magnon amplitude: the
# bound kappa_a/|delta_a| holds for its magnitude, which sets the
# effective coupling; the dropped linewidths mostly rotate its phase
approx = c.magnon_amplitude_approx(p, state.delta_m_tilde)
mag = abs(abs(approx) - abs(state.m_s)) / abs(state.m_s)
rel = abs(approx - state.m_s) / abs(state.m_s)
print(f"\nLarge-detuning approximation: |m_s| off by {mag:.3%} "
      f"(bounded by kappa_a/|delta_a| = {p.kappa_a / abs(p.delta_a):.3%})")
print(f"  the rest of its {rel:.3%} complex difference is a phase rotation "
      f"by {np.angle(approx / state.m_s):+.4f} rad")

# push the drive power up until the fixed point destabilizes
print("\nStability versus cavity drive power at this detuning:")
for P_a in (0.009, 0.09, 0.9, 9.0, 90.0):
    row = c.evaluate_point(p.replace(P_a=P_a))
    print(f"  P_a = {P_a:7.3f} W : stable={str(row.stable):5s} "
          f"margin = {row.margin:+.3e} rad/s")
