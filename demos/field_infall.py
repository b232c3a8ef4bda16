"""Evolve the driven advection field on a small domain and compare the probe
history against the analytic characteristic solution.
"""
import numpy as np

from growthdyn import (AdvectionSetup, euler_characteristic_phi,
                       euler_terminal_profile, evolve_advection_fd,
                       probe_series)

SETUP = AdvectionSetup(x_min=1.0, x_max=40.0, n_cells=512)
T_END = 100.0 * SETUP.x_max ** 1.5
PROBE_X = 15.0

snapshot_times = np.concatenate(([0.0],
                                 np.geomspace(T_END * 1e-4, T_END, 60)))
snapshots = evolve_advection_fd(SETUP, T_END, snapshot_times)
times, signed = probe_series(snapshots, PROBE_X)
magnitude = np.abs(signed)

print(f"probe at x = {PROBE_X:g} on [{SETUP.x_min:g}, {SETUP.x_max:g}], "
      f"{SETUP.n_cells} cells")
print("(the analytic branch describes the fully developed inflow, so the")
print(" two columns are expected to agree only once the transient clears)")
print(f"{'t':>12}  {'|phi| numeric':>14}  {'characteristic':>14}")
for k in range(2, len(times), 12):
    exact = euler_characteristic_phi(SETUP, PROBE_X, times[k])
    print(f"{times[k]:12.2f}  {magnitude[k]:14.6f}  {exact:14.6f}")

terminal = euler_terminal_profile(SETUP, PROBE_X)
rel = abs(magnitude[-1] - terminal) / terminal
print(f"terminal level sqrt(2/x) = {terminal:.6f}; "
      f"final numeric {magnitude[-1]:.6f} (rel err {rel:.2e})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(6, 4))
mask = times > 0
ax.loglog(times[mask], magnitude[mask], label="conservative upwind march")
exact_curve = [euler_characteristic_phi(SETUP, PROBE_X, tk)
               for tk in times[mask]]
ax.loglog(times[mask], exact_curve, "--", label="characteristic solution")
ax.axhline(terminal, color="gray", lw=0.8)
ax.set_xlabel("t")
ax.set_ylabel("|phi| at the probe")
ax.legend()
fig.tight_layout()
fig.savefig("field_infall.png", dpi=120)
print("wrote field_infall.png")
