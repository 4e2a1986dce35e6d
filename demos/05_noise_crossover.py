#!/usr/bin/env python3
"""How uncorrelated noise pulls Heisenberg scaling back to shot noise.

Optimises the squeezed-probe precision over the squeezing strength at
each N, once without noise and once under per-qubit depolarizing noise,
then fits the log-log scaling exponents.  With noise the optimum sits at
a finite polarization and every point obeys the N/p ceiling.  The noisy
precision comes from moment transfer and the QFI from the probe's
permutation-invariant J blocks, so the noisy sweep also runs at
N = 32..256, where both grow only linearly in N.  QFI/N is printed beside
the depolarizing constant 2 eta^2 / ((1 - eta)(1 + 2 eta)) of
Demkowicz-Dobrzanski, Kolodynski & Guta, Nat. Commun. 3, 1063 (2012),
which caps F_Q/N for any probe as N grows (eta = 1 - p).

Writes noise_crossover.png when matplotlib is installed.
"""

from qmetro.metrology import noisy_scaling_sweep

print("noiseless sweep (symmetric sector, large N):")
clean = noisy_scaling_sweep(0.0, [32, 64, 128, 256], lambda_points=12)
for r in clean.records:
    print(f"  N={r.n:4d}: best (dtheta)^-2 = {r.precision_inv:9.1f} "
          f"at polarization {r.polarization:.3f}")
print(f"  fitted exponent: {clean.exponent:.3f}  (Heisenberg scaling -> 2)")

p = 0.25
print(f"\ndepolarizing noise p={p}, small N:")
noisy = noisy_scaling_sweep(p, [4, 6, 8, 10], lambda_points=12)
for r in noisy.records:
    print(f"  N={r.n:2d}: best (dtheta)^-2 = {r.precision_inv:7.3f}  "
          f"ceiling N/p = {noisy.ceiling[r.n]:5.1f}  "
          f"Var(Jx) = {r.var_x:.3f} >= pN/4 = {p*r.n/4:.3f}")
print(f"  fitted exponent: {noisy.exponent:.3f}  (shot-noise scaling -> 1)")

# <J_z> <= eta N/2 and Var(J_x) >= (1 - eta^2) N/4 after the channel, so
# the squeezed probes stay below eta^2 N / (1 - eta^2), eta = 1 - p
eta = 1.0 - p
channel_constant = 2 * eta ** 2 / ((1 - eta) * (1 + 2 * eta))
print(f"\ndepolarizing noise p={p}, large N; squeezed probes stay below "
      f"{eta**2 / (1 - eta**2) * p:.3f} N/p, and QFI/N below "
      f"{channel_constant:.3f} asymptotically:")
wide = noisy_scaling_sweep(p, [32, 64, 128, 256], lambda_points=12)
for r in wide.records:
    print(f"  N={r.n:4d}: best (dtheta)^-2 = {r.precision_inv:8.2f}  "
          f"= {r.precision_inv / wide.ceiling[r.n]:.3f} N/p   "
          f"QFI/N = {r.qfi / r.n:.4f}  (bound {channel_constant:.3f})")
print(f"  fitted exponent: {wide.exponent:.3f}  (linear in N)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(6, 4))
ns_clean = [r.n for r in clean.records]
ax.loglog(ns_clean, [r.precision_inv for r in clean.records], "o-", label="p = 0")
ns = [r.n for r in noisy.records + wide.records]
ax.loglog(ns, [r.precision_inv for r in noisy.records + wide.records], "s-",
          label=f"p = {p}")
ax.loglog(ns, [r.qfi for r in noisy.records + wide.records], "^:",
          label=f"QFI, p = {p}")
ax.loglog(ns, [n / p for n in ns], "k--", label="N/p ceiling")
ax.set_xlabel("N")
ax.set_ylabel(r"optimised $(\Delta\theta)^{-2}$")
ax.set_title("Noise turns Heisenberg scaling into shot-noise scaling")
ax.legend()
fig.tight_layout()
fig.savefig("noise_crossover.png", dpi=150)
print("wrote noise_crossover.png")
