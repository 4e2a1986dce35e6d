#!/usr/bin/env python3
"""The precision frontier of squeezed probes.

Ground states of J_x^2 - lam*J_z minimise Var(J_x) at fixed polarization;
sweeping lam maps out the best Ramsey precision reachable at each mean
spin.  Dividing (dtheta)^-2 by N^2 collapses the curves for different N
onto one shape, which is the hallmark of Heisenberg scaling.

Writes squeezing_frontier.png.
"""

from qmetro.metrology import frontier_lambda_grid, squeezing_frontier

curves = {}
for n in (10, 100, 1000):
    rows = squeezing_frontier(n, frontier_lambda_grid(n, points=72))
    rows.sort(key=lambda r: r.polarization)
    curves[n] = rows
    best = max(rows, key=lambda r: r.precision_inv)
    print(f"N={n:5d}: best (dtheta)^-2 = {best.precision_inv:10.1f} "
          f"at polarization {best.polarization:.3f} "
          f"(N(N+2)/2 = {n*(n+2)/2:.0f})")

print("\nevery sampled point respects the 2N + N^2(1 - pol^2) ceiling:",
      all(r.within_ceiling for rows in curves.values() for r in rows))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(6, 4))
for n, rows in curves.items():
    pol = [r.polarization for r in rows]
    val = [r.precision_inv_norm for r in rows]
    ax.plot(pol, val, label=f"N = {n}")
ax.set_xlabel(r"$\langle J_z\rangle / J_{\max}$")
ax.set_ylabel(r"$(\Delta\theta)^{-2} / N^2$")
ax.set_title("Squeezed-probe precision frontier")
ax.legend()
fig.tight_layout()
fig.savefig("squeezing_frontier.png", dpi=150)
print("wrote squeezing_frontier.png")
