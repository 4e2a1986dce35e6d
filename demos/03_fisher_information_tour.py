#!/usr/bin/env python3
"""A tour of the Fisher-information machinery on one noisy GHZ state.

Covers: the eigendecomposition QFI and its closed white-noise form, the
symmetric logarithmic derivative and the optimal measurement built from
it, the variance roofs, the quantum speed bound and the Zeno time.
"""

import numpy as np

from qmetro import (Povm, classical_fisher, concave_roof_oracle,
                    convex_roof_oracle, mandelstam_tamm_check, qfi,
                    qfi_alternative, sld, white_noise_qfi, wigner_yanase,
                    zeno_time)
from qmetro.spin import collective_op, full_rep
from qmetro.states import ghz, mix_white_noise

n, p = 3, 0.7
pure = ghz(n, full_rep(n), axis="x")
noisy = mix_white_noise(pure, p)
Jx = collective_op("x", full_rep(n))

F = qfi(noisy, Jx)
print(f"GHZ({n}) mixed with white noise at p={p}")
print(f"  qfi (eigendecomposition) = {F.value:.10f}  "
      f"[{F.skipped_pairs} zero-support pairs skipped]")
print(f"  qfi (closed form)        = {white_noise_qfi(pure, Jx, p):.10f}")
print(f"  qfi (second-moment form) = {qfi_alternative(noisy, Jx):.10f}")
print(f"  4 * skew information     = {4 * wigner_yanase(noisy, Jx):.10f}  (never above qfi)")
print(f"  4 * variance             = {4 * noisy.variance(Jx):.10f}  (never below qfi)")

L = sld(noisy, Jx)
print(f"\n  Tr(rho L^2) = {np.trace(noisy.data @ L @ L).real:.10f}  (equals qfi)")
povm = Povm.from_observable_eigenbasis(L)
F_cl = classical_fisher(noisy, Jx, povm)
print(f"  classical Fisher information in the L eigenbasis = {F_cl.value:.10f}")

print("\nvariance roofs: exact optimal decompositions into rank(rho) pure states:")
cv = convex_roof_oracle(noisy, Jx)
cc = concave_roof_oracle(noisy, Jx)
print(f"  minimised average variance = {cv.value:.10f}   (qfi/4 = {F.value/4:.10f}, "
      f"{cv.weights.size} states)")
print(f"  maximised average variance = {cc.value:.10f}   (Var   = {noisy.variance(Jx):.10f})")

theta = 0.02
chk = mandelstam_tamm_check(noisy, Jx, theta)
print(f"\nspeed of evolution at theta={theta}:")
print(f"  fidelity to the rotated state = {chk.fidelity:.10f}")
print(f"  cos^2(sqrt(F/4) theta) bound  = {chk.bound:.10f}  holds: {chk.holds}")
print(f"  Zeno time 2/sqrt(F) = {zeno_time(noisy, Jx):.6f}")
