#!/usr/bin/env python3
"""Witness tour: which criterion detects which probe family.

Builds the standard families, evaluates every moment-based squeezing
criterion plus the Fisher-information bounds, and prints the verdict
matrix together with certified entanglement depths.
"""

from qmetro import avg_qfi, depth_certificate, macroscopicity, moments
from qmetro.states import (SqueezingSpec, dicke, ghz, polarized, singlet_pi,
                           squeezed_ground_state)
from qmetro.witnesses import (optimal_ssi, xi_squared_os, xi_squared_s,
                              xi_squared_singlet)

families = {
    "polarized(8)": polarized(8, "z"),
    "squeezed(8)": squeezed_ground_state(SqueezingSpec(8, 4.0)),
    "ghz(8)": ghz(8),
    "dicke(8,4)": dicke(8, 4),
    "singlet(6)": singlet_pi(6),
}


def tag(report):
    if report.verdict == "inapplicable" or report.value is None:
        return "   --"
    mark = "*" if report.violated else " "
    return f"{report.value:5.2f}{mark}"


def best_axis(criterion, m):
    # an experimenter aligns the squeezed axis with the smallest variance
    reports = [criterion(m, squeezed_axis=a) for a in "xyz"]
    usable = [r for r in reports if r.value is not None]
    return min(usable, key=lambda r: r.value) if usable else reports[0]


print("witness values at the most favourable squeezing axis")
print("(* = violation = entanglement certified)")
print(f"{'state':<14} {'xi_s^2':>7} {'xi_os^2':>8} {'xi_singlet^2':>13} {'ssi':>5}")
for name, st in families.items():
    m = moments(st)
    ssi_flag = "viol " if any(r.violated for r in optimal_ssi(m)) else "ok   "
    print(f"{name:<14} {tag(best_axis(xi_squared_s, m)):>7} "
          f"{tag(best_axis(xi_squared_os, m)):>8} "
          f"{tag(xi_squared_singlet(m)):>13} {ssi_flag:>5}")

print("\nFisher-information certification (best collective direction):")
for name, st in families.items():
    macro = macroscopicity(st)
    F = macro.fq_max / 4.0          # best F_Q[rho, J_n]
    cert = depth_certificate(F, st.n)
    avg = avg_qfi(st)
    flag = "genuine N-partite" if cert.genuine_multipartite else f"depth >= {cert.depth}"
    print(f"  {name:<14} max F_Q = {F:7.2f} (sep. bound {st.n}) -> {flag}; "
          f"avg = {avg.average:6.2f} (max {avg.bound_maximum:.2f}); "
          f"N_eff = {macro.n_eff:.2f}")
