"""Fixed numerical thresholds, one constant per decision.

Modules import the thresholds they apply from here; no function takes
one as an argument.  Matrix thresholds are absolute on matrices
normalised to O(1) entries (density matrices, spin operators divided by
N/2, ...) unless marked relative.
"""

# Hermiticity acceptance, relative to the largest matrix entry.
HERMITICITY = 1e-12
# Most negative eigenvalue still accepted as PSD (clamped to zero).
PSD_FLOOR = -1e-10
# State norm / trace deviation from 1.
STATE_NORM = 1e-10
# Unit-vector norm check for direction operators.
DIRECTION_NORM = 1e-9

# Eigenvalue-pair floor in the Fisher-information sums: terms with
# lambda_k + lambda_l below this are dropped (zero-support pairs).
QFI_PAIR_FLOOR = 1e-12
# Probability floor for classical Fisher information outcomes.
PROB_FLOOR = 1e-12
# A QFI at or below this is no Fisher information: the Zeno time and the
# Cramer-Rao bound 1/F_Q are infinite, and so is chi^2 = N/F_Q.
FISHER_FLOOR = 1e-12
# Relative eigenvalue cut below which crb_matrix takes a pseudo-inverse.
CRB_RCOND = 1e-10

# Central finite-difference step in theta: the error-propagation slope
# cross-check and the classical Fisher information.
FD_STEP = 1e-5
# Error propagation: a slope, variance or curvature this small in
# magnitude counts as zero.
DERIV_FLOOR = 1e-12

# Witness verdicts: |value - threshold| below this reports "boundary".
VERDICT_TOL = 1e-9
# Slack of the Cramer-Rao check (Delta theta)^2 >= 1/F_Q.
CRB_TOL = 1e-8
# Slack of the speed bound F_B(rho, rho_theta) >= cos^2(sqrt(F_Q/4) theta).
SPEED_BOUND_TOL = 1e-9
# Slack of the roof sandwich F_Q/4 <= sum_k p_k Var_k <= Var.
ROOF_TOL = 1e-8
