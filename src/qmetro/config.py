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
# Width of a density's eigenvalue floor: the eigenvalues within this of the
# smallest (of a unit-trace density) are one degenerate floor, folded into an
# implicit kernel of their mean l0 by the Fisher pair sums whose weights vanish
# on equal eigenvalues (F_Q, the skew information, the SLD).  The within-floor
# terms it drops, 2 (l_k - l_l)^2 / (l_k + l_l) |A_kl|^2 <= 2 |l_k - l_l| |A_kl|^2,
# sum to at most 2 FLOOR_WIDTH ||A||_F^2 in F_Q, and each floor-support weight
# moves by at most 6 FLOOR_WIDTH.  Round-off spreads a floor by ~1e-15.
FLOOR_WIDTH = 1e-13
# Probability floor for classical Fisher information outcomes.
PROB_FLOOR = 1e-12
# A QFI at or below this is no Fisher information: the Zeno time and the
# Cramer-Rao bound 1/F_Q are infinite, and so is chi^2 = N/F_Q.
FISHER_FLOOR = 1e-12
# Relative eigenvalue cut below which crb_matrix takes a pseudo-inverse.
CRB_RCOND = 1e-10

# Central finite-difference step in theta of the error-propagation slope
# cross-check.
FD_STEP = 1e-5
# Error propagation: a slope, variance or curvature this small in
# magnitude counts as zero.
DERIV_FLOOR = 1e-12

# Witness verdicts, relative: a gap within VERDICT_TOL max(1, scale) reports
# "boundary", one below minus that "violated"; scale is the size of the terms
# compared, N(N+2)/4 times the coefficient of a moment criterion, or F_Q.
VERDICT_TOL = 1e-9
# Slack of the Cramer-Rao check (Delta theta)^2 >= 1/F_Q.
CRB_TOL = 1e-8
# Slack of the speed bound F_B(rho, rho_theta) >= cos^2(sqrt(F_Q/4) theta).
SPEED_BOUND_TOL = 1e-9
# Slack of the roof sandwich F_Q/4 <= sum_k p_k Var_k <= Var.
ROOF_TOL = 1e-8
