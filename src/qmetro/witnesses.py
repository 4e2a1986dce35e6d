"""Entanglement witnesses from collective moments and Fisher information.

Covers the polarised spin-squeezing parameter, the complete set of
second-moment ("optimal") squeezing inequalities, Dicke- and
singlet-adapted parameters, Fisher-information entanglement and depth
bounds, macroscopic-superposition size and the average two-particle
reduced state.

Axis conventions are explicit arguments everywhere; the printed forms of
the criteria put the squeezed component on x, and those are the defaults.

The moments of a density are summed over blocks of columns of rho
(``linalg.row_blocks``): each J_l meets rho[:, blk] through its ``times``,
with no d x d factor; the columns blk of its factor and the rows blk of
J_l J_l come from ``times`` of unit columns, every entry exact.  The
diagonal <J_l^2> takes the same dense product of those rows with
rho[:, blk] as before, so that exact ties between axes break as they did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import FISHER_FLOOR, VERDICT_TOL
from .fisher import fisher_matrix, qfi
from .linalg import hermitian_trace, pure_moments, row_blocks
from .spin import AXES, PAULI, collective_op
from .states import QuantumState

_AX_INDEX = {"x": 0, "y": 1, "z": 2}


# ----------------------------------------------------------------------
# collective moments
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSet:
    """First moments <J_l> and symmetrised second moments of a state."""

    n: int
    mean: np.ndarray     # (3,)
    second: np.ndarray   # (3,3), entries <{J_k, J_l}/2>

    def __post_init__(self):
        S = self.second
        if np.linalg.eigvalsh(S).min() < -1e-9 * max(1.0, abs(S).max()):
            raise ValueError("second-moment matrix is not PSD")
        total = float(np.trace(S))
        if total > self.n * (self.n + 2) / 4.0 + 1e-9 * max(1.0, total):
            raise ValueError(
                f"total second moment {total:.6f} exceeds the angular-momentum "
                f"bound N(N+2)/4 = {self.n * (self.n + 2) / 4.0}")

    def var(self, axis: str) -> float:
        i = _AX_INDEX[axis]
        return float(self.second[i, i] - self.mean[i] ** 2)

    def second_moment(self, axis: str) -> float:
        i = _AX_INDEX[axis]
        return float(self.second[i, i])

    def total_variance(self) -> float:
        return sum(self.var(a) for a in AXES)


def moments(state: QuantumState) -> MomentSet:
    """Exact first and second collective moments of a state.

    With G_kl = <J_k J_l>, the symmetrised second moments are Re G.  A pure
    state needs only the three vectors J_l|psi> (G is their Gram matrix).
    A density meets each J_l through its ``times``, in blocks of columns of
    rho (real products only on a real density): the columns blk of J_l rho
    give <J_l> and, against the columns blk of J_k's factor, G_kl for k != l,
    and G_ll keeps the dense form Tr((J_l J_l) rho), from the rows blk of
    J_l J_l.  The result is computed once and kept on the state: do not
    write into it.
    """
    return state._memoized("moments", lambda: _evaluate_moments(state))


def _evaluate_moments(state: QuantumState) -> MomentSet:
    ops = [collective_op(a, state.rep) for a in AXES]
    if state.is_pure:
        psi = state.data
        return MomentSet(state.n, *pure_moments(psi, [J.apply(psi) for J in ops]))
    rho, d = state.data, state.data.shape[0]
    diagonals = [J.diagonal() for J in ops]
    mean, G = np.zeros(3), np.zeros((3, 3), dtype=complex)
    parts, power = [[] for _ in ops], [0] * 3
    for l, dl in enumerate(diagonals):
        if dl is not None:  # a whole-array sum, as the dense trace takes it
            mean[l] = hermitian_trace((dl, 0), rho).real
    for blk in row_blocks(d):
        cols = np.ascontiguousarray(rho[:, blk])
        # the columns blk of each factor, every entry one term of the structure
        factors = [None if dl is not None else J.columns(blk) for J, dl in zip(ops, diagonals)]
        for l, J in enumerate(ops):
            x = J.times(cols)
            for m, dm in enumerate(diagonals):
                if m != l:  # a diagonal meets the rows blk of J_l rho[:, blk] only
                    G[m, l] += (hermitian_trace((dm[blk], 0), (x[0][blk], x[1])) if dm is not None
                                else hermitian_trace(factors[m], x))
            if (dl := diagonals[l]) is not None:
                parts[l].append(dl[blk] * dl[blk] * np.diagonal(cols[blk]))
                continue
            mean[l] += (1j ** x[1] * np.trace(x[0][blk])).real
            # at an exact tie between axes (white-noise GHZ, singlets) the axis
            # that optimal_ssi reports follows the round-off of the diagonal, so
            # it takes the rows blk of J_l J_l, each entry exact, through the
            # dense product with rho[:, blk]
            square, power[l] = J.times(factors[l][0])
            power[l] += factors[l][1]
            parts[l].append(np.diagonal(np.ascontiguousarray(square.T.conj()) @ cols))
    for l in range(3):
        G[l, l] = 1j ** power[l] * np.concatenate(parts[l]).sum()
    return MomentSet(state.n, mean, np.real(G + G.conj().T) / 2.0)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one criterion: value vs threshold and the verdict.

    ``direction`` says which side of the threshold is consistent with
    separability ('ge': satisfied when value >= threshold).  ``verdict``
    is 'satisfied', 'violated' or 'inapplicable'; boundary hits within
    ``VERDICT_TOL`` count as satisfied with ``boundary=True``.
    """

    criterion: str
    value: float | None
    threshold: float
    direction: str = "ge"
    verdict: str = "satisfied"
    boundary: bool = False
    certified_depth: int | None = None
    detail: str = ""

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"


def _verdict(value: float, threshold: float, direction: str):
    gap = value - threshold if direction == "ge" else threshold - value
    if gap < -VERDICT_TOL:
        return "violated", False
    # a Python bool: a NumPy one is no JSON value
    return "satisfied", bool(abs(gap) <= VERDICT_TOL)


# ----------------------------------------------------------------------
# spin-squeezing criteria
# ----------------------------------------------------------------------

def _others(axis: str):
    return tuple(a for a in AXES if a != axis)


def xi_squared_s(m: MomentSet, squeezed_axis: str = "x") -> WitnessReport:
    """Polarised squeezing parameter N Var(J_x) / (<J_y>^2 + <J_z>^2).

    Values below one certify entanglement; the criterion needs a mean spin
    in the plane orthogonal to the squeezed axis and reports inapplicable
    without one.
    """
    o1, o2 = _others(squeezed_axis)
    denom = m.mean[_AX_INDEX[o1]] ** 2 + m.mean[_AX_INDEX[o2]] ** 2
    if denom <= 1e-12:
        return WitnessReport("xi_squared_s", None, 1.0, "ge", "inapplicable",
                             detail="mean spin vanishes in the plane orthogonal "
                                    f"to {squeezed_axis}")
    value = m.n * m.var(squeezed_axis) / denom
    verdict, boundary = _verdict(value, 1.0, "ge")
    return WitnessReport("xi_squared_s", value, 1.0, "ge", verdict, boundary,
                         detail=f"squeezed axis {squeezed_axis}")


def xi_squared_os(m: MomentSet, squeezed_axis: str = "x") -> WitnessReport:
    """Dicke-adapted parameter (N-1) Var(J_x) / (<J_y^2> + <J_z^2> - N/2).

    With a nonpositive denominator the underlying second-moment inequality
    holds trivially, so the verdict is satisfied but the ratio undefined.
    """
    o1, o2 = _others(squeezed_axis)
    denom = m.second_moment(o1) + m.second_moment(o2) - m.n / 2.0
    if denom <= 1e-12:
        return WitnessReport("xi_squared_os", None, 1.0, "ge", "satisfied",
                             detail="denominator nonpositive; the underlying "
                                    "inequality holds trivially")
    value = (m.n - 1) * m.var(squeezed_axis) / denom
    verdict, boundary = _verdict(value, 1.0, "ge")
    return WitnessReport("xi_squared_os", value, 1.0, "ge", verdict, boundary,
                         detail=f"squeezed axis {squeezed_axis}")


def xi_squared_singlet(m: MomentSet) -> WitnessReport:
    """Total-variance parameter (sum_l Var J_l) / (N/2); < 1 flags entanglement.

    N times the value also upper-bounds the number of unentangled spins.
    """
    value = m.total_variance() / (m.n / 2.0)
    verdict, boundary = _verdict(value, 1.0, "ge")
    return WitnessReport("xi_squared_singlet", value, 1.0, "ge", verdict, boundary,
                         detail=f"unentangled-spin bound N*xi^2 = {m.n * value:.6g}")


def optimal_ssi(m: MomentSet) -> list[WitnessReport]:
    """The four complete second-moment (optimal squeezing) inequalities.

    The first is an angular-momentum identity valid for every state and is
    enforced on the input; violating any of the remaining three certifies
    entanglement.  The permutation of (k, l, m) with the smallest margin is
    reported for the axis-resolved inequalities.
    """
    n = m.n
    reports = []

    total = sum(m.second_moment(a) for a in AXES)
    bound = n * (n + 2) / 4.0
    if total > bound + 1e-8:
        raise ValueError(f"moments are unphysical: total second moment {total:.8f} "
                         f"exceeds {bound:.8f}")
    verdict, boundary = _verdict(total, bound, "le")
    reports.append(WitnessReport("ssi_total_second_moment", total, bound, "le",
                                 verdict, boundary, detail="valid for all states"))

    tv = m.total_variance()
    verdict, boundary = _verdict(tv, n / 2.0, "ge")
    reports.append(WitnessReport("ssi_total_variance", tv, n / 2.0, "ge",
                                 verdict, boundary))

    # <Jk^2> + <Jl^2> - N/2 <= (N-1) Var(Jm)
    reports.append(_tightest("ssi_second_moments_vs_variance", "le", lambda o1, o2, ax: (
        m.second_moment(o1) + m.second_moment(o2) - n / 2.0, (n - 1) * m.var(ax))))
    # (N-1)[Var(Jk) + Var(Jl)] >= <Jm^2> + N(N-2)/4
    reports.append(_tightest("ssi_variances_vs_second_moment", "ge", lambda o1, o2, ax: (
        (n - 1) * (m.var(o1) + m.var(o2)), m.second_moment(ax) + n * (n - 2) / 4.0)))
    return reports


def _tightest(name: str, sense: str, sides) -> WitnessReport:
    """The report of an axis-resolved inequality lhs <sense> rhs at its axis
    of smallest margin, the first of x, y, z on a tie; ``sides(o1, o2, m)``
    gives (lhs, rhs) for the axis m and the other two o1, o2."""
    rows = []
    for axis in AXES:
        lhs, rhs = sides(*_others(axis), axis)
        rows.append((rhs - lhs if sense == "le" else lhs - rhs, axis, lhs, rhs))
    _, axis, lhs, rhs = min(rows, key=lambda row: row[0])
    verdict, boundary = _verdict(lhs, rhs, sense)
    return WitnessReport(name, lhs, rhs, sense, verdict, boundary,
                         detail=f"tightest for m={axis}")


# ----------------------------------------------------------------------
# Fisher-information criteria
# ----------------------------------------------------------------------

def _resolve_fq(value_or_state, generator):
    if isinstance(value_or_state, (int, float)):
        return float(value_or_state)
    if generator is None:
        raise ValueError("pass a generator together with a state")
    return qfi(value_or_state, generator).value


def qfi_entanglement(value_or_state, n: int, generator=None) -> WitnessReport:
    """Separable states obey F_Q[rho, J_l] <= N; larger values mean entanglement."""
    F = _resolve_fq(value_or_state, generator)
    detail = ""
    if F > n * n + 1e-6:
        detail = f"unphysical: F_Q={F:.6g} exceeds the N^2 ceiling"
    verdict, boundary = _verdict(F, float(n), "le")
    return WitnessReport("qfi_shot_noise_bound", F, float(n), "le", verdict,
                         boundary, detail=detail)


def chi_squared(state, generator, n: int | None = None) -> WitnessReport:
    """Metrological usefulness parameter chi^2 = N / F_Q; < 1 flags entanglement."""
    if n is None:
        if not isinstance(state, QuantumState):
            raise ValueError("pass n explicitly for bare-array states")
        n = state.n
    F = qfi(state, generator).value
    value = float("inf") if F <= FISHER_FLOOR else n / F
    verdict, boundary = _verdict(value, 1.0, "ge") if np.isfinite(value) \
        else ("satisfied", False)
    return WitnessReport("chi_squared", value, 1.0, "ge", verdict, boundary)


def producibility_bound(n: int, k: int) -> float:
    """Largest F_Q[rho, J_l] a k-producible N-qubit state can reach."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={n}")
    s = n // k
    return s * k * k + (n - s * k) ** 2


def avg_producibility_bound(n: int, k: int) -> float:
    """Bound on the direction-averaged QFI for k-producible states."""
    if k == 1:
        return 2.0 * n / 3.0
    s = n // k
    r = n - s * k
    if r != 1:
        return (s * k * (k + 2) + r * (r + 2)) / 3.0
    return (s * k * (k + 2) + 2.0) / 3.0


@dataclass(frozen=True)
class DepthCertificate:
    depth: int
    genuine_multipartite: bool
    fq: float
    n: int

    def bound(self, k: int) -> float:
        return producibility_bound(self.n, k)


def depth_certificate(value_or_state, n: int, generator=None) -> DepthCertificate:
    """Smallest producibility class k consistent with the observed F_Q.

    k-producible states satisfy F_Q <= s k^2 + (N - s k)^2 with
    s = floor(N/k); exceeding the k = N-1 bound certifies genuine
    N-partite entanglement.
    """
    F = _resolve_fq(value_or_state, generator)
    if F < -VERDICT_TOL or F > n * n + 1e-6:
        raise ValueError(f"F_Q={F:.6g} is outside the physical range [0, N^2]")
    depth = next((k for k in range(1, n + 1)
                  if F <= producibility_bound(n, k) + VERDICT_TOL), n)
    genuine = F > producibility_bound(n, n - 1) + VERDICT_TOL if n >= 2 else False
    return DepthCertificate(depth, genuine, F, n)


@dataclass(frozen=True)
class AvgQfiReport:
    """Direction-averaged QFI with every threshold it can be compared to."""

    average: float
    per_axis: tuple
    n: int
    bound_separable: float
    bound_biseparable: float
    bound_maximum: float
    bound_spin_length: float
    producibility_table: dict = field(default_factory=dict)
    certified_depth: int = 1
    genuine_multipartite: bool = False


def _collective_fisher(state: QuantumState) -> np.ndarray:
    """The 3x3 Fisher matrix of (J_x, J_y, J_z), computed once per state."""
    return state._memoized("collective_fisher", lambda: fisher_matrix(
        state, [collective_op(a, state.rep) for a in AXES]).matrix)


def avg_qfi(state) -> AvgQfiReport:
    """Average of F_Q over the three components; equals the uniform
    direction average of F_Q[rho, J_n]."""
    if not isinstance(state, QuantumState):
        raise ValueError("avg_qfi needs a QuantumState (thresholds depend on N)")
    n = state.n
    per_axis = tuple(float(f) for f in np.diag(_collective_fisher(state)))
    avg = sum(per_axis) / 3.0
    mset = moments(state)
    spin_bound = 4.0 * (np.trace(mset.second) - float(mset.mean @ mset.mean)) / 3.0
    table = {k: avg_producibility_bound(n, k) for k in range(1, n + 1)}
    depth = next((k for k in range(1, n + 1) if avg <= table[k] + VERDICT_TOL), n)
    genuine = avg > avg_producibility_bound(n, n - 1) + VERDICT_TOL if n >= 2 else False
    return AvgQfiReport(avg, per_axis, n,
                        bound_separable=2.0 * n / 3.0,
                        bound_biseparable=(n * n + 1) / 3.0,
                        bound_maximum=n * (n + 2) / 3.0,
                        bound_spin_length=float(spin_bound),
                        producibility_table=table,
                        certified_depth=depth,
                        genuine_multipartite=genuine)


# ----------------------------------------------------------------------
# macroscopic superpositions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MacroReport:
    n_eff: float
    direction: tuple
    fq_max: float


def macroscopicity(state: QuantumState) -> MacroReport:
    """Effective superposition size max_n F_Q[rho, 2 J_n] / (4N).

    The QFI is a quadratic form in the direction vector, so the maximum
    over unit-norm collective directions is the top eigenvalue of the
    3x3 Fisher matrix; no direction grid is required.  Site-dependent
    single-particle operators are outside this maximisation.
    """
    w, v = np.linalg.eigh(_collective_fisher(state))
    # eigh's sign is arbitrary: make the largest component positive, the
    # first index winning ties
    top = v[:, -1].real
    top = top * np.sign(top[np.argmax(np.abs(top))])
    # unit-norm single-particle convention a = sigma, i.e. A = 2 J_n
    fq_max = 4.0 * float(w[-1])
    n_eff = fq_max / (4.0 * state.n)
    return MacroReport(n_eff, tuple(top), fq_max)


# ----------------------------------------------------------------------
# reduced two-particle state
# ----------------------------------------------------------------------

# 1, sigma_x, sigma_y, sigma_z: rho2 = (1/4) sum_mn c_mn sigma_m (x) sigma_n
_SIGMA = np.array([np.eye(2)] + [PAULI[a] for a in AXES])


def avg_two_particle_dm(state: QuantumState) -> np.ndarray:
    """The pair-averaged reduced state (1/N(N-1)) sum_{m != n} rho_mn.

    The pair average is swap symmetric, so its Pauli coefficients are the
    Bloch vector c_a0 = c_0a = 2<J_a>/N and the correlations
    c_ab = (4<{J_a, J_b}/2> - N delta_ab) / (N(N-1)): it is computed from
    ``moments(state)``, exactly for every state and in either
    representation, and no 2^N density is formed.
    """
    n = state.n
    if n < 2:
        raise ValueError("need at least two particles")
    m = moments(state)
    c = np.empty((4, 4))
    c[0, 0] = 1.0
    c[0, 1:] = c[1:, 0] = 2.0 * m.mean / n
    c[1:, 1:] = (4.0 * m.second - n * np.eye(3)) / (n * (n - 1))
    # kron(sigma_m, sigma_n)[(i,k), (j,l)] = sigma_m[i,j] sigma_n[k,l]
    return np.einsum("mn,mij,nkl->ikjl", c, _SIGMA, _SIGMA).reshape(4, 4) / 4.0


def moments_from_two_particle(rho2: np.ndarray, n: int) -> MomentSet:
    """Reconstruct collective moments from the pair-averaged reduced state;
    the inverse of ``avg_two_particle_dm``."""
    # c_mn = Tr(rho2 sigma_m (x) sigma_n)
    c = np.einsum("ikjl,mji,nlk->mn", np.asarray(rho2).reshape(2, 2, 2, 2),
                  _SIGMA, _SIGMA).real
    T = c[1:, 1:]
    second = n * (n - 1) / 8.0 * (T + T.T) + n / 4.0 * np.eye(3)
    return MomentSet(n, n / 2.0 * c[1:, 0], second)
