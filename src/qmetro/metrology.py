"""Phase-estimation scenarios, error propagation, noise channels and sweeps.

A Scenario bundles (probe, generator, measured observable, working point).
``error_propagation`` evaluates (Delta theta)^2 = Var(M) / |d<M>/dtheta|^2
with the derivative computed analytically as i<[A, M]>; when both the
slope and the variance vanish at the working point, the theta -> 0 limit
is taken through second derivatives (double commutators), which is exact
for the parity- and Dicke-style schemes whose signal starts quadratically.

Noise enters through per-qubit channels (depolarizing or a Pauli damping
semigroup).  ``apply_noise`` applies one to a full-space density;
``noisy_moments`` maps collective moments through it exactly, since a
Pauli channel only shrinks each qubit's Bloch vector.  A depolarized
symmetric probe is permutation invariant, rho = sum_J A_J (x) 1/d_J, and
``depolarized_qfi`` builds its J blocks directly (N <= NOISY_QFI_MAX),
with ``apply_noise`` kept as the oracle.  ``noisy_scaling_sweep`` traces
how the best squeezed-probe precision degrades with particle number and
fits the scaling exponent: its precision comes from the moment transfer
and its QFI column from the J blocks, so no 2^N density is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .config import CRB_TOL, DERIV_FLOOR, FD_STEP, FISHER_FLOOR
from .fisher import qfi
from .linalg import real_if_exact
from .spin import (CollectiveOperator, Representation,
                   collective_op, full_rep, gradient_op, parity_op,
                   require_density, squared_op, symmetric_rep)
from .states import (QuantumState, SqueezingSpec, braket, check_same_rep, dicke, ghz,
                     operator_moments, polarized, rotate, singlet_pi,
                     squeezed_ground_state, squeezed_ground_states)
from .witnesses import MomentSet, moments

# Largest N for the QFI of a depolarized symmetric probe.  The reduced
# probes and the J blocks hold about N^3/3 numbers and the recursion costs
# about N^4/24 multiply-adds: 75 MB and 3 s at N = 256.
NOISY_QFI_MAX = 256


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One phase-estimation task: probe evolved by exp(-i theta A), M measured.

    theta is the accumulated phase (gamma B t for a field B sensed over a
    time t); the working point ``theta0`` is where the precision is taken.
    """

    probe: QuantumState
    generator: CollectiveOperator
    observable: CollectiveOperator
    theta0: float = 0.0
    label: str = "scenario"

    def __post_init__(self):
        check_same_rep(self.probe, self.generator)
        check_same_rep(self.probe, self.observable)

    @property
    def n(self) -> int:
        return self.probe.n


def ramsey_scenario(n: int, kind: str = "symmetric", theta0: float = 0.0) -> Scenario:
    """Polarised probe precessing about y, transverse component measured."""
    rep = Representation(kind, n)
    return Scenario(polarized(n, "z", rep), collective_op("y", rep),
                    collective_op("x", rep), theta0, label=f"ramsey({n})")


def ghz_parity_scenario(n: int, kind: str = "symmetric", theta0: float = 0.0) -> Scenario:
    """GHZ probe accumulating an N-fold phase, x-basis parity measured."""
    rep = Representation(kind, n)
    return Scenario(ghz(n, rep, axis="z"), collective_op("z", rep),
                    parity_op("x", rep), theta0, label=f"ghz_parity({n})")


def dicke_scenario(n: int, kind: str = "symmetric", theta0: float = 0.0) -> Scenario:
    """Half-excited Dicke probe rotated about y, <J_z^2> measured."""
    if n % 2:
        raise ValueError("the Dicke scheme needs even N")
    rep = Representation(kind, n)
    return Scenario(dicke(n, n // 2, rep), collective_op("y", rep),
                    squared_op(collective_op("z", rep), "Jz^2"),
                    theta0, label=f"dicke({n})")


def gradient_scenario(n: int, theta0: float = 0.0) -> Scenario:
    """Singlet probe under a site-weighted y generator, <J_z^2> measured.

    The probe is rotation invariant, so a homogeneous field produces no
    signal while the gradient component does.  ``singlet_pi`` refuses odd N
    and ``require_density`` full densities past FULL_DENSITY_MAX.
    """
    rep = full_rep(n)
    return Scenario(singlet_pi(n), gradient_op(rep),
                    squared_op(collective_op("z", rep), "Jz^2"),
                    theta0, label=f"gradient({n})")


# ----------------------------------------------------------------------
# error propagation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrecisionResult:
    """(Delta theta)^2 at the working point plus diagnostics.

    ``branch`` is "direct" when the slope is finite, "limit" when the 0/0
    case was resolved through second derivatives.  ``no_sensitivity`` marks
    a flat response (finite variance, vanishing slope to all computed
    orders); ``value`` is inf there.
    """

    value: float
    branch: str
    derivative: float
    variance: float
    fd_derivative: float
    no_sensitivity: bool = False
    message: str = ""

    @property
    def precision_inv(self) -> float:
        return 0.0 if self.no_sensitivity or self.value == 0 else 1.0 / self.value


def _slope(state: QuantumState, A: CollectiveOperator, M: CollectiveOperator) -> float:
    """d<M>/dtheta = i<[A, M]> at the working point: -2 Im<A psi|M psi>, for a
    density -2 Im Tr(A M rho), as Tr(M A rho) = conj Tr(A M rho)."""
    return -2.0 * float(np.imag(braket(state.data, (A,), (M,))))


def _curvature_terms(state: QuantumState, A: CollectiveOperator, M: CollectiveOperator):
    """-<[A,[A,M]]> and -<[A,[A,M^2]]>: the second derivatives of <M> and
    <M^2> at the working point.

    -<[A,[A,X]]> = 2<A psi|X A psi> - 2 Re<A^2 psi|X psi> for X = M and M^2,
    the latter as 2<M A psi|M A psi> - 2 Re<A^2 psi|M^2 psi> (for a density,
    each bra-ket Tr(L^dag R rho)).
    """
    data = state.data
    return (2.0 * float(np.real(braket(data, (A,), (A, M)) - braket(data, (A, A), (M,)))),
            2.0 * float(np.real(braket(data, (A, M), (A, M)) - braket(data, (A, A), (M, M)))))


def error_propagation(sc: Scenario) -> PrecisionResult:
    A, M = sc.generator, sc.observable
    state = rotate(sc.probe, sc.generator, sc.theta0) if sc.theta0 else sc.probe
    mean, second = operator_moments(M, state.data)
    d1 = _slope(state, A, M)
    var = second - mean * mean

    # central finite difference of <M>(theta) as an independent cross-check
    def mean_at(theta):
        return rotate(sc.probe, sc.generator, theta).expectation(M)

    fd = (mean_at(sc.theta0 + FD_STEP) - mean_at(sc.theta0 - FD_STEP)) / (2 * FD_STEP)

    if abs(d1) > DERIV_FLOOR:
        return PrecisionResult(var / d1 ** 2, "direct", d1, var, fd)

    if var > DERIV_FLOOR:
        return PrecisionResult(float("inf"), "direct", d1, var, fd,
                               no_sensitivity=True,
                               message="flat response: finite variance with zero slope")

    # 0/0 at the working point: expand one order further.
    #   <M>'' = -<[A,[A,M]]>,  Var''  = -<[A,[A,M^2]]> - 2<M><M>'' (slope term ~ 0)
    dd_m, dd_second = _curvature_terms(state, A, M)
    var_dd = dd_second - 2 * d1 * d1 - 2 * mean * dd_m
    if abs(dd_m) < DERIV_FLOOR:
        return PrecisionResult(float("inf"), "limit", d1, var, fd,
                               no_sensitivity=True,
                               message="no sensitivity: signal flat through second order")
    value = var_dd / (2 * dd_m ** 2)
    return PrecisionResult(value, "limit", d1, var, fd,
                           message="theta->0 limit via second derivatives")


@dataclass(frozen=True)
class CrbReport:
    precision: float
    qcrb: float
    gap: float
    consistent: bool
    result: PrecisionResult  # the error propagation the check was made on


def crb_consistency(sc: Scenario) -> CrbReport:
    """Check (Delta theta)^2 >= 1/F_Q for the scenario's probe and generator."""
    res = error_propagation(sc)
    F = qfi(sc.probe, sc.generator).value
    qcrb = float("inf") if F <= FISHER_FLOOR else 1.0 / F
    if res.no_sensitivity:
        return CrbReport(float("inf"), qcrb, float("inf"), True, res)
    gap = res.value - qcrb
    return CrbReport(res.value, qcrb, gap, gap >= -CRB_TOL, res)


def ramsey_curve(probe: QuantumState, generator: CollectiveOperator,
                 observable: CollectiveOperator, thetas) -> dict:
    """<M>(theta) and Var M(theta) sampled on a grid."""
    thetas = np.asarray(thetas, dtype=float)
    means = np.empty_like(thetas)
    variances = np.empty_like(thetas)
    for i, th in enumerate(thetas):
        m, second = operator_moments(observable, rotate(probe, generator, th).data)
        means[i], variances[i] = m, second - m ** 2  # C pow, as QuantumState.variance
    return {"theta": thetas, "mean": means, "variance": variances}


# ----------------------------------------------------------------------
# squeezed-probe precision frontier
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    """One row of a frontier or noise sweep and the ceiling it must keep:
    2N + N^2 (1 - pol^2) on the frontier, N/p in a noise sweep (N^2 at
    p = 0).  The bound columns are the separable N, the biseparable
    (N - 1)^2 + 1 and the Heisenberg N^2."""

    scenario: str
    n: int
    p: float
    lam: float
    theta0: float
    precision_inv: float
    qfi: float
    bound_sep: float
    bound_bisep: float
    bound_heisenberg: float
    polarization: float
    var_x: float
    ceiling: float

    @property
    def within_ceiling(self) -> bool:
        return self.precision_inv <= self.ceiling + 1e-6


def _sweep_record(scenario: str, n: int, p: float, lam, precision_inv, qfi,
                  polarization, var_x, ceiling) -> SweepRecord:
    """A row read out at theta0 = 0, with its bound columns filled in."""
    return SweepRecord(scenario, n, p, float(lam), 0.0, float(precision_inv),
                       float(qfi), float(n), float((n - 1) ** 2 + 1), float(n * n),
                       float(polarization), float(var_x), float(ceiling))


def _frontier_record(st: QuantumState, lam: float) -> SweepRecord:
    n = st.n
    mz = st.expectation(collective_op("z", st.rep))
    vx = st.variance(collective_op("x", st.rep))
    prec = mz * mz / vx if vx > 1e-300 else 0.0
    pol = mz / (n / 2.0)
    return _sweep_record("frontier", n, 0.0, lam, prec,
                         4.0 * st.variance(collective_op("y", st.rep)), pol, vx,
                         2.0 * n + n * n * (1.0 - pol * pol))


def squeezing_frontier(n: int, lambdas) -> list[SweepRecord]:
    """Precision of the variance-minimising probes across polarizations.

    Each row measures J_x after a rotation about y of the ground state of
    J_x^2 - lam J_z; sweeping lam traces the best (Delta theta)^-2
    reachable at a given mean spin.  Its ceiling is 2N + N^2 (1 - pol^2).
    """
    if n % 2:
        raise ValueError("the squeezed-probe family needs even N")
    lambdas = list(lambdas)
    return [_frontier_record(st, lam)
            for st, lam in zip(squeezed_ground_states(n, lambdas), lambdas)]


def frontier_lambda_grid(n: int, points: int = 110, pol_floor: float = 0.005) -> np.ndarray:
    """Log grid of lam values, up to 1000 N, whose polarizations span
    (pol_floor, ~1)."""
    lo = 1e-9 * n
    while _frontier_record(squeezed_ground_state(SqueezingSpec(n, lo)),
                           lo).polarization > pol_floor:
        lo /= 10.0
        if lo < 1e-18:
            break
    return np.geomspace(lo, 1e3 * n, points)


def frontier_on_polarization_grid(n: int, pol_grid, points: int = 110) -> np.ndarray:
    """Normalised precision interpolated onto a shared polarization grid."""
    rows = squeezing_frontier(n, frontier_lambda_grid(n, points))
    pols = np.array([r.polarization for r in rows])
    precs = np.array([r.precision_inv / n ** 2 for r in rows])
    order = np.argsort(pols)
    return np.interp(np.asarray(pol_grid), pols[order], precs[order])


# ----------------------------------------------------------------------
# noise channels
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseChannel:
    """A single-qubit channel applied independently to every particle.

    ``depolarizing(p)`` replaces each qubit by the fully mixed state with
    probability p.  ``pauli_semigroup`` evolves each qubit for time t under
    the damping generator with axis weights (alpha_x, alpha_y, alpha_z)
    summing to one and overall strength gamma; its Pauli-transfer picture
    is diagonal with decay exp(-gamma (1 - alpha_l) t) on component l.
    """

    kind: str
    p: float = 0.0
    gamma: float = 0.0
    alpha: tuple = (0.0, 0.0, 1.0)
    t: float = 0.0

    def __post_init__(self):
        if self.kind == "depolarizing":
            if not 0.0 <= self.p <= 1.0:
                raise ValueError("depolarizing probability must lie in [0, 1]")
        elif self.kind == "pauli_semigroup":
            a = np.asarray(self.alpha, dtype=float)
            if a.shape != (3,) or (a < 0).any() or abs(a.sum() - 1.0) > 1e-12:
                raise ValueError("axis weights must be nonnegative and sum to 1")
            if self.gamma < 0 or self.t < 0:
                raise ValueError("noise strength and time must be nonnegative")
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        # the Choi matrix of rho -> sum_k c_k sigma_k rho sigma_k has the
        # eigenvalues 2 c_k and the partial trace (sum_k c_k) 1
        c = self.pauli_weights()
        if 2.0 * c.min() < -1e-10 or abs(c.sum() - 1.0) > 1e-10:
            raise ValueError("channel is not CPTP")

    def pauli_weights(self) -> np.ndarray:
        """Mixing weights c_k of rho -> sum_k c_k sigma_k rho sigma_k."""
        if self.kind == "depolarizing":
            return np.array([1.0 - 0.75 * self.p, self.p / 4, self.p / 4, self.p / 4])
        d = np.exp(-self.gamma * (1.0 - np.asarray(self.alpha)) * self.t)
        T = np.array([[1, 1, 1, 1],
                      [1, 1, -1, -1],
                      [1, -1, 1, -1],
                      [1, -1, -1, 1]], dtype=float)
        return T @ np.concatenate([[1.0], d]) / 4.0

    def bloch_shrink(self) -> np.ndarray:
        """Factors (eta_x, eta_y, eta_z) scaling a qubit's Bloch components;
        eta_l = c0 + c_l minus the other two weights (1 - p when depolarizing)."""
        c0, cx, cy, cz = self.pauli_weights()
        return np.array([c0 + cx - cy - cz, c0 - cx + cy - cz, c0 - cx - cy + cz])


def apply_noise(state: QuantumState, channel: NoiseChannel) -> QuantumState:
    """Apply the single-qubit channel to every particle (full rep only).

    A Pauli-diagonal channel mixes the four 2x2 blocks of each qubit with
    fixed coefficients, so the per-qubit update is done blockwise instead
    of summing four operator conjugations.
    """
    if state.rep.kind != "full":
        raise ValueError("per-qubit noise needs the full representation; "
                         "embed symmetric states first (states.to_full)")
    n = require_density(state.rep).n
    c0, cx, cy, cz = channel.pauli_weights()
    pop_keep, pop_flip = c0 + cz, cx + cy
    coh_keep, coh_flip = c0 - cz, cx - cy
    t = state.density().reshape((2,) * (2 * n)).copy()
    for q in range(n):
        v = np.moveaxis(t, (q, n + q), (0, 1))
        b00, b01 = v[0, 0].copy(), v[0, 1].copy()
        b10, b11 = v[1, 0].copy(), v[1, 1].copy()
        v[0, 0] = pop_keep * b00 + pop_flip * b11
        v[1, 1] = pop_flip * b00 + pop_keep * b11
        v[0, 1] = coh_keep * b01 + coh_flip * b10
        v[1, 0] = coh_flip * b01 + coh_keep * b10
    dim = 2 ** n
    rho = t.reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2.0
    return QuantumState(state.rep, rho, label=f"{state.label}|{channel.kind}")


def noisy_moments(m: MomentSet, channel: NoiseChannel) -> MomentSet:
    """Collective moments after ``channel`` acts on every particle, exactly.

    <J_l> is a sum of single-qubit Bloch components, so it shrinks by eta_l.
    <{J_k, J_l}/2> sums two-qubit correlations, which shrink by eta_k eta_l,
    plus for k = l the N/4 of sigma_l^2 = 1, which no channel changes:
    <J_l^2> -> eta_l^2 <J_l^2> + (1 - eta_l^2) N/4.  Any state, symmetric
    or not, pure or mixed.
    """
    eta = channel.bloch_shrink()
    second = np.outer(eta, eta) * m.second
    second[np.diag_indices(3)] += (1.0 - eta ** 2) * (m.n / 4.0)
    return MomentSet(m.n, eta * m.mean, second)


# ----------------------------------------------------------------------
# depolarized symmetric probes as permutation-invariant J blocks
# ----------------------------------------------------------------------

# A block below this trace adds at most 1e-154 N^2 to F_Q; dividing it by
# its trace would rescale entries that underflowed to subnormals.
_BLOCK_TRACE_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def _split(A: np.ndarray, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """up up^T o A[1:, 1:] + down down^T o A[:-1, :-1]: a block one size
    smaller, from two square-root-weighted copies of A shifted by one m.

    Tracing one qubit out of spin j and coupling spin j to a maximally
    mixed spin 1/2 are both this two-term split of the Clebsch-Gordan
    expansion |j, m> = a_m |j-1/2, m-1/2>|up> + b_m |j-1/2, m+1/2>|down>.
    """
    out = A[1:, 1:] * up[:, None]
    out *= up
    low = A[:-1, :-1] * down[:, None]
    low *= down
    out += low
    return out


def _partial_trace(A: np.ndarray) -> np.ndarray:
    """Spin-j block (size d) of a symmetric state -> its reduction to one
    qubit fewer (size d - 1); the trace is kept."""
    d = A.shape[0]
    k = np.arange(d - 1)
    return _split(A, np.sqrt((k + 1) / (d - 1)), np.sqrt((d - 1 - k) / (d - 1)))


def _reductions(A: np.ndarray):
    """sigma_0, ..., sigma_n = A in that order, sigma_k the spin-n/2 block A
    reduced to k qubits by the chain of partial traces.  Every other one is
    kept from one pass down, the ones between recomputed: at sigma_m they
    hold about (n^3 - m^3) / 6 numbers, Horner's J blocks m^3 / 6, so the
    sum stays near the n^3 / 6 of the final blocks (n^3 / 3 keeping all)."""
    kept = [A]
    for i in range(1, A.shape[0]):
        A = _partial_trace(A)
        if i % 2 == 0:
            kept.append(A)
    while kept:
        A = kept.pop()
        if A.shape[0] > 1:  # the one below, not kept
            yield _partial_trace(A)
        yield A


def _couple_mixed_qubit(A: np.ndarray):
    """Spin-j block (size d) tensored with 1/2 on one more qubit and
    symmetrised: the spin j+1/2 block (size d + 1) and the spin j-1/2 block
    (size d - 1, None for j = 0), each half the two-term split of A."""
    d = A.shape[0]
    k = np.arange(d + 1)
    # the split of A padded by one zero row and column on each side: the
    # two shifted terms accumulate into one (d + 1)^2 block
    up, down = np.sqrt((d - k[:d]) / (2 * d)), np.sqrt(k[1:] / (2 * d))
    grown = np.zeros((d + 1, d + 1), dtype=A.dtype)
    np.multiply(A, up[:, None], out=grown[:d, :d])
    grown[:d, :d] *= up
    low = A * down[:, None]
    low *= down
    grown[1:, 1:] += low
    if d == 1:
        return grown, None
    k = k[:d - 1]
    return grown, _split(A, np.sqrt((k + 1) / (2 * d)), np.sqrt((d - 1 - k) / (2 * d)))


def _depolarized_blocks(probe: QuantumState, p: float) -> list:
    """The blocks A_J of a symmetric-sector probe after per-qubit
    depolarizing noise p, largest J first: rho' = sum_J A_J (x) 1/d_J.

    With sigma_n the probe reduced to n qubits and w_k the binomial weight
    of k depolarized qubits, rho' = sum_k w_k Sym[sigma_{N-k} (x) (1/2)^k].
    Horner's rule over n = 1..N builds it as Z_n = T(Z_{n-1}) + w_{N-n}
    sigma_n, where T couples one maximally mixed qubit to every block, so
    no 2^N matrix appears.  A real probe stays in real arithmetic.
    """
    n = probe.n
    reduced = _reductions(real_if_exact(probe.density()))
    weights = [comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    blocks = [weights[n] * next(reduced)]
    for m in range(1, n + 1):
        # block r of Z_m (J = m/2 - r) gets J + 1/2 from block r and
        # J - 1/2 from block r - 1 of Z_{m-1}
        new = [None] * (m // 2 + 1)
        for r in range(len(blocks)):
            # each block of Z_{m-1} goes as soon as it is coupled
            grown, shrunk = _couple_mixed_qubit(blocks[r])
            blocks[r] = None
            new[r] = grown if new[r] is None else new[r] + grown
            if shrunk is not None:
                new[r + 1] = shrunk
        new[0] += weights[n - m] * next(reduced)
        blocks = new
    return blocks


def depolarized_qfi(probe: QuantumState, p: float) -> float:
    """F_Q[J_y] of a symmetric-sector probe (pure or density) after
    depolarizing noise p on every qubit, from its J blocks.

    F_Q = sum_J Tr(A_J) F_Q(A_J / Tr A_J), each block a spin-J state with
    its own J_y (Chase & Geremia, PRA 78, 052101 (2008)); J = 0 carries no
    QFI.  ``apply_noise`` on the 2^N embedding is the oracle for N <= 10.
    """
    if probe.rep.kind != "symmetric":
        raise ValueError("depolarized_qfi needs a symmetric-sector probe")
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing probability must lie in [0, 1]")
    if probe.n > NOISY_QFI_MAX:
        raise ValueError(f"the noisy QFI is limited to N <= {NOISY_QFI_MAX} "
                         f"(NOISY_QFI_MAX), got N={probe.n}")
    F = 0.0
    for A in _depolarized_blocks(probe, p):
        weight = float(np.trace(A).real)
        # blocks whose trace is near the float floor hold only round-off
        if A.shape[0] == 1 or weight < _BLOCK_TRACE_FLOOR:
            continue
        rep = symmetric_rep(A.shape[0] - 1)
        F += weight * qfi(QuantumState(rep, A / weight), collective_op("y", rep)).value
    return F


# ----------------------------------------------------------------------
# noisy scaling sweep
# ----------------------------------------------------------------------

@dataclass
class SweepResult:
    records: list
    exponent: float | None


def _noisy_precision(n: int, lam: float, channel: NoiseChannel):
    """Best-probe precision <J_z>^2 / Var(J_x) at (N, lam) after per-qubit
    noise, from the probe's symmetric-sector moments: no density is built."""
    return _probe_precision(squeezed_ground_state(SqueezingSpec(n, lam)), channel)


def _probe_precision(probe: QuantumState, channel: NoiseChannel):
    """``_noisy_precision`` of a squeezed probe already built."""
    n = probe.n
    m = noisy_moments(moments(probe), channel)
    mz, vx = float(m.mean[2]), m.var("x")
    prec = mz * mz / vx if vx > 1e-300 else 0.0
    return prec, mz / (n / 2.0), vx, probe


def _golden(f, xa: float, xb: float, xc: float, xtol: float):
    """Minimise f by golden-section search in the bracket xa < xb < xc.

    Step for step the iteration of ``scipy.optimize.minimize_scalar(f,
    bracket=(xa, xb, xc), method="golden", options={"xtol": xtol})``: the
    same constant, start points, stopping rule and final tie rule, so the
    same points are evaluated and (x, f(x)) agree bit for bit.  The caller
    has checked f(xb) < f(xa), f(xc) on values it already has, so the
    bracket is not evaluated again.
    """
    gr = 0.61803399
    gc = 1.0 - gr
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gc * (xc - xb)
    else:
        x1, x2 = xb - gc * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    while abs(x3 - x0) > xtol * (abs(x1) + abs(x2)):
        if f2 < f1:
            x0, x1 = x1, x2
            x2 = gr * x1 + gc * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2 = x2, x1
            x1 = gr * x2 + gc * x0
            f2, f1 = f1, f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def noisy_scaling_sweep(p: float, n_list, lambda_points: int = 16) -> SweepResult:
    """Optimise the squeezed-probe precision over lam for every N and fit
    the log-log scaling of the optimum.

    The probe family is the squeezed ground state of J_x^2 - lam J_z, read
    out at theta0 = 0 (the records' ``theta0`` column is 0.0).

    Each record carries its ceiling: N/p under uncorrelated noise, N^2 at
    p = 0.  The lam search is a coarse log grid followed by golden-section
    refinement around the best point, both on moments transferred through
    the channel.  The QFI column, at the optimum, comes from the probe's
    permutation-invariant J blocks (``depolarized_qfi``), or at p = 0 from
    the pure probe itself; no 2^N density is built.  With p > 0 it is
    limited to N <= NOISY_QFI_MAX; a longer list, or one naming an N twice,
    is refused before any row runs; at p = 0 any symmetric-sector N is accepted.
    """
    channel = NoiseChannel("depolarizing", p=p)
    n_list = list(n_list)
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"a particle number is listed more than once in {n_list}")
    if p > 0 and max(n_list, default=0) > NOISY_QFI_MAX:
        raise ValueError(f"the QFI column of a noisy sweep is limited to "
                         f"N <= {NOISY_QFI_MAX} (NOISY_QFI_MAX), got N={max(n_list)}")
    records = []
    for n in n_list:
        lams = frontier_lambda_grid(n, lambda_points, pol_floor=0.02)
        vals = [_probe_precision(probe, channel)[0]
                for probe in squeezed_ground_states(n, lams)]
        k = int(np.argmax(vals))
        lam_best, prec_best = lams[k], vals[k]
        # golden-section refinement needs a strict interior maximum; on a
        # flat landscape (e.g. p = 1, all zero) the coarse point stands
        if 0 < k < len(lams) - 1 and vals[k - 1] < vals[k] > vals[k + 1]:
            u, fun = _golden(lambda u: -_noisy_precision(n, np.exp(u), channel)[0],
                             np.log(lams[k - 1]), np.log(lams[k]), np.log(lams[k + 1]),
                             xtol=1e-2)
            if -fun > prec_best:
                lam_best, prec_best = float(np.exp(u)), float(-fun)
        prec, pol, vx, probe = _noisy_precision(n, lam_best, channel)
        F = (depolarized_qfi(probe, p) if p > 0
             else qfi(probe, collective_op("y", probe.rep)).value)
        records.append(_sweep_record(f"squeezing(p={p:g})", n, p, lam_best, prec, F,
                                     pol, vx, n / p if p > 0 else n * n))
    exponent = None
    if len(records) >= 3:
        ns = np.array([r.n for r in records], dtype=float)
        ys = np.array([r.precision_inv for r in records])
        if (ys > 0).all():
            exponent = float(np.polyfit(np.log(ns), np.log(ys), 1)[0])
    return SweepResult(records, exponent)
