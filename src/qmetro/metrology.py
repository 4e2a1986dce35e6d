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
Pauli channel only shrinks each qubit's Bloch vector.
``noisy_scaling_sweep`` traces how the best squeezed-probe precision
degrades with particle number and fits the scaling exponent: its
precision comes from that moment transfer, and a density is built only
for the QFI column.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS
from .fisher import qfi
from .linalg import require_hermitian
from .spin import (FULL_DENSITY_MAX, PAULI, CollectiveOperator, Representation,
                   collective_op, full_rep, gradient_op, parity_op, symmetric_rep)
from .states import (QuantumState, SqueezingSpec, dicke, ghz, polarized, rotate,
                     singlet_pi, squeezed_ground_state, to_full)
from .witnesses import MomentSet, moments


def worker_count() -> int:
    """Thread cap for sweeps; QMETRO_THREADS overrides the default."""
    env = os.environ.get("QMETRO_THREADS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One phase-estimation task: probe evolved by exp(-i theta A), M measured.

    ``gamma_b`` optionally records the gyromagnetic-ratio--field product
    so theta can be read as gamma*B*t; it does not enter any computation.
    """

    probe: QuantumState
    generator: CollectiveOperator
    observable: CollectiveOperator
    theta0: float = 0.0
    label: str = "scenario"
    gamma_b: float | None = None

    def __post_init__(self):
        if not (self.probe.rep == self.generator.rep == self.observable.rep):
            raise ValueError("probe, generator and observable must share one representation")

    @property
    def n(self) -> int:
        return self.probe.n


def squared_op(op: CollectiveOperator, label: str = "") -> CollectiveOperator:
    # the product runs over stored nonzeros: collective operators are
    # diagonal or banded in the symmetric sector and sparse in the full space
    import scipy.sparse  # deferred: scenarios alone need it
    S = scipy.sparse.csr_array(op.matrix)
    return CollectiveOperator((S @ S).toarray(), op.rep,
                              provenance=label or f"({op.provenance})^2")


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


def gradient_scenario(n: int, theta0: float = 0.0, probe: QuantumState | None = None) -> Scenario:
    """Singlet probe under a site-weighted y generator, <J_z^2> measured.

    The probe is rotation invariant, so a homogeneous field produces no
    signal while the gradient component does.
    """
    if n % 2 or n > 8:
        raise ValueError("gradient estimation implemented for even N <= 8")
    rep = full_rep(n)
    probe = probe if probe is not None else singlet_pi(n)
    return Scenario(probe, gradient_op(rep),
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


def _expect(kind_data, A):
    kind, data = kind_data
    if kind == "vector":
        return float(np.real(np.vdot(data, A @ data)))
    return float(np.real(np.einsum("ij,ji->", A, data)))


def _slope_terms(state: QuantumState, A, M):
    """<M>, <M^2> and d<M>/dtheta = i<[A, M]> at the working point.

    A vector needs only M psi and A psi: the slope is -2 Im<A psi|M psi>.
    """
    if state.is_pure:
        psi = state.data
        m = M @ psi
        return (float(np.real(np.vdot(psi, m))), float(np.real(np.vdot(m, m))),
                -2.0 * float(np.imag(np.vdot(A @ psi, m))))
    kd = ("density", state.data)
    comm = A @ M - M @ A
    return _expect(kd, M), _expect(kd, M @ M), _expect(kd, 1j * comm)


def _curvature_terms(state: QuantumState, A, M):
    """-<[A,[A,M]]> and -<[A,[A,M^2]]>: the second derivatives of <M> and
    <M^2> at the working point.

    For a vector, -<[A,[A,X]]> = 2<A psi|X A psi> - 2 Re<A^2 psi|X psi>,
    evaluated for X = M and M^2 from matrix-vector products.
    """
    if state.is_pure:
        psi = state.data
        a, m = A @ psi, M @ psi
        a2, ma = A @ a, M @ a
        return (2.0 * float(np.real(np.vdot(a, ma) - np.vdot(a2, m))),
                2.0 * float(np.real(np.vdot(ma, ma) - np.vdot(a2, M @ m))))
    kd = ("density", state.data)
    comm = A @ M - M @ A
    M2 = M @ M
    comm2 = A @ M2 - M2 @ A
    return -_expect(kd, A @ comm - comm @ A), -_expect(kd, A @ comm2 - comm2 @ A)


def error_propagation(sc: Scenario, deriv_floor: float = 1e-12,
                      fd_step: float = 1e-5) -> PrecisionResult:
    A = sc.generator.matrix
    M = sc.observable.matrix
    state = rotate(sc.probe, sc.generator, sc.theta0) if sc.theta0 else sc.probe
    mean, second, d1 = _slope_terms(state, A, M)
    var = second - mean * mean

    # central finite difference of <M>(theta) as an independent cross-check
    def mean_at(theta):
        return rotate(sc.probe, sc.generator, theta).expectation(M)

    fd = (mean_at(sc.theta0 + fd_step) - mean_at(sc.theta0 - fd_step)) / (2 * fd_step)

    if abs(d1) > deriv_floor:
        return PrecisionResult(var / d1 ** 2, "direct", d1, var, fd)

    if var > deriv_floor:
        return PrecisionResult(float("inf"), "direct", d1, var, fd,
                               no_sensitivity=True,
                               message="flat response: finite variance with zero slope")

    # 0/0 at the working point: expand one order further.
    #   <M>'' = -<[A,[A,M]]>,  Var''  = -<[A,[A,M^2]]> - 2<M><M>'' (slope term ~ 0)
    dd_m, dd_second = _curvature_terms(state, A, M)
    var_dd = dd_second - 2 * d1 * d1 - 2 * mean * dd_m
    if abs(dd_m) < deriv_floor:
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


def crb_consistency(sc: Scenario, tol: float = 1e-8) -> CrbReport:
    """Check (Delta theta)^2 >= 1/F_Q for the scenario's probe and generator."""
    res = error_propagation(sc)
    F = qfi(sc.probe, sc.generator).value
    qcrb = float("inf") if F <= 1e-12 else 1.0 / F
    if res.no_sensitivity:
        return CrbReport(float("inf"), qcrb, float("inf"), True, res)
    gap = res.value - qcrb
    return CrbReport(res.value, qcrb, gap, gap >= -tol, res)


def ramsey_curve(probe: QuantumState, generator: CollectiveOperator,
                 observable: CollectiveOperator, thetas) -> dict:
    """<M>(theta) and Var M(theta) sampled on a grid."""
    thetas = np.asarray(thetas, dtype=float)
    M = observable.matrix
    means = np.empty_like(thetas)
    variances = np.empty_like(thetas)
    for i, th in enumerate(thetas):
        st = rotate(probe, generator, th)
        means[i] = st.expectation(M)
        variances[i] = st.variance(M)
    return {"theta": thetas, "mean": means, "variance": variances}


# ----------------------------------------------------------------------
# squeezed-probe precision frontier
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FrontierRow:
    n: int
    lam: float
    polarization: float      # <J_z> / (N/2)
    precision_inv: float     # <J_z>^2 / Var(J_x)
    precision_inv_norm: float
    ceiling: float           # 2N + N^2 (1 - polarization^2)
    qfi_jy: float

    @property
    def within_ceiling(self) -> bool:
        return self.precision_inv <= self.ceiling + 1e-6


def _frontier_row(n: int, lam: float, ops) -> FrontierRow:
    Jz, Jx, Jy = ops
    st = squeezed_ground_state(SqueezingSpec(n, lam))
    mz = st.expectation(Jz)
    vx = st.variance(Jx)
    prec = mz * mz / vx if vx > 1e-300 else 0.0
    pol = mz / (n / 2.0)
    ceiling = 2.0 * n + n * n * (1.0 - pol * pol)
    return FrontierRow(n, lam, pol, prec, prec / n ** 2, ceiling,
                       4.0 * st.variance(Jy))


def squeezing_frontier(n: int, lambdas) -> list[FrontierRow]:
    """Precision of the variance-minimising probes across polarizations.

    Each row measures J_x after a rotation about y of the ground state of
    J_x^2 - lam J_z; sweeping lam traces the best (Delta theta)^-2
    reachable at a given mean spin.
    """
    if n % 2:
        raise ValueError("the squeezed-probe family needs even N")
    rep = symmetric_rep(n)
    ops = tuple(collective_op(a, rep) for a in "zxy")
    lambdas = list(lambdas)
    rows = [None] * len(lambdas)
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        futures = {pool.submit(_frontier_row, n, lam, ops): i
                   for i, lam in enumerate(lambdas)}
        for fut, i in futures.items():
            rows[i] = fut.result()
    return rows


def frontier_lambda_grid(n: int, points: int = 110, pol_floor: float = 0.005,
                         lam_hi: float | None = None) -> np.ndarray:
    """Log grid of lam values whose polarizations span (pol_floor, ~1)."""
    rep = symmetric_rep(n)
    ops = tuple(collective_op(a, rep) for a in "zxy")
    lo = 1e-9 * n
    while _frontier_row(n, lo, ops).polarization > pol_floor:
        lo /= 10.0
        if lo < 1e-18:
            break
    hi = lam_hi if lam_hi is not None else 1e3 * n
    return np.geomspace(lo, hi, points)


def frontier_on_polarization_grid(n: int, pol_grid, points: int = 110) -> np.ndarray:
    """Normalised precision interpolated onto a shared polarization grid."""
    rows = squeezing_frontier(n, frontier_lambda_grid(n, points))
    pols = np.array([r.polarization for r in rows])
    precs = np.array([r.precision_inv_norm for r in rows])
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
        choi = self.choi_matrix()
        w = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
        tp = choi.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        if w.min() < -1e-10 or np.abs(tp - np.eye(2)).max() > 1e-10:
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

    def choi_matrix(self) -> np.ndarray:
        c = self.pauli_weights()
        paulis = [np.eye(2, dtype=complex), PAULI["x"], PAULI["y"], PAULI["z"]]
        choi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                E = np.zeros((2, 2), dtype=complex)
                E[i, j] = 1.0
                out = sum(ck * P @ E @ P.conj().T for ck, P in zip(c, paulis))
                choi += np.kron(E, out)
        return choi


def apply_noise(state: QuantumState, channel: NoiseChannel) -> QuantumState:
    """Apply the single-qubit channel to every particle (full rep only).

    A Pauli-diagonal channel mixes the four 2x2 blocks of each qubit with
    fixed coefficients, so the per-qubit update is done blockwise instead
    of summing four operator conjugations.
    """
    if state.rep.kind != "full":
        raise ValueError("per-qubit noise needs the full representation; "
                         "embed symmetric states first (states.to_full)")
    n = state.n
    if n > FULL_DENSITY_MAX:
        raise ValueError(f"noisy evolution limited to N <= {FULL_DENSITY_MAX}")
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
# noisy scaling sweep
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
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
    polarization: float = 0.0
    var_x: float = 0.0


@dataclass
class SweepResult:
    records: list
    exponent: float | None
    ceiling: dict = field(default_factory=dict)  # N -> analytic ceiling

    def best_by_n(self):
        out = {}
        for r in self.records:
            if r.n not in out or r.precision_inv > out[r.n].precision_inv:
                out[r.n] = r
        return out


def _noisy_precision(n: int, lam: float, channel: NoiseChannel):
    """Best-probe precision <J_z>^2 / Var(J_x) at (N, lam) after per-qubit
    noise, from the probe's symmetric-sector moments: no density is built."""
    probe = squeezed_ground_state(SqueezingSpec(n, lam))
    m = noisy_moments(moments(probe), channel)
    mz, vx = float(m.mean[2]), m.var("x")
    prec = mz * mz / vx if vx > 1e-300 else 0.0
    return prec, mz / (n / 2.0), vx, probe


def noisy_scaling_sweep(p: float, n_list, family: str = "squeezing",
                        lambda_points: int = 16, refine: bool = True,
                        theta0: float = 0.0, compute_qfi: bool = True) -> SweepResult:
    """Optimise the squeezed-probe precision over lam for every N and fit
    the log-log scaling of the optimum.

    With p > 0 each record is compared against the N/p uncorrelated-noise
    ceiling; the noiseless ceiling is N^2.  The lam search is a coarse log
    grid followed by golden-section refinement around the best point, both
    on moments transferred through the channel.  Only the QFI column needs
    the noisy 2^N density, built once per N at the optimum, so with
    ``compute_qfi=False`` any symmetric-sector N is accepted.
    """
    if family != "squeezing":
        raise ValueError(f"unknown scenario family {family!r}")
    channel = NoiseChannel("depolarizing", p=p)
    n_list = list(n_list)
    if p > 0 and compute_qfi and max(n_list, default=0) > FULL_DENSITY_MAX:
        raise ValueError(f"noisy sweeps with the QFI column need N <= {FULL_DENSITY_MAX}")
    records = []
    ceilings = {}
    for n in n_list:
        lams = frontier_lambda_grid(n, lambda_points, pol_floor=0.02)
        vals = [_noisy_precision(n, lam, channel)[0] for lam in lams]
        k = int(np.argmax(vals))
        lam_best, prec_best = lams[k], vals[k]
        # golden-section refinement needs a strict interior maximum; on a
        # flat landscape (e.g. p = 1, all zero) the coarse point stands
        if refine and 0 < k < len(lams) - 1 and vals[k - 1] < vals[k] > vals[k + 1]:
            import scipy.optimize  # deferred: start-up cost for every CLI process
            res = scipy.optimize.minimize_scalar(
                lambda u: -_noisy_precision(n, np.exp(u), channel)[0],
                bracket=(np.log(lams[k - 1]), np.log(lams[k]), np.log(lams[k + 1])),
                method="golden", options={"xtol": 1e-2})
            if -res.fun > prec_best:
                lam_best, prec_best = float(np.exp(res.x)), float(-res.fun)
        prec, pol, vx, probe = _noisy_precision(n, lam_best, channel)
        F = float("nan")
        if compute_qfi:
            state = apply_noise(to_full(probe), channel) if p > 0 else probe
            F = qfi(state, collective_op("y", state.rep)).value
        records.append(SweepRecord(
            scenario=f"squeezing(p={p:g})", n=n, p=p, lam=float(lam_best),
            theta0=theta0, precision_inv=float(prec), qfi=F,
            bound_sep=float(n), bound_bisep=float((n - 1) ** 2 + 1),
            bound_heisenberg=float(n * n), polarization=float(pol), var_x=float(vx)))
        ceilings[n] = n / p if p > 0 else float(n * n)
    exponent = None
    if len(records) >= 3:
        ns = np.array([r.n for r in records], dtype=float)
        ys = np.array([r.precision_inv for r in records])
        if (ys > 0).all():
            exponent = float(np.polyfit(np.log(ns), np.log(ys), 1)[0])
    return SweepResult(records, exponent, ceilings)
