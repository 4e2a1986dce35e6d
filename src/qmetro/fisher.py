"""Quantum and classical Fisher information machinery.

The closed-form quantum Fisher information

    F_Q[rho, A] = 2 sum_{k,l} (l_k - l_l)^2 / (l_k + l_l) |<k|A|l>|^2

is evaluated in the eigenbasis of rho; pairs whose eigenvalue sum falls
below a floor (both eigenvalues numerically zero) are dropped, which
restricts the sum to the support and keeps the symmetric logarithmic
derivative finite.  ``qfi`` is the 1x1 case of the multi-parameter Fisher
matrix.  Alongside them live the alternative second-moment form, the SLD,
classical Fisher information of a POVM, Bures fidelity, evolution-speed
and Zeno-time quantities, the Wigner-Yanase skew information and exact
optimal decompositions for the convex and concave roofs of the variance.

Functions accept either package states/operators or bare numpy arrays, so
the property batteries can run on arbitrary-dimension random instances.
One adapter, ``_inputs``, turns a (state, operator) pair into (A, payload):
the payload is a ``QuantumState``'s own array, or a bare array as complex
(a vector normalised), and a 1-D payload is a pure state.
A bare matrix becomes a custom ``CollectiveOperator`` of no representation
(``spin.as_operator``, checked Hermitian), so every operator is met the
same way: pure states through ``apply`` only (A|psi> with no d x d
matrix), densities through its ``factor`` (a real diagonal or matrix
where the operator is real or purely imaginary).
A ``QuantumState`` density is eigendecomposed once: its payload is
read-only, and the spectrum is kept on the state for every later Fisher
quantity.  Bare arrays are eigendecomposed on every call.

A real density (every probe family here and its noisy mixtures) has real
eigenvectors V, and V^T A V is real for J_x, J_z ((V^T * m) V) and the
real factor of the purely imaginary J_y; the Fisher cross term of a real
and a purely imaginary transform is exactly zero and is not summed.

The Fisher matrix of a density is summed over blocks of rows k of the
pair sums (``linalg.row_blocks``): each block forms its pair weights and
its rows of V^dag A V, so no d x d array beyond the kept eigenvectors is
held, and a matrix of d <= 362 takes one pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import (CRB_RCOND, FD_STEP, FISHER_FLOOR, PROB_FLOOR, QFI_PAIR_FLOOR,
                     ROOF_TOL, SPEED_BOUND_TOL)
from .linalg import (SpectralDecomposition, eigh_hermitian, factor_product, psd_sqrt,
                     pure_moments, rank_floor_sqrt, require_hermitian, row_blocks)
from .spin import as_operator
from .states import QuantumState, check_same_rep, evolve, operator_moments

QFI_DENSITY_DIM_MAX = 4096


# ----------------------------------------------------------------------
# input adapters
# ----------------------------------------------------------------------

def _payload(state) -> np.ndarray:
    """A QuantumState's payload; a bare vector normalised and a bare matrix,
    both as complex arrays.  A 1-D payload is a pure state."""
    if isinstance(state, QuantumState):
        return state.data
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return arr / np.linalg.norm(arr)
    if arr.ndim == 2:
        return arr
    raise ValueError("state must be a vector or a density matrix")


def _inputs(state, op) -> tuple:
    """(A, payload): op as a CollectiveOperator, checked against the state's
    representation, and the state's ``_payload``."""
    A = as_operator(op)
    check_same_rep(state, A)
    return A, _payload(state)


def _mean_and_var(data, A) -> tuple[float, float]:
    m, second = operator_moments(A, data)
    return m, second - m * m


# ----------------------------------------------------------------------
# quantum Fisher information
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QfiResult:
    """QFI value plus the count of eigenvalue pairs dropped by the support rule."""

    value: float
    skipped_pairs: int

    def __float__(self):
        return self.value


def _eigensystem(state, rho: np.ndarray) -> SpectralDecomposition:
    """Spectrum of the density rho of state; a QuantumState keeps it."""
    if isinstance(state, QuantumState):
        return state._memoized("spectrum", lambda: _eigensystem(None, rho))
    if rho.shape[0] > QFI_DENSITY_DIM_MAX:
        raise ValueError(f"density dimension {rho.shape[0]} exceeds {QFI_DENSITY_DIM_MAX}")
    return eigh_hermitian(rho)


def _in_eigenbasis(V: np.ndarray, A, rows=slice(None)) -> tuple:
    """Rows ``rows`` of V^dag A V as a factor (T, k), for A an operand of
    ``factor_product``: real eigenvectors and a real factor take real
    products only."""
    return factor_product((V[:, rows].conj().T, 0), A, (V, 0))


def _pair_ratio(lam_rows: np.ndarray, lam: np.ndarray, num: np.ndarray, floor: float):
    """num_kl / (l_k + l_l) for k over lam_rows and l over lam, on the pairs
    whose sum reaches floor, 0 elsewhere."""
    S = lam_rows[:, None] + lam
    keep = S >= floor
    return np.divide(num, S, out=np.zeros_like(S), where=keep), keep


def _fisher(state, ops) -> tuple[np.ndarray, int]:
    """Fisher matrix of the generators (CollectiveOperators) and the number of
    dropped pairs."""
    data = _payload(state)
    if data.ndim == 1:
        # rank-1 spectrum: F is four times the covariance matrix; the dropped
        # pairs are exactly those inside the (dim-1)-dimensional kernel
        mean, second = pure_moments(data, [A.apply(data) for A in ops])
        return 4.0 * (second - np.outer(mean, mean)), (data.shape[0] - 1) ** 2
    dec = _eigensystem(state, data)
    lam, V = dec.eigenvalues, dec.eigenvectors
    factors = [A.factor for A in ops]
    # real transforms 1j**k T: the cross term of an even and an odd power of
    # 1j is 2 Re(+-1j * real sum) = 0, so only a group of one parity is held
    real = np.isrealobj(V) and all(np.isrealobj(f) for f, _ in factors)
    groups = {}
    for n, f in enumerate(factors):
        groups.setdefault(f[1] % 2 if real else 0, []).append((n, f))
    F = np.zeros((len(ops), len(ops)))
    skipped = 0
    # by blocks of rows k of the pair sums: no d x d array is formed
    for rows in row_blocks(lam.size):
        lam_rows = lam[rows]
        D = lam_rows[:, None] - lam
        D *= D
        W, keep = _pair_ratio(lam_rows, lam, D, QFI_PAIR_FLOOR)
        skipped += keep.size - int(np.count_nonzero(keep))
        del D, keep
        for members in groups.values():
            _fisher_block(F, W, V, rows, members)
    return F, skipped


def _fisher_block(F, W, V, rows, members):
    """Add the pairs of the rows ``rows`` to F[m, n] for the (n, factor)
    members, whose rows of V^dag A_n V = 1j**k T are held together until the
    block is done; W holds the pair weights of those rows."""
    held = []
    for n, f in members:
        T, k = _in_eigenbasis(V, f, rows)
        t = np.abs(T)
        t **= 2
        t *= W
        F[n, n] += 2.0 * float(np.sum(t))
        del t
        for m, Tm, km in held:
            # (W tilde_m) conj(tilde_n), multiplied into the complex factor,
            # with the power of 1j outside
            p, q = W * Tm, T.conj()
            if np.iscomplexobj(q) and not np.iscomplexobj(p):
                p, q = q, p
            p *= q
            F[m, n] += 2.0 * float(np.real(1j ** (km - k) * np.sum(p)))
            F[n, m] = F[m, n]
            del p, q
        held.append((n, T, k))


def qfi(state, op) -> QfiResult:
    """Quantum Fisher information of the state for the phase generator op."""
    A = as_operator(op)
    check_same_rep(state, A)
    F, skipped = _fisher(state, [A])
    return QfiResult(float(F[0, 0]), skipped)


def qfi_pure(state, op) -> float:
    """4 Var(A) -- valid for pure states only."""
    A, data = _inputs(state, op)
    if data.ndim != 1:
        purity = float(np.real(np.vdot(data, data)))
        if abs(purity - 1.0) > 1e-9:
            raise ValueError(f"qfi_pure needs a pure state; purity={purity:.6f}")
        data = _eigensystem(state, data).eigenvectors[:, -1]
    _, var = _mean_and_var(data, A)
    return 4.0 * var


def qfi_alternative(state, op) -> float:
    """Second-moment form 4<A^2> - 8 sum l_k l_l / (l_k + l_l) |<k|A|l>|^2."""
    A, data = _inputs(state, op)
    if data.ndim == 1:
        # rank-1 spectrum: the correction sum keeps only the (psi,psi) term
        m, var = _mean_and_var(data, A)
        return 4.0 * (var + m * m) - 4.0 * m * m
    dec = _eigensystem(state, data)
    lam = dec.eigenvalues
    At, _ = _in_eigenbasis(dec.eigenvectors, A.factor)
    C, _ = _pair_ratio(lam, lam, lam[:, None] * lam[None, :], QFI_PAIR_FLOOR)
    return 4.0 * operator_moments(A, data)[1] - 8.0 * float(np.sum(C * np.abs(At) ** 2))


def sld(state, op) -> np.ndarray:
    """Symmetric logarithmic derivative for unitary dynamics generated by op.

    Satisfies (L rho + rho L)/2 = i(rho A - A rho) and Tr(rho L^2) = F_Q.
    Off the support of rho the operator is completed with zeros.
    """
    A, data = _inputs(state, op)
    if data.ndim == 1:
        # 2i [|psi><psi|, A] = 2i (|psi><A psi| - |A psi><psi|)
        Av = A.apply(data)
        return 2j * (np.outer(data, Av.conj()) - np.outer(Av, data.conj()))
    dec = _eigensystem(state, data)
    lam = dec.eigenvalues
    V = dec.eigenvectors
    w, _ = _pair_ratio(lam, lam, lam[:, None] - lam[None, :], QFI_PAIR_FLOOR)
    T, k = _in_eigenbasis(V, A.factor)
    return V @ (2j * 1j ** k * w * T) @ V.conj().T


def wigner_yanase(state, op) -> float:
    """Skew information Tr(A^2 rho) - Tr(A sqrt(rho) A sqrt(rho))."""
    A, data = _inputs(state, op)
    if data.ndim == 1:
        return _mean_and_var(data, A)[1]
    dec = _eigensystem(state, data)
    root = dec.apply_function(rank_floor_sqrt)
    # Tr(A root A root) = Tr(X X) = sum_ij X_ij X_ji for X = A root = 1j**k P
    P, k = factor_product(A.factor, root)
    cross = float(np.real((-1) ** k * np.sum(P * P.T)))
    return operator_moments(A, data)[1] - cross


def white_noise_qfi(pure_state, op, p: float) -> float:
    """Closed-form QFI of p|psi><psi| + (1-p) I/D.

    Only the support<->kernel eigenvalue pairs contribute, giving
    F = 4 p^2 Var_psi(A) / (p + 2(1-p)/D).
    """
    A, data = _inputs(pure_state, op)
    if data.ndim != 1:
        raise ValueError("white_noise_qfi takes the pure input state")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    dim = data.shape[0]
    _, var = _mean_and_var(data, A)
    if p == 0.0:
        return 0.0
    return 4.0 * p * p * var / (p + 2.0 * (1.0 - p) / dim)


def zeno_time(state, op) -> float:
    """Shortest useful interval between projective resets: 2 / sqrt(F_Q)."""
    F = qfi(state, op).value
    if F <= FISHER_FLOOR:
        return float("inf")
    return 2.0 / np.sqrt(F)


# ----------------------------------------------------------------------
# fidelity and evolution speed
# ----------------------------------------------------------------------

def bures_fidelity(state1, state2) -> float:
    """Tr(sqrt(sqrt(r1) r2 sqrt(r1)))^2, with pure-state shortcuts."""
    d1, d2 = _payload(state1), _payload(state2)
    dim1 = d1.shape[0]
    dim2 = d2.shape[0]
    if dim1 != dim2:
        raise ValueError(f"dimension mismatch {dim1} vs {dim2}")
    if d1.ndim == 1 and d2.ndim == 1:
        return float(abs(np.vdot(d1, d2)) ** 2)
    if d1.ndim == 1:
        return float(np.real(np.vdot(d1, d2 @ d1)))
    if d2.ndim == 1:
        return float(np.real(np.vdot(d2, d1 @ d2)))
    R = psd_sqrt(d1)
    M = R @ d2 @ R
    w = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    return float(np.sum(rank_floor_sqrt(w)) ** 2)


@dataclass(frozen=True)
class SpeedBoundCheck:
    fidelity: float
    bound: float
    holds: bool


def mandelstam_tamm_check(state, op, theta: float) -> SpeedBoundCheck:
    """Check F_B(rho, rho_theta) >= cos^2(sqrt(F_Q/4) theta).

    Valid while sqrt(F_Q)|theta| <= pi; outside that window the bound is
    meaningless and the call is rejected.
    """
    A = as_operator(op)
    F = qfi(state, A).value
    if np.sqrt(max(F, 0.0)) * abs(theta) > np.pi + 1e-12:
        raise ValueError(
            f"speed bound valid only for sqrt(F_Q)|theta| <= pi "
            f"(have {np.sqrt(F) * abs(theta):.4f})")
    data = _payload(state)
    fid = bures_fidelity(data, evolve(A, theta, data))
    bound = float(np.cos(np.sqrt(max(F, 0.0)) / 2.0 * theta) ** 2)
    return SpeedBoundCheck(fid, bound, fid >= bound - SPEED_BOUND_TOL)


# ----------------------------------------------------------------------
# classical Fisher information
# ----------------------------------------------------------------------

class Povm:
    """A positive operator valued measure: PSD elements summing to identity."""

    def __init__(self, elements):
        self.elements = [np.asarray(E, dtype=complex) for E in elements]
        dim = self.elements[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for E in self.elements:
            require_hermitian(E, name="POVM element")
            if np.linalg.eigvalsh(E).min() < -1e-9:
                raise ValueError("POVM element is not PSD")
            total += E
        if np.abs(total - np.eye(dim)).max() > 1e-9:
            raise ValueError("POVM elements do not sum to the identity")

    @classmethod
    def projective(cls, basis: np.ndarray) -> "Povm":
        """Rank-1 projectors onto the columns of a unitary basis matrix."""
        cols = [basis[:, k] for k in range(basis.shape[1])]
        return cls([np.outer(c, c.conj()) for c in cols])

    @classmethod
    def from_observable_eigenbasis(cls, M) -> "Povm":
        return cls.projective(as_operator(M).spectrum.eigenvectors)

    def probabilities(self, state) -> np.ndarray:
        data = _payload(state)
        if data.ndim == 1:
            p = [np.real(np.vdot(data, E @ data)) for E in self.elements]
        else:
            p = [np.real(np.trace(E @ data)) for E in self.elements]
        return np.array(p)

    def __len__(self):
        return len(self.elements)


@dataclass
class CfiResult:
    value: float
    boundary_outcomes: list = field(default_factory=list)

    def __float__(self):
        return self.value


def classical_fisher(family, povm: Povm, theta0: float) -> CfiResult:
    """Fisher information sum (dp/dtheta)^2 / p of a parametrised state family.

    ``family`` maps theta to a state.  Derivatives are central differences
    with step ``FD_STEP``; a Richardson pass refines outcomes whose
    probability is below 1e-8, and outcomes with vanishing probability are
    handled by a one-sided limit (the contribution of a quadratically
    vanishing outcome is finite and survives the limit).
    """
    if not isinstance(povm, Povm):
        povm = Povm(povm)
    h = FD_STEP
    p0 = povm.probabilities(family(theta0))
    pp = povm.probabilities(family(theta0 + h))
    pm = povm.probabilities(family(theta0 - h))
    dp = (pp - pm) / (2 * h)

    needs_richardson = np.any((p0 >= PROB_FLOOR) & (p0 < 1e-8))
    if needs_richardson:
        pph = povm.probabilities(family(theta0 + h / 2))
        pmh = povm.probabilities(family(theta0 - h / 2))
        dp_half = (pph - pmh) / h
        dp = (4.0 * dp_half - dp) / 3.0

    value = 0.0
    boundary = []
    p2h = None  # at theta0 + 2h, evaluated for the first outcome that needs it
    for x in range(len(povm)):
        if p0[x] >= PROB_FLOOR:
            value += dp[x] ** 2 / p0[x]
            continue
        # zero-probability outcome: evaluate the term one step off theta0
        if abs(dp[x]) > 1e-6:
            boundary.append(x)
            warnings.warn(
                f"POVM outcome {x} has vanishing probability but derivative "
                f"{dp[x]:.3e}; contribution estimated by a one-sided limit")
        if pp[x] < PROB_FLOOR:
            continue
        if p2h is None:
            p2h = povm.probabilities(family(theta0 + 2 * h))
        dp_side = (p2h[x] - p0[x]) / (2 * h)
        value += dp_side ** 2 / pp[x]
    return CfiResult(float(value), boundary)


# ----------------------------------------------------------------------
# multi-parameter estimation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FisherMatrix:
    generators: tuple
    matrix: np.ndarray


def fisher_matrix(state, generators) -> FisherMatrix:
    """Fisher matrix F_mn for a list of commuting-or-not phase generators."""
    if len(generators) == 0:
        raise ValueError("need at least one generator")
    F, _ = _fisher(state, [as_operator(g) for g in generators])
    return FisherMatrix(tuple(generators), F)


@dataclass(frozen=True)
class CovarianceBound:
    matrix: np.ndarray
    pseudo_inverse: bool


def crb_matrix(F: FisherMatrix | np.ndarray) -> CovarianceBound:
    """Inverse Fisher matrix: the covariance lower bound of joint estimation."""
    M = F.matrix if isinstance(F, FisherMatrix) else np.asarray(F)
    w = np.linalg.eigvalsh(M)
    if w.min() <= CRB_RCOND * max(w.max(), 1.0):
        return CovarianceBound(np.linalg.pinv(M, rcond=CRB_RCOND), True)
    return CovarianceBound(np.linalg.inv(M), False)


# ----------------------------------------------------------------------
# exact decompositions for the variance roofs
# ----------------------------------------------------------------------

@dataclass
class RoofResult:
    """An optimal decomposition rho = sum_k p_k |psi_k><psi_k| into rank(rho)
    states; value = sum_k p_k Var(A)_{psi_k} is the roof exactly (up to
    round-off): F_Q/4 for the convex roof, Var(A) for the concave one."""

    value: float
    weights: np.ndarray
    vectors: np.ndarray  # columns are the decomposition states


def _roof(state, op, convex: bool) -> RoofResult:
    """psi~_k = sum_i sqrt(l_i) U_ik |i> and p_k = |psi~_k|^2 over the kept
    spectrum l > QFI_PAIR_FLOOR, with B = sqrt(L) V^dag A V sqrt(L) there.
    Convex: U = W (not conj(W)) for g = W D W^dag, g_ij = 2 B_ij / (l_i + l_j);
    the purification sum_i sqrt(l_i) |i>|i> is measured on the ancilla in the
    eigenbasis of the optimal h = g^T of F_Q/4 = min_h Var(A x 1 - 1 x h).
    Concave: diag(U^dag (B - <A> L) U) = 0, so every psi_k has the mean <A>.
    """
    A, data = _inputs(state, op)
    if data.ndim == 1:
        # a pure state is its only decomposition
        return RoofResult(_mean_and_var(data, A)[1], np.ones(1), data[:, None])
    dec = _eigensystem(state, data)
    keep = dec.eigenvalues > QFI_PAIR_FLOOR
    lam, V = dec.eigenvalues[keep], dec.eigenvectors[:, keep]
    T, k = _in_eigenbasis(V, A.factor)
    root = np.sqrt(lam)
    B = root[:, None] * (1j ** k * T) * root
    if convex:
        U = np.linalg.eigh(2.0 * B / (lam[:, None] + lam[None, :]))[1]
    else:
        U = _zero_diagonal(B - (np.trace(B).real / lam.sum()) * np.diag(lam))
    # <psi~_k|A|psi~_k> = (U^dag B U)_kk, and the average variance is
    # <A^2> - sum_k <psi~_k|A|psi~_k>^2 / p_k, where every p_k >= min l
    weights = lam @ np.abs(U) ** 2
    means = np.sum(U.conj() * (B @ U), axis=0).real
    value = operator_moments(A, data)[1] - float(np.sum(means ** 2 / weights))
    return RoofResult(value, weights, (V @ (root[:, None] * U)) / np.sqrt(weights))


def _zero_diagonal(H: np.ndarray) -> np.ndarray:
    """U with diag(U^dag H U) = 0 for a traceless Hermitian H, by r - 1 complex
    Givens rotations (Fillmore, Amer. Math. Monthly 76, 167 (1969)).  Each turns
    the largest active diagonal entry h_i and the smallest h_j into 0 and
    h_i + h_j, its phase making e^{i phi} H_ij imaginary; index i is then done."""
    U = np.eye(H.shape[0], dtype=complex)
    active = list(range(H.shape[0]))
    while len(active) > 1:
        h = H.diagonal().real
        i, j = max(active, key=h.__getitem__), min(active, key=h.__getitem__)
        if h[i] <= h[j]:
            break  # the active diagonal is zero already
        t = min(max(h[i] / (h[i] - h[j]), 0.0), 1.0)
        c, s = np.sqrt(1.0 - t), np.sqrt(t)
        phase = 1j * np.exp(-1j * np.angle(H[i, j]))
        G = np.array([[c, -s], [s * phase, c * phase]])
        U[:, [i, j]] = U[:, [i, j]] @ G
        H[:, [i, j]] = H[:, [i, j]] @ G
        H[[i, j], :] = G.conj().T @ H[[i, j], :]
        active.remove(i)
    return U


def convex_roof_oracle(state, op) -> RoofResult:
    """The decomposition of least average variance, F_Q/4 (Toth & Petz, PRA 87,
    032324 (2013); Escher, de Matos Filho & Davidovich, Nat. Phys. 7, 406
    (2011))."""
    return _roof(state, op, True)


def concave_roof_oracle(state, op) -> RoofResult:
    """The decomposition of greatest average variance, Var(A) (Yu,
    arXiv:1302.5311)."""
    return _roof(state, op, False)


@dataclass(frozen=True)
class RoofSandwich:
    average_variance: float
    lower: float   # F_Q / 4
    upper: float   # Var on the mixed state
    holds: bool


def roof_sandwich_check(state, op, weights, vectors) -> RoofSandwich:
    """Verify F_Q/4 <= sum p_k Var_k <= Var for an explicit decomposition."""
    A, data = _inputs(state, op)
    rho = np.outer(data, data.conj()) if data.ndim == 1 else data
    weights = np.asarray(weights, dtype=float)
    vectors = np.asarray(vectors, dtype=complex)
    rebuilt = (vectors * weights[None, :]) @ vectors.conj().T
    if np.abs(rebuilt - rho).max() > 1e-9:
        raise ValueError("decomposition does not reproduce the state "
                         f"(max deviation {np.abs(rebuilt - rho).max():.2e})")
    avg = sum(w * _mean_and_var(v, A)[1] for w, v in zip(weights, vectors.T))
    # both ends from the state itself: its kept spectrum (none for a vector)
    # and its payload
    lower = qfi(state, A).value / 4.0
    _, upper = _mean_and_var(data, A)
    holds = (lower - ROOF_TOL <= avg) and (avg <= upper + ROOF_TOL)
    return RoofSandwich(float(avg), float(lower), float(upper), bool(holds))
