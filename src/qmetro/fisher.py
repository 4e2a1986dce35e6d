"""Quantum and classical Fisher information machinery.

The closed-form quantum Fisher information

    F_Q[rho, A] = 2 sum_{k,l} (l_k - l_l)^2 / (l_k + l_l) |<k|A|l>|^2

is evaluated in the eigenbasis of rho; pairs whose eigenvalue sum falls
below a floor (both eigenvalues numerically zero) are dropped, which
restricts the sum to the support and keeps the symmetric logarithmic
derivative finite.  ``qfi`` is the 1x1 case of the multi-parameter Fisher
matrix.  Alongside them live the alternative second-moment form, the SLD,
the exact classical Fisher information of a readout (a ``Povm`` kept as
outcome columns; dp_k = 2 Im Tr(E_k A rho)), Bures fidelity, evolution-speed
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
matrix), densities through its ``times`` (real products where the operator
is real or purely imaginary, and no d x d operator).
A ``QuantumState`` density is eigendecomposed once: its payload is
read-only, and the spectrum is kept on the state for every later Fisher
quantity.  Bare arrays are eigendecomposed on every call.

A real density (every probe family here and its noisy mixtures) has real
eigenvectors V, and V^T A V is real for J_x, J_z ((V^T * m) V) and the
real factor of the purely imaginary J_y; the Fisher cross term of a real
and a purely imaginary transform is exactly zero and is not summed.

Every Fisher quantity of a density forms V^dag A V in one place, the row
transform ``_transform`` of the kept block spectrum: rows of it, in the
order of the spectrum's ``values``, as [X[:, u] | X[:, c] W] for the rows
X = (A V[:, r])^dag of V^dag A, A V[:, r] being A's ``times`` of those
eigenvectors (an uncoupled one a unit column).  The Fisher matrix sums it
by blocks of rows (``linalg.row_blocks``) against every column, with no
d x d V (a matrix of d <= 362 takes one pass); the SLD and both roofs take
all rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (CRB_RCOND, FISHER_FLOOR, PROB_FLOOR, QFI_PAIR_FLOOR, ROOF_TOL,
                     SPEED_BOUND_TOL)
from .linalg import (SpectralDecomposition, eigh_hermitian, psd_sqrt, pure_moments,
                     rank_floor_sqrt, require_hermitian, row_blocks)
from .spin import SYMMETRIC_MAX, as_operator, symmetric_rep
from .states import QuantumState, braket, check_same_rep, evolve, operator_moments

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
    """Spectrum of the density rho of state; a QuantumState keeps it.  A bare
    array has at most the rows of the largest density ``require_density``
    admits, the symmetric one at SYMMETRIC_MAX."""
    if isinstance(state, QuantumState):
        return state._memoized("spectrum", lambda: eigh_hermitian(rho))
    if rho.shape[0] > (most := symmetric_rep(SYMMETRIC_MAX).dim):
        raise ValueError(f"density dimension {rho.shape[0]} exceeds {most}")
    return eigh_hermitian(rho)


def _pair_ratio(lam_rows: np.ndarray, lam: np.ndarray, num: np.ndarray, floor: float):
    """num_kl / (l_k + l_l), in place of num, for k over lam_rows and l over
    lam, on the pairs whose sum reaches floor, 0 elsewhere (over infinity)."""
    S = lam_rows[:, None] + lam
    keep = S >= floor
    S[~keep] = np.inf
    num /= S
    return num, keep


def _transform(dec: SpectralDecomposition, A, Vr: np.ndarray) -> tuple:
    """Rows r, in the order of ``dec.values``, of V^dag A V as a factor (T, k),
    V^dag A V = 1j**k T, for the eigenvectors Vr = ``dec.columns(r)``: the rows
    of V^dag A are (A Vr)^dag, A Vr being A's ``times`` (an uncoupled
    eigenvector is a unit column), so with X = (A Vr)^dag they are
    [X[:, u] | X[:, c] W]; the only place V^dag A V is formed."""
    u, c, W, nu = dec.uncoupled, dec.coupled, dec.block_vectors, dec.uncoupled.size
    Y, k = A.times(Vr)
    X = np.ascontiguousarray(Y.conj().T)
    del Y
    if nu:  # [X[:, u] | X[:, c] W] in the storage of X; the product's operand
        # copy is freed before X[:, u] is copied
        X[:, nu:], X[:, :nu] = X[:, c] @ W, X[:, u]
        return X, -k % 4
    return X @ W, -k % 4


def _pair_sum(dec: SpectralDecomposition, ops, numerator) -> tuple[np.ndarray, int]:
    """S_mn = 2 sum_kl w_kl Re(T^m_kl conj T^n_kl) for the generators ops, with
    T^n = V^dag A_n V (``_transform``) and w_kl = numerator(l_k, l_l) / (l_k + l_l)
    on the pairs that reach QFI_PAIR_FLOOR, and the number of pairs dropped, by
    blocks of rows k against every l (``linalg.row_blocks``; one pass at d <= 362)."""
    S, lam, skipped = np.zeros((len(ops), len(ops))), dec.values, 0
    for r in row_blocks(dec.dim):
        W, keep = _pair_ratio(lam[r], lam, numerator(lam[r], lam), QFI_PAIR_FLOOR)
        skipped += keep.size - int(np.count_nonzero(keep))
        Vr = dec.columns(r)
        transforms = [_transform(dec, A, Vr) for A in ops]
        del Vr
        _fisher_block(S, W, transforms)
        del transforms
    return S, skipped


def _fisher(state, ops) -> tuple[np.ndarray, int]:
    """Fisher matrix of the generators (CollectiveOperators) and the number of
    dropped pairs."""
    data = _payload(state)
    if data.ndim == 1:
        # rank-1 spectrum: F is four times the covariance matrix; the dropped
        # pairs are exactly those inside the (dim-1)-dimensional kernel
        mean, second = pure_moments(data, [A.apply(data) for A in ops])
        return 4.0 * (second - np.outer(mean, mean)), (data.shape[0] - 1) ** 2
    return _pair_sum(_eigensystem(state, data), ops,
                     lambda lam_k, lam_l: (lam_k[:, None] - lam_l) ** 2)


def _fisher_block(F, W, transforms):
    """Add 2 sum_kl W_kl Re(T^m_kl conj T^n_kl) to F[m, n] for the transforms
    1j**k T of the generators.  Real transforms of an even and an odd power of
    1j (J_x or J_z with J_y) have the cross term 2 Re(+-1j * real sum) = 0,
    which is not summed."""
    for n, (T, k) in enumerate(transforms):
        t = np.abs(T)
        t **= 2
        t *= W
        F[n, n] += 2.0 * float(t.sum())
        del t
        for m, (Tm, km) in enumerate(transforms[:n]):
            if (km - k) % 2 and not (np.iscomplexobj(T) or np.iscomplexobj(Tm)):
                continue
            # (W tilde_m) conj(tilde_n), multiplied into the complex factor,
            # with the power of 1j outside
            p, q = W * Tm, T.conj()
            if np.iscomplexobj(q) and not np.iscomplexobj(p):
                p, q = q, p
            p *= q
            F[m, n] += 2.0 * float(np.real(1j ** (km - k) * p.sum()))
            F[n, m] = F[m, n]
            del p, q


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
    # 8 sum = 4 times the pair sum of l_k l_l
    S, _ = _pair_sum(_eigensystem(state, data), [A], lambda lam_k, lam_l: lam_k[:, None] * lam_l)
    return 4.0 * float(np.real(braket(data, (A,), (A,)))) - 4.0 * float(S[0, 0])


def sld(state, op) -> np.ndarray:
    """Symmetric logarithmic derivative for unitary dynamics generated by op.

    Satisfies (L rho + rho L)/2 = i(rho A - A rho) and Tr(rho L^2) = F_Q.
    Off the support of rho the operator is completed with zeros.  A density
    gives L = V (2i (l_k - l_l) / (l_k + l_l) T_kl) V^dag for T = V^dag A V
    (``_transform``) and V its eigenvectors in the order of ``values``.
    """
    A, data = _inputs(state, op)
    if data.ndim == 1:
        # 2i [|psi><psi|, A] = 2i (|psi><A psi| - |A psi><psi|)
        Av = A.apply(data)
        return 2j * (np.outer(data, Av.conj()) - np.outer(Av, data.conj()))
    dec = _eigensystem(state, data)
    lam, V = dec.values, dec.columns()
    w, _ = _pair_ratio(lam, lam, lam[:, None] - lam, QFI_PAIR_FLOOR)
    T, k = _transform(dec, A, V)
    return V @ (2j * 1j ** k * w * T) @ V.conj().T


def wigner_yanase(state, op) -> float:
    """Skew information Tr(A^2 rho) - Tr(A sqrt(rho) A sqrt(rho))."""
    A, data = _inputs(state, op)
    if data.ndim == 1:
        return _mean_and_var(data, A)[1]
    dec = _eigensystem(state, data)
    root = dec.apply_function(rank_floor_sqrt)
    # Tr(A root A root) = Tr(X X) = sum_ij X_ij X_ji for X = A root = 1j**k P
    P, k = A.times(root)
    cross = float(np.real((-1) ** k * np.sum(P * P.T)))
    return float(np.real(braket(data, (A,), (A,)))) - cross


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
    """Tr(sqrt(sqrt(r1) r2 sqrt(r1)))^2, with pure-state shortcuts; a
    QuantumState density r1 takes its square root from its kept spectrum."""
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
    R = psd_sqrt(_eigensystem(state1, d1) if isinstance(state1, QuantumState) else d1)
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
    fid = bures_fidelity(state, evolve(A, theta, data))
    bound = float(np.cos(np.sqrt(max(F, 0.0)) / 2.0 * theta) ** 2)
    return SpeedBoundCheck(fid, bound, fid >= bound - SPEED_BOUND_TOL)


# ----------------------------------------------------------------------
# classical Fisher information
# ----------------------------------------------------------------------

class Povm:
    """A positive operator valued measure, kept as outcome columns: E_k is the
    sum of b b^dag over the columns b of ``columns`` (d x R) whose ``outcomes``
    entry is k.  Elements must be PSD (each is kept as its factor V sqrt(w)
    from the eigh of that check) and sum to the identity, B B^dag = I."""

    def __init__(self, elements):
        factors = []
        for E in elements:
            w, V = np.linalg.eigh(require_hermitian(np.asarray(E, dtype=complex), "POVM element"))
            if w.min() < -1e-9:
                raise ValueError("POVM element is not PSD")
            factors.append(V[:, w > 0] * np.sqrt(w[w > 0]))
        self._keep(np.hstack(factors), np.repeat(np.arange(len(factors)),
                                                 [F.shape[1] for F in factors]), len(factors))

    def _keep(self, columns, outcomes, count):
        if np.abs(columns @ columns.conj().T - np.eye(columns.shape[0])).max() > 1e-9:
            raise ValueError("POVM elements do not sum to the identity")
        self.columns, self.outcomes, self._count = columns, outcomes, count
        return self

    @classmethod
    def projective(cls, basis: np.ndarray) -> "Povm":
        """Rank-1 projectors onto the columns of a unitary basis matrix, kept as it is."""
        return cls.__new__(cls)._keep(basis, np.arange(basis.shape[1]), basis.shape[1])

    @classmethod
    def from_observable_eigenbasis(cls, M) -> "Povm":
        return cls.projective(as_operator(M).spectrum.eigenvectors)

    def __len__(self):
        return self._count


@dataclass
class CfiResult:
    value: float
    boundary_outcomes: list = field(default_factory=list)

    def __float__(self):
        return self.value


def classical_fisher(state, generator, povm: Povm, theta0: float = 0.0) -> CfiResult:
    """Fisher information sum_k (dp_k/dtheta)^2 / p_k of the readout povm on
    exp(-i theta A) rho exp(i theta A) at theta0 (one ``evolve``), exactly: over
    the columns b of outcome k, p_k = sum b^dag rho b and dp_k = sum 2 Im (A b)^dag
    rho b.  An outcome of p_k < PROB_FLOOR has E_k rho = 0 and takes the limit
    4 Tr(E_k A rho A); ``boundary_outcomes`` lists those whose limit exceeds
    FISHER_FLOOR."""
    A, data = _inputs(state, generator)
    if theta0:
        data = evolve(A, theta0, data)
    povm = povm if isinstance(povm, Povm) else Povm(povm)
    B, k = povm.columns, povm.outcomes
    if data.ndim == 1:
        # rho b = psi <psi|b>: with a = B^dag psi and c = B^dag A psi the column
        # terms are |a|^2, c conj(a) and, for the limit, |c|^2
        a, c = B.conj().T @ data, B.conj().T @ A.apply(data)
        p, z = np.abs(a) ** 2, c * a.conj()
    else:
        AB, rB = A.apply(B), data @ B
        p, z = np.sum(B.conj() * rB, axis=0).real, np.sum(AB.conj() * rB, axis=0)
    p, dp = (np.bincount(k, x, minlength=len(povm)) for x in (p, 2.0 * z.imag))
    zero = p < PROB_FLOOR
    cols = zero[k]
    limit = (np.abs(c[cols]) ** 2 if data.ndim == 1 else
             np.sum(AB[:, cols].conj() * (data @ AB[:, cols]), axis=0).real)
    limit = 4.0 * np.bincount(k[cols], limit, minlength=len(povm))
    value = float(np.sum(dp[~zero] ** 2 / p[~zero]) + np.sum(limit[zero]))
    return CfiResult(value, np.flatnonzero(zero & (limit > FISHER_FLOOR)).tolist())


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
    spectrum l > QFI_PAIR_FLOOR, in the order of ``values``, with B =
    sqrt(L) V^dag A V sqrt(L) there (the kept rows and columns of ``_transform``).
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
    keep = dec.values > QFI_PAIR_FLOOR
    lam, V = dec.values[keep], dec.columns(keep)
    T, k = _transform(dec, A, V)
    T = T[:, keep]
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
    value = float(np.real(braket(data, (A,), (A,)))) - float(np.sum(means ** 2 / weights))
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
