"""Quantum and classical Fisher information machinery.

The closed-form quantum Fisher information

    F_Q[rho, A] = 2 sum_{k,l} (l_k - l_l)^2 / (l_k + l_l) |<k|A|l>|^2

is evaluated in the eigenbasis of rho, dropping the pairs whose eigenvalue
sum falls below a floor (both numerically zero): the sum stays on the
support and the symmetric logarithmic derivative (SLD) finite.  Its terms
vanish on every pair of equal eigenvalues, so a density is summed in its
support and floor form (Liu, Jing & Wang, Commun. Theor. Phys. 61, 45
(2014)): the eigenvalues within FLOOR_WIDTH of the smallest are one implicit
kernel of eigenvalue l0 (``linalg.fold_floor``; l0 = 0 below a low rank,
(1 - p)/D under white noise), and the other r its support, so that each
generator costs O(d r), with no d x d table or transform.  ``qfi`` is
the 1x1 Fisher matrix.  Alongside live the second-moment form, the SLD, the
exact classical Fisher information of a readout (a ``Povm`` kept as outcome
columns; dp_k = 2 Im Tr(E_k A rho)), Bures fidelity, speed and Zeno-time
quantities, the Wigner-Yanase skew information and exact optimal
decompositions for the convex and concave roofs of the variance.

Functions take package states and operators or bare arrays (``_inputs``; a
bare vector is normalised, a bare matrix a custom ``CollectiveOperator``),
so the property batteries can run on random instances.  Operators are met
through their ``times``, with no d x d operator.  A state has one spectrum
(``_eigensystem``): a vector psi its rank-one spectrum, the value 1 with
psi as its column and an implicit zero kernel; a density its block
eigendecomposition, kept on a ``QuantumState``.  Every Fisher quantity is
one pair sum over it (``_pair_sum``) with its own weights: (l_k - l_l)^2 /
(l_k + l_l) for F_Q, l_k l_l / (l_k + l_l) for the second-moment form and
(sqrt(l_k) - sqrt(l_l))^2 for the skew information.  The weights of F_Q, the
skew information and the SLD vanish on the floor's own pairs, so they take
the support and floor form (``fold_floor``), the row i of the support meeting
the kernel through the residual (1 - P) A u_i; the second-moment form's do
not, and it keeps the whole spectrum.
V^dag A V is formed in one place, by blocks of rows (``_transform``, with
the residuals (1 - P) A V_r), and the SLD is one ``sandwich`` of the same
rows, with the residuals beside the support when there is a kernel.  Every
other root of a state is its one factor rho = R R^dag on the kept spectrum
(``linalg.psd_factor``, under the one PSD rule; psi for a vector): the
fidelity takes the r x r R^dag rho_2 R, the speed bound R^dag U R (U turning
the r columns of R), both roofs R^dag A R, and a ``Povm`` keeps each element
as its factor; the SLD trace takes the support and floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import (CRB_RCOND, FISHER_FLOOR, PROB_FLOOR, QFI_PAIR_FLOOR, ROOF_TOL,
                     SPEED_BOUND_TOL)
from .linalg import (SpectralDecomposition, eigh_hermitian, fold_floor, psd_factor,
                     rank_floor_sqrt, require_hermitian, row_blocks)
from .spin import SYMMETRIC_MAX, as_operator, symmetric_rep
from .states import (QuantumState, braket, check_same_rep, evolve, operator_moments,
                     propagate)

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


def _inputs(state, *ops) -> tuple:
    """(A, ..., payload): each op as a CollectiveOperator, checked against the
    state's representation, and the state's ``_payload``."""
    operators = [as_operator(op) for op in ops]
    for A in operators:
        check_same_rep(state, A)
    return (*operators, _payload(state))


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


def _eigensystem(state, data: np.ndarray) -> SpectralDecomposition:
    """Spectrum of the state of payload data: a vector's rank-one spectrum, or
    a density's, kept on a QuantumState.  A bare density has at most the rows
    of the largest one ``require_density`` admits, at SYMMETRIC_MAX."""
    if data.ndim == 1:
        return SpectralDecomposition(np.empty(0, int), slice(None), np.ones(1), data[:, None])
    if isinstance(state, QuantumState):
        return state._memoized("spectrum", lambda: eigh_hermitian(data, state._memo["coupled"]))
    if data.shape[0] > (most := symmetric_rep(SYMMETRIC_MAX).dim):
        raise ValueError(f"density dimension {data.shape[0]} exceeds {most}")
    return eigh_hermitian(data)


def _pair_ratio(lam_rows: np.ndarray, lam: np.ndarray, num: np.ndarray, floor: float):
    """num_kl / (l_k + l_l), in place of num, for k over lam_rows and l over
    lam, on the pairs whose sum reaches floor, 0 elsewhere (over infinity)."""
    S = lam_rows[:, None] + lam
    keep = S >= floor
    S[~keep] = np.inf
    num /= S
    return num, keep


def _transform(dec: SpectralDecomposition, A, Vr: np.ndarray) -> tuple:
    """Rows r, in the order of ``dec.values``, of V^dag A V as a factor (T, q),
    V^dag A V = 1j**q T, for the eigenvectors Vr = ``dec.columns(r)``, and with
    a kernel their residuals (1 - P) A Vr = 1j**-q Z, P = U U^dag on the
    support columns U (None without one): the parts of A u_i in the kernel,
    with no cancellation.  The rows of V^dag A are X = Y^dag for A's ``times``
    A Vr = 1j**-q Y (an uncoupled eigenvector is a unit column), so they are
    [X[:, u] | X[:, c] W] and Z = Y - U T^dag; the only place V^dag A V is
    formed."""
    u, c, W, nu = dec.uncoupled, dec.coupled, dec.block_vectors, dec.uncoupled.size
    Y, k = A.times(Vr)
    X = np.ascontiguousarray(Y.conj().T)
    if dec.dim > dec.values.size:   # a kernel, so no uncoupled index: U = W
        T = X @ W
        return (T, -k % 4), Y - W @ T.conj().T
    del Y
    if nu:  # [X[:, u] | X[:, c] W] in the storage of X; the product's operand
        # copy is freed before X[:, u] is copied
        X[:, nu:], X[:, :nu] = X[:, c] @ W, X[:, u]
        return (X, -k % 4), None
    return (X @ W, -k % 4), None


def _pair_sum(dec: SpectralDecomposition, ops, numerator) -> tuple[np.ndarray, int]:
    """S_mn = 2 sum_kl w_kl Re(T^m_kl conj T^n_kl) for the generators ops, with
    T^n = V^dag A_n V (``_transform``) and w_kl = numerator(l_k, l_l) / (l_k + l_l)
    (symmetric) on the pairs that reach QFI_PAIR_FLOOR, and the number of pairs
    dropped, by blocks of rows k against every l (``linalg.row_blocks``; one
    pass at d <= 362).  Row i pairs with the kernel (eigenvalue l0 = ``floor``)
    through sum_{j in kernel} T^m_ij conj T^n_ij = <(1 - P) A_m u_i|(1 - P) A_n u_i>
    (``_transform``'s residuals), and both orders weigh 2 w_i0; the kernel's
    own pairs weigh numerator(l0, l0) = 0, since only weights that vanish on
    equal eigenvalues meet a kernel of l0 > 0 (``fold_floor``)."""
    S, lam, skipped = np.zeros((len(ops), len(ops))), dec.values, 0
    kernel, floor = dec.dim - lam.size, np.array([dec.floor])
    for r in row_blocks(lam.size):
        W, keep = _pair_ratio(lam[r], lam, numerator(lam[r], lam), QFI_PAIR_FLOOR)
        skipped += keep.size - int(np.count_nonzero(keep))
        Vr = dec.columns(r)
        pairs = [_transform(dec, A, Vr) for A in ops]
        del Vr
        if kernel:
            w, keep = _pair_ratio(lam[r], floor, numerator(lam[r], floor), QFI_PAIR_FLOOR)
            skipped += 2 * kernel * (keep.size - int(np.count_nonzero(keep)))
            _fisher_block(S, 2.0 * w, [(Z.conj().T, q) for (_, q), Z in pairs])
        _fisher_block(S, W, [rows for rows, _ in pairs])
        del pairs
    return S, skipped + kernel ** 2 * bool(2.0 * dec.floor < QFI_PAIR_FLOOR)


def _fisher(state, generators) -> tuple[np.ndarray, int]:
    """Fisher matrix of the generators (``_inputs``) and the number of
    dropped pairs, on the support and floor of the state's spectrum."""
    *ops, data = _inputs(state, *generators)
    return _pair_sum(fold_floor(_eigensystem(state, data)), ops,
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
    F, skipped = _fisher(state, [op])
    return QfiResult(float(F[0, 0]), skipped)


def qfi_alternative(state, op) -> float:
    """Second-moment form 4<A^2> - 8 sum l_k l_l / (l_k + l_l) |<k|A|l>|^2."""
    A, data = _inputs(state, op)
    # 8 sum = 4 times the pair sum of l_k l_l
    S, _ = _pair_sum(_eigensystem(state, data), [A], lambda lam_k, lam_l: lam_k[:, None] * lam_l)
    return 4.0 * float(np.real(braket(data, (A,), (A,)))) - 4.0 * float(S[0, 0])


def sld(state, op) -> np.ndarray:
    """Symmetric logarithmic derivative for unitary dynamics generated by op.

    Satisfies (L rho + rho L)/2 = i(rho A - A rho) and Tr(rho L^2) = F_Q, and
    is zero between kernel vectors.  One ``sandwich`` L = W (c K) W^dag,
    c = 2i 1j**q, of the rows V^dag A V = 1j**q T (``_transform``, by blocks)
    on the support (``fold_floor``), w_kl = (l_k - l_l) / (l_k + l_l): W = V
    and K = w o T without a kernel; with a kernel l0, W = [U | Z] for the
    residuals (1 - P) A U = 1j**-q Z and K = [[w o T, C], [-(-1)**q C, 0]],
    C = diag((l_i - l0) / (l_i + l0)).  A real K and W give a real or
    imaginary L."""
    A, data = _inputs(state, op)
    dec = fold_floor(_eigensystem(state, data))
    lam, n, K, Z = dec.values, dec.values.size, None, []
    for r in row_blocks(n):
        (T, q), Zr = _transform(dec, A, dec.columns(r))
        if K is None:   # T has the dtype of Z
            K = np.zeros((n if Zr is None else 2 * n,) * 2, T.dtype)
        Z.append(Zr)
        K[:n, :n][r] = T * _pair_ratio(lam[r], lam, lam[r, None] - lam, QFI_PAIR_FLOOR)[0]
    if K is None:   # every eigenvalue is the floor's: L = 0
        return np.zeros((dec.dim,) * 2, dtype=complex)
    if dec.dim > n:   # the sandwich of W = [U | Z]
        C = _pair_ratio(lam, np.array([dec.floor]), (lam - dec.floor)[:, None],
                        QFI_PAIR_FLOOR)[0][:, 0]
        K[range(n), range(n, 2 * n)], K[range(n, 2 * n), range(n)] = C, -(-1) ** q * C
        dec = replace(dec, block_vectors=np.hstack([dec.block_vectors, *Z]))
    del Z
    c = 2j * 1j ** q
    K *= c if np.iscomplexobj(K) else c.real or c.imag   # c is real or imaginary
    L = dec.sandwich(K)
    del K
    if not np.iscomplexobj(L):   # one part of L, the other stays +0.0
        L, S = np.zeros(L.shape, dtype=complex), L
        (L.imag if c.imag else L.real)[...] = S
    return L


def wigner_yanase(state, op) -> float:
    """Skew information Tr(A^2 rho) - Tr(A sqrt(rho) A sqrt(rho)) = 1/2 sum_kl
    (sqrt(l_k) - sqrt(l_l))^2 |A_kl|^2, non-negative term by term, with no
    d x d sqrt(rho), on the spectrum that ``rank_floor_sqrt``, the PSD rule of
    ``psd_sqrt``, checks and takes roots of: zero where the root is."""
    A, data = _inputs(state, op)
    S, _ = _pair_sum(_psd_spectrum(state, data), [A], lambda lam_k, lam_l: (
        (np.sqrt(lam_k)[:, None] - np.sqrt(lam_l)) ** 2 * (lam_k[:, None] + lam_l)))
    return float(S[0, 0]) / 4.0


def _psd_spectrum(state, data) -> SpectralDecomposition:
    """``fold_floor`` of the state's spectrum under the one PSD rule: checked
    by ``rank_floor_sqrt``, each eigenvalue of root 0 set to 0."""
    dec = _eigensystem(state, data)
    return fold_floor(replace(dec, values=np.where(rank_floor_sqrt(dec.values) > 0,
                                                   dec.values, 0.0)))


def white_noise_qfi(pure_state, op, p: float) -> float:
    """Closed-form QFI of p|psi><psi| + (1-p) I/D.

    Only the support<->kernel eigenvalue pairs contribute, giving
    F = p^2 F_psi / (p + 2(1-p)/D), F_psi = 4 Var_psi(A) the ``qfi`` of psi.
    """
    A, data = _inputs(pure_state, op)
    if data.ndim != 1:
        raise ValueError("white_noise_qfi takes the pure input state")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return p * p * qfi(pure_state, A).value / (p + 2.0 * (1.0 - p) / data.shape[0])


def zeno_time(state, op) -> float:
    """Shortest useful interval between projective resets: 2 / sqrt(F_Q)."""
    return zeno_interval(qfi(state, op).value)


def zeno_interval(F: float) -> float:
    """``zeno_time`` of a QFI F at hand: 2 / sqrt(F), infinite at F <= FISHER_FLOOR."""
    return float("inf") if F <= FISHER_FLOOR else 2.0 / np.sqrt(F)


def sld_trace(state, L: np.ndarray) -> float:
    """Tr(rho L^2) = sum_i (l_i - l0) ||L u_i||^2 + l0 ||L||_F^2 for a Hermitian
    L on the support and floor l0 of rho (``_psd_spectrum``; psi and 0 for a
    vector), in O(d^2 r) with no d x d product."""
    dec = _psd_spectrum(state, _payload(state))
    X = (L @ dec.columns()) * np.sqrt(dec.values - dec.floor)
    return float(np.vdot(X, X).real + (dec.floor * np.vdot(L, L).real if dec.floor else 0.0))


# ----------------------------------------------------------------------
# fidelity and evolution speed
# ----------------------------------------------------------------------

def bures_fidelity(state1, state2) -> float:
    """Tr(sqrt(sqrt(r1) r2 sqrt(r1)))^2, with pure-state shortcuts.  Two
    densities take the factor r1 = R R^dag (``psd_factor``, from the kept
    spectrum of a QuantumState): sqrt(r1) r2 sqrt(r1) has the nonzero
    eigenvalues of the r x r matrix R^dag r2 R, r = rank(r1).  States of two
    representations are refused, bare arrays of two dimensions too."""
    if (isinstance(state1, QuantumState) and isinstance(state2, QuantumState)
            and state1.rep != state2.rep):
        raise ValueError(f"representation mismatch: {state1.rep} vs {state2.rep}")
    d1, d2 = _payload(state1), _payload(state2)
    if d1.shape[0] != d2.shape[0]:
        raise ValueError(f"dimension mismatch {d1.shape[0]} vs {d2.shape[0]}")
    if d1.ndim == 1 and d2.ndim == 1:
        return float(abs(np.vdot(d1, d2)) ** 2)
    if d1.ndim == 1:
        return float(np.real(np.vdot(d1, d2 @ d1)))
    if d2.ndim == 1:
        return float(np.real(np.vdot(d2, d1 @ d2)))
    R = psd_factor(_eigensystem(state1, d1))[1]
    w = np.linalg.eigvalsh(R.conj().T @ (d2 @ R))
    return float(np.sum(rank_floor_sqrt(w)) ** 2)


@dataclass(frozen=True)
class SpeedBoundCheck:
    fidelity: float
    bound: float
    holds: bool


def mandelstam_tamm_check(state, op, theta: float) -> SpeedBoundCheck:
    """Check F_B(rho, rho_theta) >= cos^2(sqrt(F_Q/4) theta).

    Valid while sqrt(F_Q)|theta| <= pi; outside that window the bound is
    meaningless and the call is rejected.  With rho = R R^dag (``psd_factor``;
    psi for a vector), F_B = (sum of the singular values of M = R^dag U R)^2,
    U turning the r columns of R (``states.propagate``): no rotated density,
    generator spectrum or unitary is formed.
    """
    A, data = _inputs(state, op)
    root = np.sqrt(max(qfi(state, A).value, 0.0))
    if root * abs(theta) > np.pi + 1e-12:
        raise ValueError(f"speed bound valid only for sqrt(F_Q)|theta| <= pi "
                         f"(have {root * abs(theta):.4f})")
    R = psd_factor(_eigensystem(state, data))[1]
    M = R.conj().T @ propagate(A, theta, R)
    fid = float(np.sum(rank_floor_sqrt(np.linalg.eigvalsh(M @ M.conj().T))) ** 2)
    bound = float(np.cos(root / 2.0 * theta) ** 2)
    return SpeedBoundCheck(fid, bound, fid >= bound - SPEED_BOUND_TOL)


# ----------------------------------------------------------------------
# classical Fisher information
# ----------------------------------------------------------------------

class Povm:
    """A positive operator valued measure, kept as outcome columns: E_k is the
    sum of b b^dag over the columns b of ``columns`` (d x R) whose ``outcomes``
    entry is k.  Elements must be PSD (each is kept as its factor, checked by
    ``psd_factor``) and sum to the identity, B B^dag = I."""

    def __init__(self, elements):
        factors = [psd_factor(eigh_hermitian(require_hermitian(
            np.asarray(E, dtype=complex), "POVM element")))[1] for E in elements]
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
        """Projectors onto the eigenvectors of M, in its spectrum's block order."""
        return cls.projective(as_operator(M).spectrum.columns())

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
    if len(B) != len(data):
        raise ValueError(f"POVM dimension {len(B)} does not match state dimension {len(data)}")
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
    F, _ = _fisher(state, generators)
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
    """The states psi~_k = (R U)_k and p_k = |psi~_k|^2 for the factor
    rho = R R^dag (``psd_factor``) on its columns of l > QFI_PAIR_FLOOR, with
    B = R^dag A R from A's ``times`` of R (real when both are).
    Convex: U = W (not conj(W)) for g = W D W^dag, g_ij = 2 B_ij / (l_i + l_j);
    the purification sum_i sqrt(l_i) |i>|i> is measured on the ancilla in the
    eigenbasis of the optimal h = g^T of F_Q/4 = min_h Var(A x 1 - 1 x h).
    Concave: diag(U^dag (B - <A> L) U) = 0, so every psi_k has the mean <A>.
    """
    A, data = _inputs(state, op)
    lam, R = psd_factor(_eigensystem(state, data))
    if not (keep := lam > QFI_PAIR_FLOOR).all():
        lam, R = lam[keep], R[:, keep]
    B, k = A.times(R)
    B = R.conj().T @ B   # R^dag A R = 1j**k R^dag B, real for an even k and a real B
    B = B * 1j ** k if k % 2 else B * (1j ** k).real
    if convex:
        U = np.linalg.eigh(2.0 * B / (lam[:, None] + lam[None, :]))[1]
    else:   # the complex Givens rotations need a complex H
        U = _zero_diagonal((B - (np.trace(B).real / lam.sum()) * np.diag(lam)).astype(complex))
    # <psi~_k|A|psi~_k> = (U^dag B U)_kk, and the average variance is
    # <A^2> - sum_k <psi~_k|A|psi~_k>^2 / p_k, where every p_k >= min l
    weights = lam @ np.abs(U) ** 2
    means = np.sum(U.conj() * (B @ U), axis=0).real
    del B
    value = float(np.real(braket(data, (A,), (A,)))) - float(np.sum(means ** 2 / weights))
    vectors = R @ U
    vectors /= np.sqrt(weights)
    return RoofResult(value, weights, vectors)


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
    # both ends from the state itself: its spectrum and its payload
    lower = qfi(state, A).value / 4.0
    _, upper = _mean_and_var(data, A)
    holds = (lower - ROOF_TOL <= avg) and (avg <= upper + ROOF_TOL)
    return RoofSandwich(float(avg), float(lower), float(upper), bool(holds))
