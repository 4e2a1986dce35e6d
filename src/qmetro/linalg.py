"""Dense linear-algebra primitives used throughout the package.

A thin, contract-enforcing layer over LAPACK (via numpy): Hermitian
eigendecomposition, PSD square roots and factors M = R R^dag under one PSD
rule (``rank_floor_sqrt``), unitaries generated by Hermitian matrices, their
action on vectors and pure-state moments.  All functions are pure; inputs
are never mutated.

Operators reach this module as arrays or through what a structured operator
gives without a dense matrix: ``pure_moments`` reads the images A_k|psi>
(``CollectiveOperator.apply``), ``unitary_apply`` needs only ``apply`` and
``norm_bound()``, and ``hermitian_trace`` takes the factors (P, k) of
``times``, standing for 1j**k P (a 1-D P a diagonal).

Symmetric tridiagonal M-matrices (nonpositive off-diagonals, positive
definite) have batched routines: ``mmatrix_tridiagonal_solve`` solves them
by odd-even reduction, and ``tridiagonal_ground_pairs`` finds the lowest
eigenpair of a tridiagonal matrix with positive off-diagonals, which such a
matrix becomes under a sign change of every other basis vector.

Real data takes real arithmetic: a bare complex array whose imaginary part
is exactly zero is its real part, so ``eigh_hermitian`` solves it with real
LAPACK and returns real eigenvectors; no tolerance decides it.  So is the
coupled-index rule: an index i with M[i, j] = M[j, i] = 0 for every j != i,
in the lower triangle LAPACK reads, is an eigenvector e_i with eigenvalue
M_ii and a 1 x 1 block of a Cholesky factor (``coupled_indices``).
``eigh_hermitian`` and the PSD check of a state hand LAPACK the coupled
block only, and the spectrum keeps its eigenvectors W beside the pairs
(M_ii, e_i), its one form: V X V^dag is formed block by block, with no
dense d x d V.  A density's spectrum also has a support and floor form
(``fold_floor``): the eigenvalues of its degenerate floor as one implicit
kernel, the rest as d x r columns.  Passes over a d x d matrix run in
blocks of rows (``row_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import FLOOR_WIDTH, HERMITICITY, PSD_FLOOR

_UNIT_ROUNDOFF = 2.0 ** -53  # the Taylor stopping rule's tolerance, as in expm_multiply
_TAYLOR_MAX_STEPS = 50_000  # the step budget of unitary_apply
_EPS = np.finfo(float).eps
# Noda steps before tridiagonal_ground_pairs gives up; the squeezing blocks
# up to N = 4096 need at most 10
_NODA_MAX_STEPS = 100


# entries per block of every blocked pass over a d x d matrix (the checks
# here, the moments, the Fisher matrix): 1 MB of float64, 128 rows at d = 1024
_BLOCK_ENTRIES = 1 << 17


def row_blocks(d: int) -> tuple:
    """Slices of consecutive rows (or columns) of a d x d matrix, each at most
    _BLOCK_ENTRIES entries or one row: a matrix of d <= 362 is one block.  The
    last slice may reach past d.  Kept per (d, block size), so that a small
    matrix pays one lookup."""
    return _row_blocks(d, _BLOCK_ENTRIES)


@lru_cache(maxsize=1024)
def _row_blocks(d: int, entries: int) -> tuple:
    step = max(1, entries // d) if d else 1
    return tuple(slice(i, i + step) for i in range(0, d, step))


def _max_asymmetry(M: np.ndarray) -> float:
    """max |M - M^dag|, by blocks of rows: no d x d temporary is formed."""
    out = 0.0
    for b in row_blocks(M.shape[0]):
        out = max(out, np.abs(M[b] - M[:, b].conj().T).max())
    return float(out)


def hermiticity_defect(M: np.ndarray) -> float:
    """Largest elementwise asymmetry |M - M^dag|, relative to max(max|M|, 1)."""
    M = np.asarray(M)
    scale = 1.0
    for b in row_blocks(M.shape[0]):
        scale = max(scale, np.abs(M[b]).max())
    return _max_asymmetry(M) / float(scale)


def require_hermitian(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    # factor 10: the elementwise-relative contract in the docs is checked
    # against max|M|, which is slightly stricter than needed
    limit = HERMITICITY * 10
    # the defect is relative to max(max|M|, 1) >= 1, so an absolute
    # asymmetry within the limit passes without computing that scale
    if _max_asymmetry(M) > limit and (defect := hermiticity_defect(M)) > limit:
        raise ValueError(f"{name} is not Hermitian: max asymmetry {defect:.3e} exceeds tolerance")
    return M


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues and eigenvectors V of a Hermitian M in one form, by blocks:
    the pairs (M_uu, e_u) of the uncoupled indices u, then M[c, c] = W diag(l_c)
    W^dag (``values``, the M_uu then the l_c, orders V's columns; ``coupled`` is
    slice(None) when W is every eigenvector).  V is never kept dense.  With no
    uncoupled index W may be d x r, r < d: the support, its r eigenvectors, and
    the rest an implicit kernel of the one eigenvalue ``floor`` (0 for a
    vector's rank-one spectrum; ``fold_floor`` gives a density this form)."""

    uncoupled: np.ndarray
    coupled: np.ndarray | slice
    values: np.ndarray
    block_vectors: np.ndarray
    floor: float = 0.0

    @property
    def dim(self) -> int:
        return self.uncoupled.size + self.block_vectors.shape[0]

    def columns(self, cols=slice(None)) -> np.ndarray:
        """The eigenvectors of ``values[cols]`` as columns of length d."""
        nu, W = self.uncoupled.size, self.block_vectors
        if not nu:
            return W[:, cols]
        k = np.arange(self.values.size)[cols]
        out, unit = np.zeros((self.values.size, k.size), dtype=W.dtype), k < nu
        out[self.uncoupled[k[unit]], np.flatnonzero(unit)] = 1.0
        out[np.ix_(self.coupled, np.flatnonzero(~unit))] = W[:, k[~unit] - nu]
        return out

    def sandwich(self, X: np.ndarray) -> np.ndarray:
        """V X V^dag for X in the order of ``values`` (a 1-D X a diagonal), the only
        place it is formed: X_uu scattered, X_uc W^dag, W X_cu, W X_cc W^dag."""
        u, c, W, nu = self.uncoupled, self.coupled, self.block_vectors, self.uncoupled.size
        Wh, diagonal = W.conj().T, X.ndim == 1
        if not nu:
            return (W * X) @ Wh if diagonal else W @ X @ Wh
        out = np.zeros((self.values.size,) * 2, dtype=np.result_type(W, X))
        if diagonal:
            out[u, u], out[np.ix_(c, c)] = X[:nu], (W * X[nu:]) @ Wh
            return out
        out[np.ix_(u, u)], out[np.ix_(u, c)] = X[:nu, :nu], X[:nu, nu:] @ Wh
        out[np.ix_(c, u)], out[np.ix_(c, c)] = W @ X[nu:, :nu], W @ X[nu:, nu:] @ Wh
        return out


def real_if_exact(M: np.ndarray) -> np.ndarray:
    """The real part of M when its imaginary part is exactly zero, else M."""
    M = np.asarray(M)
    if np.iscomplexobj(M) and not M.imag.any():
        return M.real
    return M


def coupled_indices(M: np.ndarray) -> np.ndarray:
    """Mask of the indices i with M[i, j] != 0 or M[j, i] != 0 for some j != i
    in the lower triangle, the one LAPACK reads; by blocks of rows.

    An uncoupled index i is an eigenvector e_i of M with eigenvalue M_ii and
    a 1 x 1 block of its Cholesky factor.
    """
    d = M.shape[0]
    if d > 1 and np.count_nonzero(M) == M.size:
        return np.ones(d, dtype=bool)   # a dense matrix, at the cost of one count
    coupled = np.zeros(d, dtype=bool)
    for b in row_blocks(d):
        # row i = b.start + r against the columns j < i
        nonzero = M[b, :b.stop] != 0
        rows, cols = nonzero.shape
        nonzero &= np.arange(cols) < np.arange(b.start, b.start + rows)[:, None]
        coupled[b] |= nonzero.any(axis=1)
        coupled[:cols] |= nonzero.any(axis=0)
    return coupled


def eigh_hermitian(M: np.ndarray, coupled: np.ndarray | None = None) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, in block form.

    Rejects non-Hermitian input with a diagnostic naming the maximum
    asymmetry.  Deterministic for a fixed input (LAPACK ``heevd``, or
    ``syevd`` on a real matrix).  A matrix with an exactly zero imaginary
    part is solved as the real symmetric matrix it is, so its eigenvectors
    come back real (float64); complex input gives complex eigenvectors.
    LAPACK solves only the coupled block M[c, c] (``coupled_indices``), kept
    with the uncoupled pairs (M_uu, e_u).  A matrix with every index coupled
    is one LAPACK call on M (one with no zero entry is told by one count, with
    no mask), and a diagonal matrix none.  The arrays are read-only.  Given
    ``coupled``, the mask of a matrix its caller has already checked Hermitian
    (a ``QuantumState``'s payload), neither scan is repeated.
    """
    M = real_if_exact(M)
    if coupled is None:
        coupled = coupled_indices(require_hermitian(M))
    if coupled.all():
        vals, W = np.linalg.eigh(M)
        vals.flags.writeable = W.flags.writeable = False
        return SpectralDecomposition(np.empty(0, dtype=int), slice(None), vals, W)
    c, u = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    lam_c, W = (np.linalg.eigh(M[np.ix_(c, c)]) if c.size else
                (np.empty(0), np.empty((0, 0), dtype=complex if np.iscomplexobj(M) else float)))
    values = np.concatenate([np.diagonal(M).real[u], lam_c])
    for a in (u, c, values, W):
        a.flags.writeable = False
    return SpectralDecomposition(u, c, values, W)


def _real_factor(M: np.ndarray):
    """(R, k) with M = 1j**k R and R real, or None if M is genuinely complex."""
    if not np.iscomplexobj(M):
        return M, 0
    if not M.imag.any():
        return M.real, 0
    if not M.real.any():
        return M.imag, 1
    return None


def _as_factor(op) -> tuple:
    """A factor (F, k) as is; an array split by ``_real_factor``, else (M, 0)."""
    return op if isinstance(op, tuple) else (_real_factor(op) or (op, 0))


def hermitian_trace(a, b) -> complex:
    """Tr(A B) for a Hermitian A and any B, each a factor (F, k) standing for
    1j**k F (a 1-D F a diagonal) or an array, in O(d^2) multiply-adds.

    A^T = conj(A), so a real F has F^T = (-1)^k F and a complex F (k = 0)
    has F^T = conj(F): Tr(A B) = sum_ij A_ji B_ij = 1j**(k_b - k_a) vdot(F_a, F_b).
    """
    (Fa, ka), (Fb, kb) = _as_factor(a), _as_factor(b)
    if Fa.ndim == 1 or Fb.ndim == 1:
        # a diagonal meets only the diagonal of the other factor
        da, db = (F if F.ndim == 1 else np.diagonal(F) for F in (Fa, Fb))
        return 1j ** (ka + kb) * (da @ db)
    return 1j ** (kb - ka) * np.vdot(Fa, Fb)


def psd_sqrt(M) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix or of its kept spectrum,
    its eigenvalues taken by the PSD rule of ``rank_floor_sqrt``."""
    dec = M if isinstance(M, SpectralDecomposition) else eigh_hermitian(M)
    return dec.sandwich(rank_floor_sqrt(dec.values))


def rank_floor_sqrt(w: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues w of a PSD matrix, the one PSD rule:
    w below PSD_FLOOR * max(max|w|, 1) is rejected, and w under the
    numerical-rank floor dim * eps * max(w) is round-off of zero and gives 0
    (its square root, ~1e-8, would not)."""
    if (lo := w.min(initial=0.0)) < PSD_FLOOR * abs(w).max(initial=1.0):
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {lo:.3e}")
    floor = w.size * np.finfo(float).eps * w.max(initial=0.0)
    return np.sqrt(np.where(w > floor, w, 0.0))


def fold_floor(dec: SpectralDecomposition) -> SpectralDecomposition:
    """The support and floor form of a density's spectrum: the eigenvalues
    within FLOOR_WIDTH of the smallest become one implicit kernel of their
    mean l0, and the other r its support, their eigenvectors the d x r
    ``block_vectors``.  Exact for the pair sums whose weights vanish on equal
    eigenvalues, up to the bound stated at FLOOR_WIDTH.  A spectrum with a
    kernel already (a vector's) is in this form, and one whose smallest
    eigenvalue is alone has no floor: both are returned as they are."""
    lam = dec.values
    if dec.dim > lam.size or lam.size < 2:
        return dec
    lo, second = np.sort(lam)[:2].tolist()
    if second > lo + FLOOR_WIDTH:
        return dec
    low = lam <= lo + FLOOR_WIDTH
    return SpectralDecomposition(np.empty(0, dtype=int), slice(None), lam[~low],
                                 dec.columns(~low), float(lam[low].mean()))


def psd_factor(dec: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """(l, R) for the kept spectrum of a PSD M: the eigenvalues l whose
    ``rank_floor_sqrt`` is nonzero and R = V sqrt(l) on their eigenvectors,
    the factor M = R R^dag with rank(M) columns."""
    root = rank_floor_sqrt(dec.values)
    keep = root > 0
    return dec.values[keep], dec.columns(keep) * root[keep]


def unitary_exp(A, theta: float) -> np.ndarray:
    """The interferometer propagator exp(-i theta A) for Hermitian A, via the
    spectral decomposition; A is a matrix or its kept ``SpectralDecomposition``.
    exp(+i theta A) is the propagator at -theta.
    """
    dec = A if isinstance(A, SpectralDecomposition) else eigh_hermitian(A)
    return dec.sandwich(np.exp(-1j * theta * dec.values))


def pure_moments(psi: np.ndarray, images) -> tuple[np.ndarray, np.ndarray]:
    """<A_k> and the symmetrised second moments Re<A_k A_l> of a unit vector,
    from the images A_k psi of Hermitian operators A_k.

    The second moments are the real part of the Gram matrix of the images,
    so one operator application per operator suffices.
    """
    W = np.stack(images)
    mean = np.real(W.conj() @ psi)
    G = np.real(W.conj() @ W.T)
    return mean, (G + G.T) / 2.0


def unitary_apply(A, theta: float, v: np.ndarray) -> np.ndarray:
    """exp(-i theta A) v for Hermitian A (``unitary_exp`` applied to v),
    without forming the unitary.

    A is a ``CollectiveOperator`` (``A.apply``, 1-norm at most b =
    ``A.norm_bound()``) or a bare matrix (``A @ v``, b its 1-norm).  Taylor
    steps with scaling (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488,
    2011): ceil(|theta| b) steps, each summing the series until two
    consecutive terms fall below the unit roundoff times the sum, within a
    budget of _TAYLOR_MAX_STEPS = 50,000 steps (4 pi about a unit J_n at N =
    4096 takes at most 25,743); an angle that needs more is refused.
    """
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    if hasattr(A, "apply"):
        apply, bound = A.apply, A.norm_bound()
    else:
        A = np.asarray(A)
        apply, bound = A.__matmul__, np.linalg.norm(A, 1)
    if abs(theta) * bound > _TAYLOR_MAX_STEPS:
        raise ValueError(f"rotation angle theta = {theta} needs {abs(theta) * bound:.3g} "
                         f"Taylor steps, more than the budget of {_TAYLOR_MAX_STEPS}")
    steps = int(np.ceil(abs(theta) * bound))
    c = -1j * theta / max(steps, 1)
    out = np.array(v, dtype=complex)
    for _ in range(steps):
        term, prev = out, np.abs(out).max()
        # |c| b <= 1: term k is at most 1/k! of the input, so k < 60 ends only NaN
        for k in range(1, 60):
            term = (c / k) * apply(term)
            out += term
            size = np.abs(term).max()
            if prev + size <= _UNIT_ROUNDOFF * np.abs(out).max():
                break
            prev = size
    return out


def mmatrix_tridiagonal_solve(d: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Solve T x = f for a batch of symmetric tridiagonal M-matrices by
    odd-even reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
    627, 1970).

    Row b of ``d`` (B x n) is the diagonal of T_b, row b of ``e`` (B x n-1,
    or 1 x n-1 shared by every row) its off-diagonal, all <= 0, and row b of
    ``f`` (B x n) the right-hand side.  Each level eliminates the odd-index
    unknowns, which leaves a tridiagonal system in the even ones, so the
    solve takes about log2(n) levels of whole-array operations.  There is
    no pivoting: each reduced matrix is a Schur complement of a positive
    definite M-matrix and again one, so every pivot is positive, and a
    nonnegative f gives a nonnegative x in which only the pivots subtract.
    Every operation is elementwise, so each row's x is bit for bit its
    solve alone.
    """
    n = d.shape[-1]
    if n == 1:
        return f / d
    m = n // 2
    d_odd, f_odd = d[:, 1::2], f[:, 1::2]
    e_left, e_right = e[:, 0::2], e[:, 1::2]    # couplings of odd row 2k+1 to 2k, 2k+2
    r = e_right.shape[-1]
    left = e_left / d_odd
    right = e_right / d_odd[:, :r]
    d_even, f_even = d[:, 0::2].copy(), f[:, 0::2].copy()
    d_even[:, :m] -= e_left * left
    f_even[:, :m] -= left * f_odd
    d_even[:, 1:1 + r] -= e_right * right
    f_even[:, 1:1 + r] -= right * f_odd[:, :r]
    x_even = mmatrix_tridiagonal_solve(d_even, -e_left[:, :r] * right, f_even)
    x_odd = f_odd - e_left * x_even[:, :m]
    x_odd[:, :r] -= e_right * x_even[:, 1:1 + r]
    x_odd /= d_odd
    x = np.empty(np.broadcast_shapes(d.shape, f.shape))
    x[:, 0::2], x[:, 1::2] = x_even, x_odd
    return x


def tridiagonal_ground_pairs(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenvalue and unit eigenvector of each symmetric tridiagonal
    matrix T_b with diagonal ``d[b]`` (B x n) and off-diagonal ``e`` (n-1,
    every entry > 0, shared by all rows), by Noda iteration (T. Noda,
    Numer. Math. 17, 382, 1971).

    With S = diag((-1)^i), A = S T S has off-diagonal -e, so A - mu is an
    irreducible M-matrix for every mu below the lowest eigenvalue lam0, and
    lam0's eigenvector u of A (T's is S u) is positive.  For any u > 0 the
    smallest ratio (A u)_i / u_i is a lower bound on lam0 (Collatz-
    Wielandt).  Each step solves (A - mu) w = u (``mmatrix_tridiagonal_solve``)
    at the current bound, reads the next bound as mu + min_i u_i / w_i and
    normalises w: inverse iteration whose shift rises to lam0, converging
    superlinearly.  The shift stays 16 eps ||T|| below the bound, so that
    rounding never makes the shifted matrix indefinite; ||T|| is the
    largest Gershgorin row sum.  A row stops when |A w - theta w| / |w| <=
    eps ||T|| at the Rayleigh quotient theta, which is then within that
    residual of lam0.  The residual is u - (theta - mu) w over |w|, formed
    without cancellation, so it can be asked to fall that far; what is
    left is the solve's own rounding, and T v - theta v computed afresh is
    about 1.5 eps ||T||.  Rows that have stopped are not iterated further
    and every operation acts on one row, so each row's result is bit for
    bit its own call.  Returns the Rayleigh quotients (B,) and the unit
    eigenvectors of T (B x n), whose signs alternate from a positive first
    entry.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if not (e > 0).all():
        raise ValueError("the off-diagonal must be positive (an unreduced tridiagonal matrix)")
    rows, n = d.shape
    off = -e[None, :]                                  # A's off-diagonal
    size = np.abs(d)
    size[:, 1:] += e
    size[:, :-1] += e
    norm = size.max(axis=1)
    margin = 16.0 * _EPS * norm
    # A u for u = 1 needs no division: the row sums of A
    bound = d.copy()
    bound[:, 1:] += off
    bound[:, :-1] += off
    bound = bound.min(axis=1)
    u = np.ones((rows, n))
    values, vectors = np.empty(rows), np.empty((rows, n))
    active = np.arange(rows)
    for _ in range(_NODA_MAX_STEPS):
        shift = bound - margin[active]
        w = mmatrix_tridiagonal_solve(d[active] - shift[:, None], off, u)
        top = w.max(axis=1)
        if not (np.isfinite(top).all() and (top > 0).all()):
            raise FloatingPointError("Noda iteration broke down: a shifted block "
                                     "was not positive definite")
        s = w / top[:, None]
        ss = (s * s).sum(axis=1)
        rise = (s * u).sum(axis=1) / ss / top               # theta - shift
        # in units of ||T||, so that no square overflows
        gap = (u / top[:, None] - rise[:, None] * s) / norm[active, None]
        done = np.sqrt((gap * gap).sum(axis=1) / ss) <= _EPS
        if done.any():
            values[active[done]] = shift[done] + rise[done]
            vectors[active[done]] = s[done] / np.sqrt(ss[done])[:, None]
            keep = ~done
            active, u, w, s, shift = active[keep], u[keep], w[keep], s[keep], shift[keep]
        if active.size == 0:
            vectors[:, 1::2] *= -1.0
            return values, vectors
        # entries that underflowed to 0 in both u and w give NaN, which fmin skips
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = shift + np.fmin.reduce(u / w, axis=1)
        u = s
    raise FloatingPointError(f"Noda iteration did not converge in {_NODA_MAX_STEPS} steps")
