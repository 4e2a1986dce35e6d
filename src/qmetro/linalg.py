"""Dense complex linear-algebra primitives used throughout the package.

Everything here is a thin, contract-enforcing layer over LAPACK (via
numpy): Hermitian eigendecomposition, PSD square roots, unitaries
generated by Hermitian matrices, their action on vectors and pure-state
moments.  All functions are pure; inputs are never mutated.

Operators reach this module as arrays.  Pure-state routines take what a
structured operator gives without a dense matrix: ``pure_moments`` reads
the images A_k|psi> (from ``CollectiveOperator.apply``) and
``unitary_apply`` needs only ``apply`` and the operator's ``norm_bound()``.
Densities work on the dense ``CollectiveOperator.matrix``.

Real data takes real arithmetic.  A complex array whose imaginary part is
exactly zero holds the same matrix as its real part, so ``eigh_hermitian``
eigendecomposes the real part with real LAPACK (and returns real
eigenvectors), and ``split_matmul`` multiplies real and purely imaginary
operands with real BLAS.  The rule is exact: no tolerance decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import HERMITICITY, PSD_FLOOR

_UNIT_ROUNDOFF = 2.0 ** -53  # the Taylor stopping rule's tolerance, as in expm_multiply


def hermiticity_defect(M: np.ndarray) -> float:
    """Largest elementwise asymmetry |M - M^dag|, relative to max|M|."""
    M = np.asarray(M)
    scale = max(np.abs(M).max(), 1.0) if M.size else 1.0
    return float(np.abs(M - M.conj().T).max() / scale)


def require_hermitian(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    # factor 10: the elementwise-relative contract in the docs is checked
    # against max|M|, which is slightly stricter than needed
    limit = HERMITICITY * 10
    # the defect is relative to max(max|M|, 1) >= 1, so an absolute
    # asymmetry within the limit passes without computing that scale
    if np.abs(M - M.conj().T).max() > limit and (defect := hermiticity_defect(M)) > limit:
        raise ValueError(f"{name} is not Hermitian: max asymmetry {defect:.3e} exceeds tolerance")
    return M


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    ``eigenvectors[:, k]`` is the normalized eigenvector for ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.conj().T

    def apply_function(self, f) -> np.ndarray:
        """f(M) computed through the spectrum; f acts elementwise on eigenvalues."""
        V = self.eigenvectors
        return (V * f(self.eigenvalues)) @ V.conj().T


def real_if_exact(M: np.ndarray) -> np.ndarray:
    """The real part of M when its imaginary part is exactly zero, else M."""
    M = np.asarray(M)
    if np.iscomplexobj(M) and not M.imag.any():
        return M.real
    return M


def eigh_hermitian(M: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Rejects non-Hermitian input with a diagnostic naming the maximum
    asymmetry.  Deterministic for a fixed input (LAPACK ``heevd``, or
    ``syevd`` on a real matrix).  A matrix with an exactly zero imaginary
    part is solved as the real symmetric matrix it is, so its eigenvectors
    come back real (float64); complex input gives complex eigenvectors.
    The returned arrays are read-only, so a kept spectrum cannot be altered.
    """
    M = require_hermitian(real_if_exact(M))
    vals, vecs = np.linalg.eigh(M)
    vals.flags.writeable = vecs.flags.writeable = False
    return SpectralDecomposition(vals, vecs)


def _real_factor(M: np.ndarray):
    """(R, k) with M = 1j**k R and R real, or None if M is genuinely complex."""
    if not np.iscomplexobj(M):
        return M, 0
    if not M.imag.any():
        return M.real, 0
    if not M.real.any():
        return M.imag, 1
    return None


def split_matmul(*mats: np.ndarray) -> np.ndarray:
    """The product mats[0] @ mats[1] @ ..., in real BLAS where that is exact.

    When every operand is real or purely imaginary, the product is the
    product of the real matrices times a power of 1j, and a real result
    comes back as a float64 array.  If any operand has both parts nonzero
    the complex product is taken as is.
    """
    factors = [_real_factor(M) for M in mats]
    if any(f is None for f in factors):
        return reduce(np.matmul, mats)
    out = reduce(np.matmul, [R for R, _ in factors])
    k = sum(k for _, k in factors) % 4
    return out if k == 0 else (1, 1j, -1, -1j)[k] * out


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues in [PSD_FLOOR, 0), and positive ones under the numerical-rank
    floor of ``rank_floor_sqrt``, are clamped to zero; anything below
    PSD_FLOOR is rejected as non-PSD.
    """
    dec = eigh_hermitian(M)
    lo = dec.eigenvalues.min() if dec.dim else 0.0
    scale = max(abs(dec.eigenvalues).max(), 1.0)
    if lo < PSD_FLOOR * scale:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {lo:.3e}")
    return dec.apply_function(rank_floor_sqrt)


def rank_floor_sqrt(w: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues w of a PSD matrix.

    Eigenvalues under the numerical-rank floor dim * eps * max(w) are
    round-off of zero and give 0; their square roots (~1e-8) would not.
    """
    floor = w.size * np.finfo(float).eps * max(w.max(), 0.0)
    return np.sqrt(np.where(w > floor, w, 0.0))


def unitary_exp(A: np.ndarray, theta: float, sign: int = -1) -> np.ndarray:
    """exp(sign * i * theta * A) for Hermitian A, via the spectral decomposition.

    ``sign=-1`` (default) gives the interferometer propagator exp(-i A theta).
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be +1 or -1")
    dec = eigh_hermitian(A)
    return dec.apply_function(lambda w: np.exp(1j * sign * theta * w))


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


def unitary_apply(A, theta: float, v: np.ndarray, sign: int = -1) -> np.ndarray:
    """exp(sign * i * theta * A) v for Hermitian A, without forming the unitary.

    A is a ``CollectiveOperator`` (``A.apply``, 1-norm at most b =
    ``A.norm_bound()``) or a bare matrix (``A @ v``, b its 1-norm).  Taylor
    steps with scaling (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488,
    2011): ceil(|theta| b) steps, each summing the series until two
    consecutive terms fall below the unit roundoff times the sum.
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be +1 or -1")
    if hasattr(A, "apply"):
        apply, bound = A.apply, A.norm_bound()
    else:
        A = np.asarray(A)
        apply, bound = A.__matmul__, np.linalg.norm(A, 1)
    steps = int(np.ceil(abs(theta) * bound))
    c = 1j * sign * theta / max(steps, 1)
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
