"""Collective angular-momentum operators for N spin-1/2 particles.

Two representations are supported:

* ``full``     -- the complete 2^N-dimensional product space, basis ordered
                  by the integer value of the bit string, bit 0 meaning
                  spin up (+1/2 along z).
* ``symmetric``-- the (N+1)-dimensional maximal-spin (Dicke) sector with
                  j = N/2, basis ordered by ascending J_z eigenvalue
                  m = -N/2 ... +N/2.

Operators are built once per (kind, axis, N) and kept in bounded caches;
the returned arrays are marked read-only so cached values cannot be
corrupted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOLS
from .linalg import real_if_exact, require_hermitian

FULL_VECTOR_MAX = 12   # 2^12 = 4096 amplitudes
FULL_DENSITY_MAX = 10  # 2^10 = 1024 -> 1M-entry density matrices
SYMMETRIC_MAX = 4096

# Bounds on the operator caches.  The largest key set any CLI command uses
# is the noise sweep's: x, y and z at four particle numbers in both the
# symmetric and the full representation, 24 operators.
OPERATOR_CACHE_SIZE = 32
SMALL_CACHE_SIZE = 8

AXES = ("x", "y", "z")

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class Representation:
    """Which sector of Hilbert space states and operators live in."""

    kind: str  # "full" or "symmetric"
    n: int     # number of spin-1/2 particles

    def __post_init__(self):
        if self.kind not in ("full", "symmetric"):
            raise ValueError(f"unknown representation kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("need at least one particle")
        if self.kind == "full" and self.n > FULL_VECTOR_MAX:
            raise ValueError(
                f"full representation limited to N <= {FULL_VECTOR_MAX}, got N={self.n}")
        if self.kind == "symmetric" and self.n > SYMMETRIC_MAX:
            raise ValueError(
                f"symmetric representation limited to N <= {SYMMETRIC_MAX}, got N={self.n}")

    @property
    def dim(self) -> int:
        return 2 ** self.n if self.kind == "full" else self.n + 1

    def __repr__(self):
        return f"Representation({self.kind}, N={self.n})"


def full_rep(n: int) -> Representation:
    return Representation("full", n)


def symmetric_rep(n: int) -> Representation:
    return Representation("symmetric", n)


@dataclass(frozen=True)
class CollectiveOperator:
    """A Hermitian operator together with its representation and provenance.

    ``provenance`` records how the matrix was built: an axis label, a unit
    direction 3-vector, the site weights of a gradient generator, or
    "custom" for user-supplied matrices.
    """

    matrix: np.ndarray
    rep: Representation
    provenance: object = "custom"

    def __post_init__(self):
        require_hermitian(real_if_exact(self.matrix), name="collective operator")
        if self.matrix.shape[0] != self.rep.dim:
            raise ValueError(
                f"operator dimension {self.matrix.shape[0]} does not match {self.rep}")


# ----------------------------------------------------------------------
# raw matrices
# ----------------------------------------------------------------------

def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def ladder_amplitudes(n: int) -> np.ndarray:
    """<m+1|J_+|m> = sqrt(j(j+1) - m(m+1)) for m = -j .. j-1, j = n/2."""
    j = n / 2.0
    m = np.arange(n) - j
    return np.sqrt(j * (j + 1) - m * (m + 1))


def _axis_matrix(kind: str, axis: str, n: int) -> np.ndarray:
    if kind == "symmetric":
        if axis == "z":
            return _freeze(np.diag(np.arange(n + 1) - n / 2.0).astype(complex))
        # J_+ in the ascending-m Dicke basis: one subdiagonal
        jp = np.diag(ladder_amplitudes(n), k=-1).astype(complex)
        if axis == "x":
            return _freeze((jp + jp.conj().T) / 2.0)
        return _freeze((jp - jp.conj().T) / 2j)
    # full representation: a sum of single-site sigma/2 terms
    return _freeze(_site_sum(PAULI[axis] / 2.0, np.ones(n)))


def _site_sum(op2: np.ndarray, weights) -> np.ndarray:
    """sum_s w_s op2 at site s (0 = leftmost factor) on N = len(weights) qubits.

    Site s is bit N-1-s of the basis index: op2 at s maps column i to rows
    i and i ^ 2^(N-1-s).  Each off-diagonal entry comes from one site, so
    this equals the sum of Kronecker products I (x) op2 (x) I bit for bit.
    """
    n = len(weights)
    cols = np.arange(2 ** n)
    M = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for s, w in enumerate(weights):
        bit = (cols >> (n - 1 - s)) & 1
        M[cols ^ (1 << (n - 1 - s)), cols] += w * op2[1 - bit, bit]
        M[cols, cols] += w * op2[bit, bit]
    return M


def _gradient_weights(n: int, centered: bool) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=float)
    return weights - weights.mean() if centered else weights


@lru_cache(maxsize=SMALL_CACHE_SIZE)
def _gradient_matrix(n: int, centered: bool) -> np.ndarray:
    return _freeze(_site_sum(PAULI["y"] / 2.0, _gradient_weights(n, centered)))


@lru_cache(maxsize=SMALL_CACHE_SIZE)
def _parity_matrix(kind: str, axis: str, n: int) -> np.ndarray:
    """sigma_axis^{tensor N}: the collective parity operator."""
    if kind == "symmetric":
        if axis != "x":
            raise ValueError("symmetric-sector parity implemented for the x axis only")
        # sigma_x^N flips every spin, mapping |m> -> |-m> with unit amplitude
        return _freeze(np.fliplr(np.eye(n + 1)).astype(complex))
    P = PAULI[axis].copy()
    for _ in range(n - 1):
        P = np.kron(P, PAULI[axis])
    return _freeze(P.astype(complex))


# ----------------------------------------------------------------------
# public builders
# ----------------------------------------------------------------------

@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def collective_op(axis: str, rep: Representation) -> CollectiveOperator:
    """The collective component J_axis = sum_n j_axis^{(n)}.

    Cached, so the matrix is built and its Hermiticity checked once per
    (axis, representation).
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return CollectiveOperator(_axis_matrix(rep.kind, axis, rep.n), rep, provenance=axis)


def direction_op(n_vec, rep: Representation) -> CollectiveOperator:
    """J along an arbitrary unit direction: J_n = sum_l n_l J_l."""
    n_vec = np.asarray(n_vec, dtype=float)
    if n_vec.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(np.linalg.norm(n_vec) - 1.0) > DEFAULT_TOLS.direction_norm:
        raise ValueError(f"direction vector must have unit norm, got |n|={np.linalg.norm(n_vec):.12f}")
    M = sum(n_vec[i] * collective_op(AXES[i], rep).matrix for i in range(3))
    return CollectiveOperator(np.ascontiguousarray(M), rep, provenance=tuple(n_vec))


def gradient_op(rep: Representation, centered: bool = False) -> CollectiveOperator:
    """Site-weighted generator sum_n n * j_y^{(n)} of a linear field gradient.

    Sites are numbered 1..N as in an equidistant chain; the operator is not
    permutation invariant, so only the full representation is allowed.  The
    ``centered`` variant subtracts the mean weight, which removes the
    homogeneous component.
    """
    if rep.kind != "full":
        raise ValueError(
            "the gradient generator is not permutation invariant and needs the full "
            "representation; the symmetric sector cannot hold it")
    return CollectiveOperator(_gradient_matrix(rep.n, centered), rep,
                              provenance=tuple(_gradient_weights(rep.n, centered)))


def parity_op(axis: str, rep: Representation) -> CollectiveOperator:
    """The product operator sigma_axis^{tensor N} (parity in the axis basis)."""
    return CollectiveOperator(_parity_matrix(rep.kind, axis, rep.n), rep,
                              provenance=f"parity_{axis}")


def single_site_op(op2: np.ndarray, site: int, rep: Representation) -> CollectiveOperator:
    """Embed a single-qubit Hermitian operator at a 0-based site (full rep only)."""
    if rep.kind != "full":
        raise ValueError("single-site operators need the full representation")
    if not (0 <= site < rep.n):
        raise ValueError(f"site {site} out of range for N={rep.n}")
    # unit weight at `site`, zero elsewhere
    return CollectiveOperator(_site_sum(np.asarray(op2, dtype=complex), np.eye(rep.n)[site]),
                              rep, provenance=f"site_{site}")


@lru_cache(maxsize=FULL_VECTOR_MAX)
def dicke_embedding(n: int) -> np.ndarray:
    """2^n x (n+1) isometry mapping the symmetric sector into the full space.

    Column i is the Dicke state with J_z eigenvalue m = i - n/2, i.e. with
    k = n - i spins flipped to |1>.
    """
    if n > FULL_VECTOR_MAX:
        raise ValueError(f"embedding limited to N <= {FULL_VECTOR_MAX}")
    dim = 2 ** n
    bits = ((np.arange(dim)[:, None] >> np.arange(n)[None, :]) & 1).sum(axis=1)
    B = np.zeros((dim, n + 1), dtype=complex)
    for i in range(n + 1):
        k = n - i
        mask = bits == k
        B[mask, i] = 1.0 / np.sqrt(mask.sum())
    return _freeze(B)
