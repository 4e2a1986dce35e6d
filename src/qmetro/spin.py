"""Collective angular-momentum operators for N spin-1/2 particles.

Two representations are supported:

* ``full``     -- the complete 2^N-dimensional product space, basis ordered
                  by the integer value of the bit string, bit 0 meaning
                  spin up (+1/2 along z).
* ``symmetric``-- the (N+1)-dimensional maximal-spin (Dicke) sector with
                  j = N/2, basis ordered by ascending J_z eigenvalue
                  m = -N/2 ... +N/2.

Operators are applied, not stored.  A ``CollectiveOperator`` is its
product ``times(X)`` = (P, k), A X = 1j**k P, with a vector or a d x k
block X.  Built from a matrix, the class itself is a custom operator; the
structured forms are its subclasses, built by the builders below, and take
the structure the physics provides, in real arithmetic wherever the matrix
is real or purely imaginary (k = 1 on its imaginary part) and without a
d x d array:

* J_n = n . J (``direction_op``, ``collective_op`` at a unit axis) from one
  builder: in the symmetric sector a real diagonal n_z m and one band from
  the ladder amplitudes, each left out where zero (J_z diagonal, J_x real,
  J_y imaginary), O(N) per vector; in the full space the site sum of
  (n . sigma)/2;
* full-space site sums (J_n, ``gradient_op``, ``single_site_op``): site
  weights and a 2x2 operator, off the diagonal by bit flips on the (2,)*N
  tensor in O(N 2^N), on it by the exact diagonal (n_z m for J_n), and
  exponentiated site by site;
* parity: an index flip, with a sign for sigma_z and sigma_y (and the phase
  i of sigma_y^N at odd N as k = 1);
* ``squared_op``: the diagonal of squares for a diagonal operator (J_z^2),
  else two ``times``;
* a custom operator: its real or complex factor times X.

The rest follows from ``times``.  ``apply(v)`` = 1j**k P serves pure
states (k = 2 a sign).  The ``factor`` (F, k), A = 1j**k F, is a diagonal
form's real 1-D diagonal, else ``times`` of the unit columns (float64 where
the matrix is real or purely imaginary, else complex with k = 0); a custom
operator's is the factor of its matrix.  ``_factor()`` builds it, and the
``factor`` property builds it on first use and keeps it, read-only, for the
``spectrum`` and the dense ``matrix``.  ``as_operator`` wraps a bare matrix as a custom operator, so
every caller meets one kind of operator.  ``spectrum`` keeps the
eigendecomposition for density rotations by any generator but a site sum,
and ``norm_bound()`` bounds the 1-norm for ``linalg.unitary_apply``, a
band's exactly.  Builders are kept in bounded caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import DIRECTION_NORM
from .linalg import (SpectralDecomposition, _real_factor, eigh_hermitian, real_if_exact,
                     require_hermitian, row_blocks)

FULL_VECTOR_MAX = 12   # 2^12 = 4096 amplitudes
FULL_DENSITY_MAX = 10  # 2^10 = 1024 -> 1M-entry density matrices
SYMMETRIC_MAX = 4096

# Bounds on the operator caches.  The largest key set any CLI command
# reuses is the noise sweep's: x, y and z at each particle number, plus J_y
# of every J block of the noisy QFI (13 operators for N = 4, 6, 8, 10).
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


def require_density(rep: Representation) -> Representation:
    """rep, when a density matrix of it fits: full ones stop at FULL_DENSITY_MAX."""
    if rep.kind == "full" and rep.n > FULL_DENSITY_MAX:
        raise ValueError(f"full-representation density matrices limited to N <= {FULL_DENSITY_MAX}")
    return rep


# ----------------------------------------------------------------------
# structured forms
# ----------------------------------------------------------------------

def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _cols(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x shaped to scale the rows of v, a vector or a d x k matrix."""
    return x.reshape(x.shape + (1,) * (v.ndim - 1))


def _from_factor(F: np.ndarray, k: int) -> np.ndarray:
    """The complex matrix 1j**k F (k = 0 or 1), with +0 in the other part; a
    1-D F fills the diagonal, and a complex matrix F (k = 0) is returned as is."""
    if F.ndim == 2 and np.iscomplexobj(F):
        return F
    M = np.zeros((F.shape[0],) * 2, dtype=complex)
    target = M if np.iscomplexobj(F) else (M.imag if k else M.real)
    if F.ndim == 1:
        np.fill_diagonal(target, F)
    else:
        target[...] = F
    return _freeze(M)


class CollectiveOperator:
    """A Hermitian operator of dimension ``dim``, its representation and
    provenance, given by its product with a d x k matrix: ``times(X)`` =
    (P, k), A X = 1j**k P.  Built from a matrix, checked Hermitian, it is the
    custom operator of that matrix: ``times`` is its real or complex factor
    times X.  The structured operators are its subclasses (``_Form``).
    ``provenance`` records how it was built: an axis label, a unit direction
    3-vector, the site weights of a gradient generator, or "custom" for
    user-supplied matrices.  ``rep`` is None for a bare matrix wrapped by
    ``as_operator``, which fits any state of its dimension.
    """

    def __init__(self, M, rep: Representation | None, provenance: object = "custom"):
        M = np.asarray(M)
        require_hermitian(real_if_exact(M), name="collective operator")
        self._bind(M.shape[0], rep, provenance)
        # M = 1j**k F, with F real where M is real or purely imaginary
        self.F, self.k = _real_factor(M) or (M, 0)
        self._memo["matrix"] = M

    def _bind(self, dim: int, rep: Representation | None, provenance: object):
        """Set the dimension, checked against rep, the provenance and an empty memo."""
        if rep is not None and dim != rep.dim:
            raise ValueError(f"operator dimension {dim} does not match {rep}")
        self.dim, self.rep, self.provenance, self._memo = dim, rep, provenance, {}

    def __repr__(self):
        return f"CollectiveOperator({self.provenance!r}, {self.rep})"

    def times(self, X):
        return self.F @ X, self.k

    def diagonal(self):
        return None

    def norm_bound(self) -> float:
        """A bound on the 1-norm (so on the spectral norm), from the structure."""
        return float(np.linalg.norm(self.matrix, 1))

    def _factor(self):
        return _freeze(self.F.view()), self.k

    def apply(self, v) -> np.ndarray:
        """A v for a vector, A X column by column for a d x k matrix: 1j**k P
        from times(v), k = 2 a sign."""
        v = np.asarray(v)
        if v.shape[0] != self.dim:
            raise ValueError(f"operand length {v.shape[0]} does not match dimension {self.dim}")
        P, k = self.times(v)
        return -P if k == 2 else 1j * P if k else P

    def columns(self, blk):
        """(P, k) for the columns blk of the matrix (a slice of rows):
        ``times`` of those unit columns, every entry exact."""
        unit = np.zeros((self.dim, len(range(self.dim)[blk])))
        unit[blk, :] = np.eye(unit.shape[1])
        return self.times(unit)

    def _memoized(self, key: str, compute):
        """compute() on the first request for key, the kept value afterwards."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def factor(self) -> tuple:
        """(F, k) with the operator equal to 1j**k F, F read-only: a 1-D real
        diagonal, a float64 matrix, or a complex matrix with k = 0.  Built
        from the structure (``_factor()``) on first use and kept."""
        return self._memoized("factor", self._factor)

    @property
    def matrix(self) -> np.ndarray:
        """The dense complex matrix 1j**k F, built on first use and kept; a
        custom operator's is the matrix it was given."""
        return self._memoized("matrix", lambda: _from_factor(*self.factor))

    @property
    def spectrum(self) -> SpectralDecomposition:
        """The eigendecomposition, computed on first use and kept (one per
        generator however many angles it rotates by).  A real factor (k = 0)
        is decomposed as it is, with no complex d x d copy."""
        def compute():
            F, k = self.factor
            if k == 0 and not np.iscomplexobj(F):
                return eigh_hermitian(np.diag(F) if F.ndim == 1 else F)
            return eigh_hermitian(_from_factor(F, k))
        return self._memoized("spectrum", compute)


class _Form(CollectiveOperator):
    """A structured operator: a subclass gives ``times`` and a 1-norm bound
    ``norm_bound()``, and takes ``rep`` and ``provenance`` from its builder.
    Its dense factor follows from ``times``."""

    def _factor(self):
        """(F, k), the matrix being 1j**k F: the diagonal of a diagonal form,
        else its unit columns, one ``row_blocks`` block at a time."""
        d = self.diagonal()
        if d is not None:
            return _freeze(d), 0
        F = None
        for blk in row_blocks(self.dim):
            P, k = self.columns(blk)
            F = np.empty((self.dim,) * 2, dtype=P.dtype) if F is None else F
            F[:, blk] = P
        return _freeze(F), k


def _band(diag, lower, upper, v):
    """M v for the band of diagonal ``diag``, M[i+1, i] = lower[i] and
    M[i, i+1] = upper[i] (None: absent), on a vector or the columns of a matrix."""
    parts = [p for p in (diag, lower, upper) if p is not None]
    out = np.zeros(v.shape, dtype=np.result_type(v, *parts))
    if diag is not None:
        out += _cols(diag, v) * v
    if lower is not None:
        out[1:] += _cols(lower, v) * v[:-1]
        out[:-1] += _cols(upper, v) * v[1:]
    return out


class _Banded(_Form):
    """Real diagonal ``diag`` and subdiagonal ``lower`` (M[i+1, i]); either
    may be absent, and the superdiagonal is conj(lower)."""

    def __init__(self, dim: int, diag, lower, rep, provenance):
        self.diag, self.lower = diag, lower
        self._bind(dim, rep, provenance)

    def diagonal(self):
        return self.diag if self.lower is None else None

    def times(self, X):
        """A purely imaginary band (J_y) from its imaginary parts, negated above
        the diagonal (k = 1); a real one (J_x, a diagonal) or a complex one is
        applied as it is."""
        lower = self.lower
        if self.diag is None and np.iscomplexobj(lower) and not lower.real.any():
            return _band(None, lower.imag, -lower.imag, X), 1
        return _band(self.diag, lower, None if lower is None else np.conj(lower), X), 0

    def norm_bound(self):
        rows = np.abs(self.diag) if self.diag is not None else np.zeros(self.dim)
        if self.lower is not None:
            rows = rows + np.abs(np.r_[0, self.lower]) + np.abs(np.r_[self.lower, 0])
        return float(rows.max())


class _SiteSum(_Form):
    """sum_s w_s op2 at site s (0 = leftmost factor) on N = len(weights) qubits.

    Site s is bit N-1-s of the basis index: op2 at s maps column i to rows
    i and i ^ 2^(N-1-s).  Each off-diagonal entry comes from one site, so
    off the diagonal the dense matrix equals the sum of Kronecker products
    I (x) op2 (x) I bit for bit; its diagonal is the exact ``_diagonal``.
    """

    def __init__(self, op2: np.ndarray, weights, rep, provenance):
        self.op2, self.weights = op2, np.asarray(weights, dtype=float)
        self._bind(2 ** self.weights.size, rep, provenance)

    def diagonal(self):
        return None if self.op2[0, 1] or self.op2[1, 0] else self._diagonal

    @cached_property
    def _diagonal(self):
        """The real diagonal sum_s w_s op2[b_s, b_s] over the bits b_s of each
        index, kept read-only; a traceless op2 (J_n) gives op2[0, 0] sum_s
        w_s (1 - 2 b_s), n_z m exactly."""
        h, n = self.op2, self.weights.size
        bits = [(np.arange(self.dim) >> (n - 1 - s)) & 1 for s in range(n)]
        d = (sum((w * h[b, b] for w, b in zip(self.weights, bits)), np.zeros(self.dim, complex))
             if np.trace(h) else h[0, 0] * sum(w * (1 - 2 * b) for w, b in zip(self.weights, bits)))
        return _freeze(real_if_exact(d))

    def times(self, X):
        """A diagonal site sum (J_z) scales rows; a real op2 (J_x) flips bits with
        it, a purely imaginary one (J_y, the gradient) with its imaginary part
        (k = 1), so a real X stays real; a complex one as it is."""
        d = self.diagonal()
        if d is not None:
            return _cols(d, X) * X, 0
        h, k = _real_factor(self.op2) or (self.op2, 0)
        return self._flips(h, X), k

    def _flips(self, h, v):
        """sum_s w_s h at site s, applied to v: its off-diagonal entries by adds
        of bit-flipped rows, site by site, and its diagonal once, as the exact
        ``_diagonal`` (zero for the imaginary part of a Hermitian op2)."""
        v = np.ascontiguousarray(v)
        out = np.zeros(v.shape, dtype=np.result_type(v, h))
        for s in np.flatnonzero(self.weights):
            # axis 1 is the bit of site s; trailing bits and columns merge
            x, y = v.reshape(2 ** s, 2, -1), out.reshape(2 ** s, 2, -1)
            for r in (0, 1):
                if h[r, 1 - r]:
                    y[:, r] += (self.weights[s] * h[r, 1 - r]) * x[:, 1 - r]
        if h[0, 0] or h[1, 1]:
            out += _cols(self._diagonal, v) * v
        return out

    def propagate(self, theta, X, columns=False):
        """exp(-i theta A) X for a vector or a d x k matrix X, or with ``columns``
        X exp(i theta A) for a d x d X: the terms commute, so it is the product
        over sites of exp(-i phi op2), phi = theta w_s, on the bit of site s; with
        op2 = a + r B, B^2 = 1, that is e^{-i phi a} (cos(phi r) - i sin(phi r) B)."""
        h, phi = self.op2, theta * self.weights[:, None, None]
        a, r = np.trace(h).real / 2.0, np.hypot((h[0, 0] - h[1, 1]).real / 2.0, abs(h[0, 1]))
        B = (h - a * np.eye(2)) / (r or 1.0)
        us = np.exp(-1j * phi * a) * (np.cos(phi * r) * np.eye(2) - 1j * np.sin(phi * r) * B)
        # a column's bits follow its row index; real for a purely imaginary op2
        us, lead = (us.conj(), X.shape[0]) if columns else (us, 1)
        for s in np.flatnonzero(phi):
            X = (real_if_exact(us[s]) @ X.reshape(lead * 2 ** s, 2, -1)).reshape(X.shape)
        return X

    def norm_bound(self):
        return float(np.abs(self.weights).sum() * np.linalg.norm(self.op2, 1))


class _Flip(_Form):
    """(P v)[i] = phase[i] v[d-1-i] with ``flip``, else phase[i] v[i]; a phase
    of +-i (sigma_y^N at odd N) is kept as its imaginary part with k = 1."""

    def __init__(self, phase: np.ndarray, flip: bool, rep, provenance):
        self.flip, (self.phase, self.k) = flip, _real_factor(phase) or (phase, 0)
        self._bind(phase.size, rep, provenance)

    def times(self, X):
        return _cols(self.phase, X) * (X[::-1] if self.flip else X), self.k

    def norm_bound(self):
        return float(np.abs(self.phase).max())


class _Square(_Form):
    """A^2 of a CollectiveOperator A, applied as A twice."""

    def __init__(self, A, rep, provenance):
        self.A = A
        self._bind(A.dim, rep, provenance)

    def times(self, X):
        P, j = self.A.times(X)
        P, k = self.A.times(P)
        return P, j + k

    def _factor(self):
        # (1j**k F)^2 = (-1)^k F^2, real for a real F
        F, k = self.A.factor
        return _freeze(-(F @ F) if k else F @ F), 0

    def norm_bound(self):
        return self.A.norm_bound() ** 2


def as_operator(op) -> CollectiveOperator:
    """A CollectiveOperator as is; a bare matrix as a custom operator of no
    representation, checked Hermitian."""
    return op if isinstance(op, CollectiveOperator) else CollectiveOperator(op, None)


# ----------------------------------------------------------------------
# public builders
# ----------------------------------------------------------------------

def ladder_amplitudes(n: int) -> np.ndarray:
    """<m+1|J_+|m> = sqrt(j(j+1) - m(m+1)) for m = -j .. j-1, j = n/2."""
    j = n / 2.0
    m = np.arange(n) - j
    return np.sqrt(j * (j + 1) - m * (m + 1))


def _component(n_vec, rep: Representation, provenance) -> _Form:
    """J_n = n . J for a unit 3-vector n.  J_+ is the subdiagonal
    of the ascending-m basis, so n_x J_x + n_y J_y is the band (n_x - i n_y) a / 2."""
    nx, ny, nz = n_vec
    if rep.kind == "full":
        h = sum(n_vec[i] * PAULI[a] for i, a in enumerate(AXES)) / 2.0
        return _SiteSum(h, np.ones(rep.n), rep, provenance)
    half = ladder_amplitudes(rep.n) / 2.0
    band = (nx - 1j * ny) * half if ny else nx * half
    return _Banded(rep.dim, nz * (np.arange(rep.dim) - rep.n / 2.0) if nz else None,
                   band if nx or ny else None, rep, provenance)


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def collective_op(axis: str, rep: Representation) -> CollectiveOperator:
    """The collective component J_axis = sum_n j_axis^{(n)}.

    Cached, so a matrix built for a density is built once per
    (axis, representation).
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return _component(np.eye(3)[AXES.index(axis)], rep, axis)


def direction_op(n_vec, rep: Representation) -> CollectiveOperator:
    """J along an arbitrary unit direction: J_n = sum_l n_l J_l."""
    n_vec = np.asarray(n_vec, dtype=float)
    if n_vec.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    # NaN fails every comparison, so the norm check below would pass it
    if not np.isfinite(n_vec).all():
        raise ValueError(f"direction vector must be finite, got {n_vec}")
    if abs(np.linalg.norm(n_vec) - 1.0) > DIRECTION_NORM:
        raise ValueError(f"direction vector must have unit norm, got |n|={np.linalg.norm(n_vec):.12f}")
    return _component(n_vec, rep, tuple(n_vec))


def _gradient_weights(n: int, centered: bool) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=float)
    return weights - weights.mean() if centered else weights


@lru_cache(maxsize=SMALL_CACHE_SIZE)
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
    weights = _gradient_weights(rep.n, centered)
    return _SiteSum(PAULI["y"] / 2.0, weights, rep, tuple(weights))


def _popcount(n: int) -> np.ndarray:
    """The number of 1 bits (spins down) of every full-space basis index."""
    idx = np.arange(2 ** n)
    count = np.zeros_like(idx)
    for b in range(n):
        count += (idx >> b) & 1
    return count


@lru_cache(maxsize=SMALL_CACHE_SIZE)
def parity_op(axis: str, rep: Representation) -> CollectiveOperator:
    """The product operator sigma_axis^{tensor N} (parity in the axis basis).

    sigma_x^N flips every spin: it reverses the basis index, in the full
    space (i -> 2^N-1-i) as in the symmetric sector (|m> -> |-m>).
    sigma_z^N is the sign (-1)^k with k spins down, and sigma_y^N flips with
    the phase i^N (-1)^(N-k) of the output index.
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    n = rep.n
    if rep.kind == "symmetric" and axis != "x":
        raise ValueError("symmetric-sector parity implemented for the x axis only")
    if axis == "x":
        phase = np.ones(rep.dim)
    else:
        down = _popcount(n)
        phase = (1.0 - 2.0 * (down % 2) if axis == "z"
                 else (1, 1j, -1, -1j)[n % 4] * (1.0 - 2.0 * ((n - down) % 2)))
    return _Flip(phase, axis != "z", rep, f"parity_{axis}")


def single_site_op(op2: np.ndarray, site: int, rep: Representation) -> CollectiveOperator:
    """Embed a single-qubit Hermitian operator at a 0-based site (full rep only)."""
    if rep.kind != "full":
        raise ValueError("single-site operators need the full representation")
    if not (0 <= site < rep.n):
        raise ValueError(f"site {site} out of range for N={rep.n}")
    op2 = np.asarray(op2, dtype=complex)
    if op2.shape != (2, 2):
        raise ValueError(f"single-site operator must be 2x2, got shape {op2.shape}")
    require_hermitian(op2, name="collective operator")
    # unit weight at `site`, zero elsewhere
    return _SiteSum(op2, np.eye(rep.n)[site], rep, f"site_{site}")


def squared_op(op: CollectiveOperator, label: str = "") -> CollectiveOperator:
    """op^2.  A diagonal operator (J_z) gives the diagonal of squares."""
    d, label = op.diagonal(), label or f"({op.provenance})^2"
    return _Banded(op.dim, d * d, None, op.rep, label) if d is not None else _Square(op, op.rep, label)
