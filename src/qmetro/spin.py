"""Collective angular-momentum operators for N spin-1/2 particles.

Two representations are supported:

* ``full``     -- the complete 2^N-dimensional product space, basis ordered
                  by the integer value of the bit string, bit 0 meaning
                  spin up (+1/2 along z).
* ``symmetric``-- the (N+1)-dimensional maximal-spin (Dicke) sector with
                  j = N/2, basis ordered by ascending J_z eigenvalue
                  m = -N/2 ... +N/2.

Operators are applied, not stored.  A ``CollectiveOperator`` holds the
structure the physics provides, and ``apply(v)`` acts with it on a vector
(or on the columns of a d x k matrix) without a d x d array:

* J_n = n . J (``direction_op``, ``collective_op`` at a unit axis) from one
  builder: in the symmetric sector a real diagonal n_z m and one band from
  the ladder amplitudes, each left out where zero (J_z diagonal, J_x real),
  O(N) per vector; in the full space the site sum of (n . sigma)/2;
* full-space site sums (J_n, ``gradient_op``, ``single_site_op``): site
  weights and a 2x2 operator, applied by bit flips on the (2,)*N tensor
  in O(N 2^N) and exponentiated site by site;
* parity: an index flip, with a sign for sigma_z and sigma_y;
* ``squared_op``: the diagonal of squares for a diagonal operator (J_z^2),
  else the operator applied twice;
* custom matrices: ``matrix @ v``.

Pure states only need A|psi> and go through ``apply``.  Densities meet an
operator through its ``factor`` (F, k), A = 1j**k F: the real diagonal
(1-D) of a diagonal operator (J_z, J_z^2), else a float64 F when no entry
has both a real and an imaginary part (J_x real, J_y purely imaginary),
else (a mixed direction, a complex custom matrix) the complex matrix with
k = 0.  The factor is filled from the structure on first use and kept,
read-only (a form's ``factor(cols)`` builds a column block and keeps
none); the dense ``matrix`` is built from it on request, bit for bit the
Kronecker sums.  ``as_operator`` wraps a bare matrix as a custom operator,
so every caller meets one kind of operator.  ``spectrum`` keeps the
eigendecomposition for density rotations by any generator but a site sum,
and ``norm_bound()`` bounds the 1-norm for ``linalg.unitary_apply``, a
band's exactly.  Builders are kept in bounded caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DIRECTION_NORM
from .linalg import (SpectralDecomposition, _real_factor, eigh_hermitian, real_if_exact,
                     require_hermitian)

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


class _Form:
    """A structured Hermitian operator of dimension ``dim``.

    A subclass gives ``apply(v)``, a 1-norm bound ``norm_bound()`` and its
    entries as ``triplets()``, (rows, cols, values) groups summing to the matrix.
    """

    def diagonal(self):
        return None

    def factor(self, cols=slice(None)):
        """(F[:, cols], k), the matrix being 1j**k F: the whole diagonal of a
        diagonal form, else filled from the triplets in one order for any cols,
        real when no entry has both parts nonzero, else complex with k = 0."""
        d = self.diagonal()
        if d is not None:
            return _freeze(d), 0
        groups = list(self.triplets())
        if not any(np.imag(v).any() for *_, v in groups):
            k, part = 0, np.real
        elif not any(np.real(v).any() for *_, v in groups):
            k, part = 1, np.imag
        else:
            k, part = 0, np.asarray
        at = np.full(self.dim, -1)
        at[cols] = np.arange(at[cols].size)
        F = np.zeros((self.dim, at[cols].size), dtype=complex if part is np.asarray else float)
        for rows, c, vals in groups:
            keep = at[c] >= 0
            F[rows[keep], at[c[keep]]] += part(vals)[keep]
        return _freeze(F), k


class _Banded(_Form):
    """Real diagonal ``diag`` and subdiagonal ``lower`` (M[i+1, i]); either
    may be absent, and the superdiagonal is conj(lower)."""

    def __init__(self, dim: int, diag=None, lower=None):
        self.dim, self.diag, self.lower = dim, diag, lower

    def diagonal(self):
        return self.diag if self.lower is None else None

    def apply(self, v):
        parts = [p for p in (self.diag, self.lower) if p is not None]
        out = np.zeros(v.shape, dtype=np.result_type(v, *parts))
        if self.diag is not None:
            out += _cols(self.diag, v) * v
        if self.lower is not None:
            out[1:] += _cols(self.lower, v) * v[:-1]
            out[:-1] += _cols(np.conj(self.lower), v) * v[1:]
        return out

    def norm_bound(self):
        rows = np.abs(self.diag) if self.diag is not None else np.zeros(self.dim)
        if self.lower is not None:
            rows = rows + np.abs(np.r_[0, self.lower]) + np.abs(np.r_[self.lower, 0])
        return float(rows.max())

    def triplets(self):
        i = np.arange(self.dim)
        if self.diag is not None:
            yield i, i, self.diag
        if self.lower is not None:
            yield i[1:], i[:-1], self.lower
            yield i[:-1], i[1:], np.conj(self.lower)


class _SiteSum(_Form):
    """sum_s w_s op2 at site s (0 = leftmost factor) on N = len(weights) qubits.

    Site s is bit N-1-s of the basis index: op2 at s maps column i to rows
    i and i ^ 2^(N-1-s).  Each off-diagonal entry comes from one site, so
    the dense matrix equals the sum of Kronecker products I (x) op2 (x) I
    bit for bit.
    """

    def __init__(self, op2: np.ndarray, weights):
        self.op2, self.weights = op2, np.asarray(weights, dtype=float)
        self.dim = 2 ** self.weights.size

    def diagonal(self):
        return None if self.op2[0, 1] or self.op2[1, 0] else real_if_exact(self._diagonal())

    def _diagonal(self):
        """sum_s w_s op2[b_s, b_s] over the bits b_s of each index, site by site;
        a traceless op2 (J_n) gives op2[0, 0] sum_s w_s (1 - 2 b_s), n_z m exactly."""
        h, n = self.op2, self.weights.size
        bits = [(np.arange(self.dim) >> (n - 1 - s)) & 1 for s in range(n)]
        if not np.trace(h):
            return h[0, 0] * sum(w * (1 - 2 * b) for w, b in zip(self.weights, bits))
        return sum((w * h[b, b] for w, b in zip(self.weights, bits)), np.zeros(self.dim, complex))

    def apply(self, v):
        out = np.zeros(v.shape, dtype=np.result_type(v, self.op2))
        for s, w in enumerate(self.weights):
            if not w:
                continue
            # axis 1 is the bit of site s; trailing bits and columns merge
            x, y = v.reshape(2 ** s, 2, -1), out.reshape(2 ** s, 2, -1)
            for r in (0, 1):
                for c in (0, 1):
                    if self.op2[r, c]:
                        y[:, r] += (w * self.op2[r, c]) * x[:, c]
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

    def triplets(self):
        n = self.weights.size
        cols = np.arange(self.dim)
        for s, w in enumerate(self.weights):
            bit = (cols >> (n - 1 - s)) & 1
            yield cols ^ (1 << (n - 1 - s)), cols, w * self.op2[1 - bit, bit]
        yield cols, cols, self._diagonal()


class _Flip(_Form):
    """(P v)[i] = phase[i] v[d-1-i] with ``flip``, else phase[i] v[i]."""

    def __init__(self, phase: np.ndarray, flip: bool):
        self.phase, self.flip, self.dim = phase, flip, phase.size

    def apply(self, v):
        return _cols(self.phase, v) * (v[::-1] if self.flip else v)

    def norm_bound(self):
        return float(np.abs(self.phase).max())

    def triplets(self):
        i = np.arange(self.dim)
        yield i, (i[::-1] if self.flip else i), self.phase


class _Square(_Form):
    """A^2 of a CollectiveOperator A, applied as A twice."""

    def __init__(self, A):
        self.A, self.dim = A, A.form.dim

    def apply(self, v):
        return self.A.apply(self.A.apply(v))

    def factor(self, cols=slice(None)):
        # (1j**k F)^2 = (-1)^k F^2, real for a real F
        F, k = self.A.factor
        return _freeze(-(F @ F[:, cols]) if k else F @ F[:, cols]), 0

    def norm_bound(self):
        return self.A.norm_bound() ** 2


class _Dense(_Form):
    """A custom operator: the matrix it was given."""

    def __init__(self, M: np.ndarray):
        self.M, self.dim = M, M.shape[0]

    def apply(self, v):
        return self.M @ v

    def factor(self, cols=slice(None)):
        F, k = _real_factor(self.M) or (self.M, 0)
        return _freeze(F[:, cols]), k

    def norm_bound(self):
        return float(np.linalg.norm(self.M, 1))


class CollectiveOperator:
    """A Hermitian operator together with its representation and provenance.

    ``form`` is one of the structured forms of this module, or a matrix for
    a custom operator.  ``provenance`` records how it was built: an axis
    label, a unit direction 3-vector, the site weights of a gradient
    generator, or "custom" for user-supplied matrices.  ``rep`` is None for
    a bare matrix wrapped by ``as_operator``, which fits any state of its
    dimension.
    """

    def __init__(self, form, rep: Representation | None, provenance: object = "custom"):
        self._memo = {}
        if not isinstance(form, _Form):
            M = np.asarray(form)
            require_hermitian(real_if_exact(M), name="collective operator")
            form = _Dense(M)
            self._memo["matrix"] = M
        if rep is not None and form.dim != rep.dim:
            raise ValueError(f"operator dimension {form.dim} does not match {rep}")
        self.form, self.rep, self.provenance = form, rep, provenance

    def __repr__(self):
        return f"CollectiveOperator({self.provenance!r}, {self.rep})"

    def apply(self, v) -> np.ndarray:
        """A v for a vector, A X column by column for a d x k matrix."""
        v = np.asarray(v)
        if v.shape[0] != self.form.dim:
            raise ValueError(f"operand length {v.shape[0]} does not match dimension {self.form.dim}")
        return self.form.apply(v)

    def _memoized(self, key: str, compute):
        """compute() on the first request for key, the kept value afterwards."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def factor(self) -> tuple:
        """(F, k) with the operator equal to 1j**k F, F read-only: a 1-D real
        diagonal, a float64 matrix, or a complex matrix with k = 0.  Built
        from the structure on first use and kept."""
        return self._memoized("factor", self.form.factor)

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

    def norm_bound(self) -> float:
        """A bound on the 1-norm (so on the spectral norm), from the structure."""
        return self.form.norm_bound()


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


def _component(n_vec, rep: Representation) -> _Form:
    """The form of J_n = n . J for a unit 3-vector n.  J_+ is the subdiagonal
    of the ascending-m basis, so n_x J_x + n_y J_y is the band (n_x - i n_y) a / 2."""
    nx, ny, nz = n_vec
    if rep.kind == "full":
        h = sum(n_vec[i] * PAULI[a] for i, a in enumerate(AXES)) / 2.0
        return _SiteSum(h, np.ones(rep.n))
    half = ladder_amplitudes(rep.n) / 2.0
    band = (nx - 1j * ny) * half if ny else nx * half
    return _Banded(rep.dim, diag=nz * (np.arange(rep.dim) - rep.n / 2.0) if nz else None,
                   lower=band if nx or ny else None)


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def collective_op(axis: str, rep: Representation) -> CollectiveOperator:
    """The collective component J_axis = sum_n j_axis^{(n)}.

    Cached, so a matrix built for a density is built once per
    (axis, representation).
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return CollectiveOperator(_component(np.eye(3)[AXES.index(axis)], rep), rep, provenance=axis)


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
    return CollectiveOperator(_component(n_vec, rep), rep, provenance=tuple(n_vec))


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
    return CollectiveOperator(_SiteSum(PAULI["y"] / 2.0, weights), rep,
                              provenance=tuple(weights))


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
        form = _Flip(np.ones(rep.dim), flip=True)
    else:
        down = _popcount(n)
        if axis == "z":
            form = _Flip(1.0 - 2.0 * (down % 2), flip=False)
        else:
            form = _Flip((1, 1j, -1, -1j)[n % 4] * (1.0 - 2.0 * ((n - down) % 2)), flip=True)
    return CollectiveOperator(form, rep, provenance=f"parity_{axis}")


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
    return CollectiveOperator(_SiteSum(op2, np.eye(rep.n)[site]), rep,
                              provenance=f"site_{site}")


def squared_op(op: CollectiveOperator, label: str = "") -> CollectiveOperator:
    """op^2.  A diagonal operator (J_z) gives the diagonal of squares."""
    d = op.form.diagonal()
    form = _Banded(op.form.dim, diag=d * d) if d is not None else _Square(op)
    return CollectiveOperator(form, op.rep, provenance=label or f"({op.provenance})^2")
