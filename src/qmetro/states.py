"""Probe-state factory: polarized, GHZ, Dicke, singlet and squeezed states.

States carry their representation and a short label so downstream reports
can reference "ghz(8)" etc.  Pure states are stored as unit vectors,
mixed states as density matrices; ``QuantumState.density()`` promotes on
demand.  A state's payload is a read-only view, so quantities derived
from it (spectrum, collective moments, collective Fisher matrix) are
computed once and kept on the state.  A density whose every imaginary
part is +0.0, bit for bit, is stored as its real part, a C-contiguous
float64 array; every other density (a -0.0 imaginary part included) and
every vector is complex128.

A pure state meets a ``CollectiveOperator`` only through ``apply``, so no
d x d operator is built for it, and a density through the operator's
``times`` on blocks of columns (``trace_chain``; real for every structured
operator but a mixed direction and parity sigma_y), so a real density takes
real products only.  ``braket`` is the one evaluation of <L psi|R psi>
(Tr(L^dag R rho) for a density) for chains of operators L and R: the
slopes and curvatures of the metrology module, and with the same bits the
moments <A> and <A^2> of ``operator_moments`` from one chain.  ``propagate``
is the one rule for U X, U = exp(-i theta A), on a vector or a d x k block:
a full-space site sum by its exact product of 2x2 rotations, any other
operator by Taylor steps.  ``evolve`` turns a vector by it and a density as
U (U rho)^dag under a site sum, or by the kept ``spectrum``.  A bare matrix
is accepted wherever an operator is.

Squeezed states, the ground states of J_x^2 - lam J_z, come from the two
parity blocks of that tridiagonal Hamiltonian by Noda iteration
(``squeezed_ground_states``, batched over lam): NumPy only, each vector
within a residual of eps ||T|| of its block T, with a warning when the
two blocks' lowest eigenvalues nearly coincide.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import isfinite, lgamma

import numpy as np

from .config import PSD_FLOOR, STATE_NORM
from .linalg import (coupled_indices, real_if_exact, require_hermitian, row_blocks,
                     tridiagonal_ground_pairs, unitary_apply, unitary_exp)
from .spin import (AXES, FULL_DENSITY_MAX, CollectiveOperator, Representation, _popcount,
                   _SiteSum, as_operator, collective_op, full_rep, ladder_amplitudes,
                   require_density, symmetric_rep)


@dataclass(frozen=True)
class QuantumState:
    """A pure vector or density matrix in a fixed representation.

    ``data`` is read-only: float64 and C-contiguous for a density whose
    imaginary parts are all +0.0, bit for bit, and complex128 for every other
    density and every vector.  A density must fit (``spin.require_density``)
    and pass ``linalg.require_hermitian``, the rule of every operator and
    eigensolve, so a state that is built passes the Fisher stage's check too.
    """

    rep: Representation
    data: np.ndarray
    label: str = "state"
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.asarray(self.data)
        # a read-only view, so nothing writes through the state behind its memo:
        # float64 for a density whose imaginary parts are all +0.0, bit for bit
        if d.ndim == 2 and (np.isrealobj(d) or not d.imag.view(np.uint64).any()):
            d = np.ascontiguousarray(d.real, dtype=float).view()
        else:
            d = np.asarray(d, dtype=complex).view()
        d.flags.writeable = False
        object.__setattr__(self, "data", d)
        if not np.isfinite(d).all():
            raise ValueError("state payload has non-finite entries")
        if d.ndim == 1:
            if d.shape != (self.rep.dim,):
                raise ValueError(f"vector length {d.shape} does not match {self.rep}")
            if abs(np.linalg.norm(d) - 1.0) > STATE_NORM:
                raise ValueError(f"state vector not normalised: |psi|={np.linalg.norm(d):.2e}")
        elif d.ndim == 2:
            if d.shape != (self.rep.dim, self.rep.dim):
                raise ValueError(f"density shape {d.shape} does not match {self.rep}")
            require_density(self.rep)
            require_hermitian(d, "density matrix")
            if abs(np.trace(d).real - 1.0) > STATE_NORM:
                raise ValueError(f"density matrix trace {np.trace(d).real!r} != 1")
            # PSD within the floor <=> rho + |floor| I admits a Cholesky factor;
            # an uncoupled index is a 1 x 1 block of it, and the shift goes
            # onto the diagonal of one copy of the coupled block.  The mask is
            # kept for the spectrum (``eigh_hermitian``), which needs no scan.
            self._memo["coupled"] = coupled = coupled_indices(d)
            coupled.flags.writeable = False
            c = np.flatnonzero(coupled)
            shifted = d[np.ix_(c, c)]
            shifted.flat[::c.size + 1] += -PSD_FLOOR
            try:
                np.linalg.cholesky(shifted)
                psd = (np.diagonal(d).real[~coupled] + -PSD_FLOOR > 0).all()
            except np.linalg.LinAlgError:
                psd = False
            if not psd:
                wmin = np.linalg.eigvalsh(d).min()
                raise ValueError(f"density matrix has negative eigenvalue {wmin:.2e}")
        else:
            raise ValueError("state payload must be a vector or a matrix")

    def _memoized(self, key: str, compute):
        """compute() on the first request for key, the kept value afterwards."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- basic queries ---------------------------------------------------

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    @property
    def n(self) -> int:
        return self.rep.n

    def density(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def purity(self) -> float:
        if self.is_pure:
            return 1.0
        return float(np.real(np.vdot(self.data, self.data)))

    def expectation(self, op) -> float:
        return float(np.real(braket(self.data, (), (as_operator(op),))))

    def variance(self, op) -> float:
        m, second = operator_moments(as_operator(op), self.data)
        # m ** 2 (C pow) and m * m differ in the last bit for some m; the
        # frontier and Ramsey outputs were recorded with this one
        return second - m ** 2

    def fidelity_with(self, other: "QuantumState") -> float:
        """Overlap fidelity; for two pure states |<a|b>|^2."""
        from .fisher import bures_fidelity
        return bures_fidelity(self, other)


def operator_moments(A: CollectiveOperator, data: np.ndarray) -> tuple:
    """<A> and <A^2> of a unit vector, from one A psi, or of a density, from one
    ``trace_chain`` (A, A): ``braket``'s bits."""
    if data.ndim == 2:
        traces = trace_chain(data, (A, A))
    else:
        traces = (np.vdot(data, Av := A.apply(data)), np.vdot(Av, Av))
    return float(np.real(traces[0])), float(np.real(traces[1]))


def braket(data: np.ndarray, left, right) -> complex:
    """<L psi|R psi> for a unit vector psi, Tr(L^dag R rho) for a density rho,
    with L = L_n ... L_1 for left = (L_1, ..., L_n) and R likewise: each chain
    applied to psi, then one vdot, or one ``trace_chain`` of rho."""
    if data.ndim == 1:
        bra, ket = (reduce(lambda v, A: A.apply(v), ops, data) for ops in (left, right))
        return np.vdot(bra, ket)
    return trace_chain(data, (*right, *reversed(left)))[-1]


def trace_chain(rho: np.ndarray, ops) -> np.ndarray:
    """Tr(A_1 rho), Tr(A_2 A_1 rho), ... for ops = (A_1, A_2, ...) and a d x d
    rho, over blocks of its columns (``linalg.row_blocks``): each product is an
    operator's ``times`` of a d x k block, so no d x d operator or product is
    formed."""
    out = np.zeros(len(ops), dtype=complex)
    for blk in row_blocks(rho.shape[0]):
        P, k = np.ascontiguousarray(rho[:, blk]), 0
        for n, A in enumerate(ops):
            P, j = A.times(P)
            k += j
            out[n] += 1j ** k * np.trace(P[blk])
    return out


def check_same_rep(state, op: CollectiveOperator):
    """Reject an operator of another representation than a QuantumState's; a
    bare array state or an operator of no representation passes."""
    if isinstance(state, QuantumState) and op.rep is not None and state.rep != op.rep:
        raise ValueError(f"representation mismatch: state {state.rep} vs operator {op.rep}")


def propagate(A: CollectiveOperator, theta: float, X: np.ndarray) -> np.ndarray:
    """U X, U = exp(-i theta A), for a vector or the columns of a d x k block X,
    with no unitary formed; theta is refused first if theta ||A|| is not finite.
    A full-space site sum takes its product of 2x2 rotations, any other
    operator Taylor steps (``unitary_apply``)."""
    if not isfinite(theta * A.norm_bound()):
        raise ValueError(f"rotation angle theta = {theta}: theta times ||A|| must be finite")
    return A.propagate(theta, X) if isinstance(A, _SiteSum) else unitary_apply(A, theta, X)


def evolve(A: CollectiveOperator, theta: float, data: np.ndarray) -> np.ndarray:
    """psi -> U psi or rho -> U rho U^dag, U = exp(-i theta A): a vector by
    ``propagate``, a density under a full-space site sum as U (U rho)^dag (rho
    Hermitian), both by the product on rows, and under any other operator by
    its kept ``spectrum``.  A non-finite theta ||A|| reaches ``propagate``'s refusal."""
    if data.ndim == 2 and not isinstance(A, _SiteSum) and isfinite(theta * A.norm_bound()):
        U = unitary_exp(A.spectrum, theta)
        return U @ data @ U.conj().T
    rows = propagate(A, theta, data)
    if data.ndim == 2:   # U (U rho)^dag; U rho is freed when rows is rebound
        rows = np.conjugate(rows.T, out=np.empty_like(rows))
        rows = A.propagate(theta, rows)
    return rows


def rotate(state: QuantumState, generator: CollectiveOperator, theta: float) -> QuantumState:
    """The state under exp(-i theta A), by the one evolution rule (``evolve``)."""
    check_same_rep(state, generator)
    return QuantumState(state.rep, evolve(generator, theta, state.data), label=state.label)


def to_full(state: QuantumState) -> QuantumState:
    """Embed a symmetric-sector state into the full 2^N space, by index.

    The full basis state j with k spins down (k one bits) is a 1/sqrt(C(N, k))
    share of the Dicke state i = N - k, so a vector v becomes v[i] c and a
    density rho[i, i'] c c' (scaled by rows, then by columns, as the
    products B rho B^dag of the isometry B order them).  No 2^N x (N+1)
    matrix is formed, and a density past the cap is refused before its gather.
    """
    if state.rep.kind == "full":
        return state
    rep = full_rep(state.n) if state.is_pure else require_density(full_rep(state.n))
    down = _popcount(state.n)
    c = (1.0 / np.sqrt(np.bincount(down)))[down]
    i = state.n - down
    if state.is_pure:
        return QuantumState(rep, state.data[i] * c, label=state.label)
    rho = state.data[np.ix_(i, i)]
    rho *= c[:, None]
    rho *= c
    return QuantumState(rep, rho, label=state.label)


# ----------------------------------------------------------------------
# state families
# ----------------------------------------------------------------------

# rows: the single-spin states along +axis and -axis
_SINGLE = {"x": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
           "y": np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2),
           "z": np.eye(2, dtype=complex)}


def polarized(n: int, axis: str = "z", rep: Representation | None = None) -> QuantumState:
    """Product state of all spins pointing along +axis; <J_axis> = N/2."""
    rep = rep or symmetric_rep(n)
    if rep.n != n:
        raise ValueError("rep particle number does not match n")
    return QuantumState(rep, _coherent(n, axis, +1, rep), label=f"polarized_{axis}({n})")


def _coherent(n: int, axis: str, sign: int, rep: Representation) -> np.ndarray:
    """All n spins along sign * axis in rep: the Kronecker power of the
    single-spin state, taken left to right, in the full space."""
    if rep.kind == "full":
        return reduce(np.kron, [_SINGLE[axis][int(sign < 0)]] * n)
    return _symmetric_coherent(n, axis, sign)


def _symmetric_coherent(n: int, axis: str, sign: int) -> np.ndarray:
    """All spins along sign * axis, in the ascending-m Dicke basis.

    The binomial weights are evaluated in log space: the binomials
    overflow int64 from N = 68 and 2^(N/2) overflows a double near
    N = 2046.
    """
    if axis == "z":
        v = np.zeros(n + 1, dtype=complex)
        v[-1 if sign > 0 else 0] = 1.0
        return v
    log_fact = np.array([lgamma(k + 1.0) for k in range(n + 1)])
    amp = np.exp(0.5 * (log_fact[n] - log_fact - log_fact[::-1] - n * np.log(2.0)))
    # each flipped spin carries the single-spin amplitude ratio +-1 or +-i
    ratio = complex(sign) if axis == "x" else sign * 1j
    flips = n - np.arange(n + 1)
    v = amp * ratio ** (flips % 4)
    return v / np.linalg.norm(v)


def ghz(n: int, rep: Representation | None = None, axis: str = "x") -> QuantumState:
    """Equal superposition of the two fully polarized states along +-axis.

    With ``axis="z"`` this is the textbook (|00...0> + |11...1>)/sqrt(2);
    the default ``axis="x"`` is the same state conjugated to the x basis,
    which is the convention under which its Fisher information reads
    (N^2, N, N) for generators (J_x, J_y, J_z).
    """
    if n < 2:
        raise ValueError("GHZ needs at least two particles")
    rep = rep or symmetric_rep(n)
    v = _coherent(n, axis, +1, rep) + _coherent(n, axis, -1, rep)
    return QuantumState(rep, v / np.linalg.norm(v), label=f"ghz_{axis}({n})")


def dicke(n: int, m: int, rep: Representation | None = None) -> QuantumState:
    """Symmetric Dicke state with m spins flipped; J_z eigenvalue N/2 - m."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= N, got m={m}, N={n}")
    rep = rep or symmetric_rep(n)
    if rep.n != n:
        raise ValueError("rep particle number does not match n")
    v = np.zeros(n + 1, dtype=complex)
    v[n - m] = 1.0
    st = QuantumState(symmetric_rep(n), v, label=f"dicke({n},{m})")
    return to_full(st) if rep.kind == "full" else st


@lru_cache(maxsize=FULL_DENSITY_MAX // 2)  # one entry per even N <= FULL_DENSITY_MAX
def _singlet_density(n: int) -> np.ndarray:
    # J^2 = sum_l J_l^2 is real (J_y^2 = -R_y^2 for J_y = i R_y); its
    # eigenvalues are J(J+1), J = 0 .. N/2, so the product of 1 - J^2/(j(j+1))
    # over j = 1 .. N/2 keeps the J = 0 subspace only
    # from the unkept ``_factor()``: the cached operators keep no 8 MB factor
    (Rx, _), (Ry, _), (m, _) = (collective_op(a, full_rep(n))._factor() for a in AXES)
    # entry for entry the sum 0 + R_x^2 - R_y^2 + J_z^2 of dense squares:
    # J_z^2 adds m^2 on the diagonal and +0 elsewhere
    J2 = Rx @ Rx
    J2 -= Ry @ Ry
    J2 += np.diag(m * m)
    P = np.eye(2 ** n)
    for j in range(1, n // 2 + 1):
        P = P - (P @ J2) / (j * (j + 1))
    rho = P / np.trace(P)
    rho.flags.writeable = False
    return rho


def singlet_pi(n: int) -> QuantumState:
    """The permutationally invariant zero-total-spin mixed state (full rep).

    The normalised projector onto J = 0, rho = P_0 / Tr P_0 with
    P_0 = prod_{j=1}^{N/2} (1 - J^2 / (j(j+1))); it equals the uniform
    mixture of all pairings of the N spins into two-particle singlets.
    Its rank is the Catalan number C_{N/2} (42 at N = 10).
    """
    if n % 2 != 0:
        raise ValueError("the singlet (J = 0) needs an even particle number")
    rep = require_density(full_rep(n))
    return QuantumState(rep, _singlet_density(n), label=f"singlet({n})")


@dataclass(frozen=True)
class SqueezingSpec:
    """Ground-state squeezing inputs: particle number and field weight."""

    n: int
    lam: float  # Lagrange-multiplier-like weight of the polarizing term

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 2:
            raise ValueError("squeezed ground states are defined for even N >= 2")
        # lam m, |m| <= N/2, fills the parity blocks' diagonal
        if not isfinite(float(self.lam) * self.n):
            raise ValueError(f"the polarizing weight times N must be finite, got lam = {self.lam}")
        if self.lam < 0:
            raise ValueError("the polarizing weight must be nonnegative")


def _parity_blocks(n: int, lams: np.ndarray):
    """J_x^2 - lam J_z as two tridiagonal blocks, even and odd Dicke index.

    J_x^2 couples m only to m +- 2, so the basis vectors of one index
    parity never mix with the other.  Yields (indices, diagonals,
    off-diagonal) per block, built in O(N) from the ladder amplitudes: one
    diagonal row per lam, and the off-diagonal, which lam does not enter,
    once.
    """
    a = ladder_amplitudes(n)                    # <i+1|J_+|i>
    edge = np.zeros(1)
    base = (np.concatenate([edge, a]) ** 2 + np.concatenate([a, edge]) ** 2) / 4.0
    diag = base - lams[:, None] * (np.arange(n + 1) - n / 2.0)
    off = a[:-1] * a[1:] / 4.0                  # <i|J_x^2|i+2>
    for p in (0, 1):
        yield np.arange(p, n + 1, 2), diag[:, p::2], off[p::2]


# lam values solved together: the Noda iteration's arrays hold about this
# many entries each (0.5 MB), whatever the number of points requested
_BATCH_ENTRIES = 1 << 16


def squeezed_ground_states(n: int, lams) -> Iterator[QuantumState]:
    """Ground states of J_x^2 - lam * J_z in the symmetric sector, yielded in
    the order of ``lams``.

    These states minimise Var(J_x) at fixed <J_z> and trace out the optimal
    precision frontier of Ramsey interferometry with collective
    measurements.  Each parity block T (``_parity_blocks``) has positive
    off-diagonals, so its lowest eigenpair is the Perron pair of the
    M-matrix S T S, S = diag((-1)^i), and ``tridiagonal_ground_pairs``
    finds it by Noda iteration on odd-even reduction solves, batched over
    lam: no dense matrix and no LAPACK eigensolver.  Each vector's residual
    |T v - theta v| at its Rayleigh quotient theta is brought to eps ||T||,
    eps the double precision and ||T|| the block's largest Gershgorin row
    sum, the norm LAPACK's tridiagonal tolerances scale by.

    The block with the lower eigenvalue wins; an exact tie goes to the
    block holding m = N/2.  An unreduced tridiagonal block has simple
    eigenvalues, so the ground space is nearly degenerate only when the
    two blocks' lowest eigenvalues are within 1e-12 of the larger of 1 and
    their magnitude; that case warns.  The sign is fixed so that the
    largest entry is positive.  Each state is bit for bit the one a call
    with its lam alone returns.  The lam values are solved in batches of
    bounded size, and the states of a batch are yielded before the next is
    solved.
    """
    specs = [SqueezingSpec(n, lam) for lam in lams]
    lams = np.array([spec.lam for spec in specs], dtype=float)
    step = max(1, _BATCH_ENTRIES // (n // 2 + 1))
    for lo in range(0, lams.size, step):
        chunk = lams[lo:lo + step]
        (idx0, d0, e0), (idx1, d1, e1) = _parity_blocks(n, chunk)
        vals0, vecs0 = tridiagonal_ground_pairs(d0, e0)
        vals1, vecs1 = tridiagonal_ground_pairs(d1, e1)
        for k, lam in enumerate(chunk):
            gap = abs(vals1[k] - vals0[k])
            if gap < 1e-12 * max(abs(vals0[k]), abs(vals1[k]), 1.0):
                warnings.warn(f"nearly degenerate ground space (gap {gap:.2e}); "
                              "returning the lowest-index vector")
            idx, vec = (idx1, vecs1[k]) if vals1[k] < vals0[k] else (idx0, vecs0[k])
            # a real sign keeps the state exactly real
            v = np.zeros(n + 1, dtype=complex)
            v[idx] = vec * np.sign(vec[np.argmax(np.abs(vec))])
            yield QuantumState(symmetric_rep(n), v, label=f"squeezed({n},lam={lam:g})")


def squeezed_ground_state(spec: SqueezingSpec) -> QuantumState:
    """Ground state of J_x^2 - lam * J_z in the symmetric sector: the batch
    of one of ``squeezed_ground_states``, whose docstring gives the method,
    its tolerance and the degeneracy warning."""
    return next(squeezed_ground_states(spec.n, [spec.lam]))


def mix_white_noise(state: QuantumState, p: float) -> QuantumState:
    """p * |psi><psi| + (1-p) * identity/2^N (full representation only)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    if state.rep.kind != "full":
        raise ValueError("white noise admixture needs the full representation "
                         "(the identity term lives in the whole 2^N space)")
    dim = require_density(state.rep).dim
    v = real_if_exact(state.data)
    # a pure state's density is a fresh outer product (real for a real vector), scaled in place
    rho = np.outer(v, v.conj()) if state.is_pure else v
    rho = np.multiply(rho, p, out=rho if state.is_pure else None)
    # the sum with the real (1 - p) I / dim added +0.0 to every entry, which
    # turns each -0.0 into +0.0: the bytes of a written state keep that
    rho += 0.0
    rho.flat[::dim + 1] += (1 - p) / dim
    return QuantumState(state.rep, rho, label=f"{state.label}+noise({p:g})")


def maximally_mixed(rep: Representation) -> QuantumState:
    dim = require_density(rep).dim
    return QuantumState(rep, np.eye(dim) / dim, label="maximally_mixed")
