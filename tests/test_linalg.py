import numpy as np
import pytest

from qmetro.linalg import (_TAYLOR_MAX_STEPS, coupled_indices, eigh_hermitian,
                           hermitian_trace, hermiticity_defect, mmatrix_tridiagonal_solve,
                           psd_sqrt, require_hermitian, tridiagonal_ground_pairs,
                           unitary_apply, unitary_exp)
from qmetro.spin import SYMMETRIC_MAX, direction_op, symmetric_rep
from conftest import rand_density, rand_hermitian


def test_diagonal_matrix():
    dec = eigh_hermitian(np.diag([1.0, 2.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [1, 2])
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))


def test_pauli_x_spectrum():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    dec = eigh_hermitian(sx)
    assert np.allclose(dec.eigenvalues, [-1, 1])


def test_reconstruction_residual(rng):
    M = rand_hermitian(rng, 8)
    dec = eigh_hermitian(M)
    scale = np.abs(M).max()
    assert np.abs(dec.apply_function(lambda w: w) - M).max() <= 1e-10 * scale
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.abs(gram - np.eye(8)).max() <= 1e-10


def test_eigenvalue_sum_is_trace(rng):
    for dim in (2, 7, 33, 64):
        M = rand_hermitian(rng, dim)
        dec = eigh_hermitian(M)
        assert abs(dec.eigenvalues.sum() - np.trace(M).real) <= 1e-10 * max(1, abs(np.trace(M)))


def test_rejects_non_hermitian():
    M = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="asymmetry"):
        eigh_hermitian(M)


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))


def test_psd_sqrt_squares_back(rng):
    G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M = G @ G.conj().T
    R = psd_sqrt(M)
    assert np.abs(R @ R - M).max() <= 1e-9 * np.abs(M).max()


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError, match="not PSD"):
        psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


def test_unitary_exp_identity_at_zero(rng):
    A = rand_hermitian(rng, 5)
    assert np.abs(unitary_exp(A, 0.0) - np.eye(5)).max() <= 1e-12


def test_spin_half_full_turn():
    half_sz = np.diag([0.5, -0.5]).astype(complex)
    U = unitary_exp(half_sz, 2 * np.pi)
    assert np.abs(U + np.eye(2)).max() <= 1e-10


def test_unitarity_and_group_property(rng):
    A = rand_hermitian(rng, 6)
    U = unitary_exp(A, 0.37)
    assert np.abs(U.conj().T @ U - np.eye(6)).max() <= 1e-10
    U1 = unitary_exp(A, 0.2)
    U2 = unitary_exp(A, 0.5)
    assert np.abs(U1 @ U2 - unitary_exp(A, 0.7)).max() <= 1e-9


def test_hermitian_trace_matches_dense_trace(rng):
    B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    S = rng.standard_normal((6, 6))
    d = rng.standard_normal(6)
    hermitian = {"symmetric": ((S + S.T, 0), S + S.T),
                 "imaginary": ((S - S.T, 1), 1j * (S - S.T)),
                 "complex": ((B + B.conj().T, 0), B + B.conj().T),
                 "diagonal": ((d, 0), np.diag(d))}
    others = {"complex": (B, B), "imaginary": ((S, 1), 1j * S), "diagonal": ((d, 2), -np.diag(d))}
    for a, (fa, A) in hermitian.items():
        for b, (fb, Bm) in others.items():
            want = np.trace(A @ Bm)
            assert abs(hermitian_trace(fa, fb) - want) <= 1e-12 * max(1.0, abs(want)), (a, b)


def _with_uncoupled(rng, dim, real):
    """A random density with a random third of its indices uncoupled: their
    rows and columns are zero off the diagonal."""
    rho = rand_density(rng, dim)
    if real:
        rho = rho.real
    off = rng.permutation(dim)[:dim // 3]
    diag = rho[off, off].real
    rho[off, :] = 0.0
    rho[:, off] = 0.0
    rho[off, off] = diag
    return rho / np.trace(rho).real, off


def _assert_matches_lapack(M):
    dec = eigh_hermitian(M)
    V = dec.eigenvectors
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    assert np.abs(dec.eigenvalues - np.linalg.eigvalsh(M)).max() <= 1e-12
    assert np.abs(dec.apply_function(lambda w: w) - M).max() <= 1e-12
    assert np.abs(V.conj().T @ V - np.eye(M.shape[0])).max() <= 1e-12
    assert not (dec.eigenvalues.flags.writeable or V.flags.writeable)
    return dec


@pytest.mark.parametrize("dim", [3, 16, 200, 400])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_eigh_solves_the_coupled_indices_only(rng, monkeypatch, dim, real):
    M, off = _with_uncoupled(rng, dim, real)
    coupled = coupled_indices(M)
    assert not coupled[off].any() and coupled.sum() == dim - off.size
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: shapes.append(A.shape) or eigh(A))
    dec = _assert_matches_lapack(M)
    assert shapes == [(dim - off.size,) * 2]
    assert dec.eigenvectors.dtype == (np.float64 if real else np.complex128)
    # an uncoupled index is the unit eigenvector of its diagonal entry
    for i in off:
        k = np.flatnonzero(dec.eigenvectors[i])
        assert k.size == 1 and dec.eigenvectors[i, k[0]] == 1.0
        assert dec.eigenvalues[k[0]] == M[i, i].real


def test_eigh_of_a_diagonal_density_makes_no_lapack_call(rng, monkeypatch):
    w = rng.random(50)
    M = np.diag(w / w.sum()).astype(complex)
    monkeypatch.setattr(np.linalg, "eigh", lambda A: pytest.fail("LAPACK was called"))
    dec = _assert_matches_lapack(M)
    assert np.array_equal(dec.eigenvalues, np.sort(np.diag(M).real))
    assert dec.eigenvectors.dtype == np.float64


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_eigh_with_every_index_coupled_is_one_lapack_call(rng, real):
    M = rand_density(rng, 300)
    if real:
        M = M.real.copy()
    assert coupled_indices(M).all()
    dec = _assert_matches_lapack(M)
    vals, vecs = np.linalg.eigh(M)
    assert np.array_equal(dec.eigenvalues, vals) and np.array_equal(dec.eigenvectors, vecs)


def _dense_merge_oracle(M):
    """The eigenvectors as eigh_hermitian merged them into one d x d array
    when it kept them dense: the block's LAPACK vectors and the unit vectors
    of the uncoupled indices, in ascending order, uncoupled first at a tie."""
    M = np.asarray(M)
    if np.iscomplexobj(M) and not M.imag.any():
        M = M.real
    coupled = coupled_indices(M)
    if coupled.all():
        return np.linalg.eigh(M)[1]
    c, u = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    block = np.linalg.eigh(M[np.ix_(c, c)]) if c.size else (np.empty(0), None)
    order = np.argsort(np.concatenate([np.diagonal(M).real[u], block[0]]), kind="stable")
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    vecs = np.zeros(M.shape, dtype=complex if np.iscomplexobj(M) else float)
    vecs[u, at[:u.size]] = 1.0
    if c.size:
        vecs[np.ix_(c, at[u.size:])] = block[1]
    return vecs


def test_dense_eigenvectors_are_the_former_merge_bitwise(rng):
    """The block spectrum builds its dense eigenvectors on request, with the
    bits, order and dtype of the former dense merge: white-noise GHZ and
    singlet densities, random densities with uncoupled indices, a diagonal
    one and a fully coupled one, at d <= 64."""
    from qmetro.spin import full_rep
    from qmetro.states import ghz, mix_white_noise, singlet_pi
    cases = [mix_white_noise(ghz(n, full_rep(n)), p).data for n in (2, 4, 6) for p in (0.3, 0.9)]
    cases += [singlet_pi(n).data for n in (2, 4, 6)]
    cases += [_with_uncoupled(rng, dim, real)[0] for dim in (5, 16, 64) for real in (True, False)]
    cases += [np.diag(rng.random(9)).astype(complex), rand_density(rng, 12)]
    for M in cases:
        dec = eigh_hermitian(M)
        V = dec.eigenvectors
        want = _dense_merge_oracle(M)
        assert V.dtype == want.dtype and not V.flags.writeable
        assert np.array_equal(V.view(np.uint64), want.view(np.uint64)), M.shape
        # the block form holds no dense d x d array beside W
        assert dec.block_vectors.shape == (M.shape[0] - dec.uncoupled.size,) * 2


def test_coupling_is_read_from_the_lower_triangle():
    """LAPACK reads the lower triangle; an entry above the diagonal couples
    its pair there too only through its mirror image."""
    M = np.diag([1.0, 2.0, 3.0, 4.0])
    M[3, 1] = M[1, 3] = 0.5
    assert coupled_indices(M).tolist() == [False, True, False, True]
    M[0, 2] = 1e-300   # upper triangle only: not read by LAPACK
    assert coupled_indices(M).tolist() == [False, True, False, True]


def test_hermiticity_checked_across_row_blocks(rng):
    """The check runs by blocks of rows; an asymmetry in the last block of a
    300 x 300 matrix is found, and measured as on the whole matrix."""
    A = rand_hermitian(rng, 300)
    require_hermitian(A)
    A[290, 3] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(A)
    assert hermiticity_defect(A) == np.abs(A - A.conj().T).max() / np.abs(A).max()


def _tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _random_mmatrices(rng, rows, n, e=None):
    """Irreducible symmetric tridiagonal M-matrices: negative off-diagonals
    (``e`` if given) and a diagonal above the row sums, some only slightly."""
    if e is None:
        e = -rng.uniform(0.1, 2.0, (rows, n - 1))
    d = rng.uniform(0.0, 1.0, (rows, n)) * 10.0 ** rng.integers(-6, 1, (rows, 1))
    d[:, 1:] -= e
    d[:, :-1] -= e
    return d, e


@pytest.mark.parametrize("n", [*range(1, 10), 501, 2049])
def test_odd_even_solve_matches_dense_solve(rng, n):
    rows = 3
    d, e = _random_mmatrices(rng, rows, n)
    f = rng.uniform(0.0, 1.0, (rows, n))
    x = mmatrix_tridiagonal_solve(d, e, f)
    # a shared off-diagonal row broadcasts over the batch
    d_shared, e_shared = _random_mmatrices(rng, rows, n, e[:1])
    shared = mmatrix_tridiagonal_solve(d_shared, e_shared, f)
    eps = np.finfo(float).eps
    for b in range(rows):
        for got, T in ((x[b], _tridiagonal(d[b], e[b])),
                       (shared[b], _tridiagonal(d_shared[b], e_shared[0]))):
            want = np.linalg.solve(T, f[b])
            norm = np.abs(T).sum(axis=1).max()
            # the inverse of an M-matrix is nonnegative: |T^-1|_inf = max T^-1 1
            cond = norm * np.linalg.solve(T, np.ones(n)).max()
            # backward stable, and forward error within the conditioning
            assert np.abs(T @ got - f[b]).max() <= 16 * eps * (norm * np.abs(got).max() + 1.0)
            assert np.abs(got - want).max() <= 16 * eps * cond * np.abs(want).max(), b
            # so a nonnegative right-hand side gives a nonnegative solution
            assert (got >= 0).all()


def test_ground_pairs_match_dense_eigh(rng):
    for n in (1, 2, 3, 8, 65):
        e = rng.uniform(0.1, 2.0, n - 1)
        d = rng.normal(size=(4, n)) * 3.0
        vals, vecs = tridiagonal_ground_pairs(d, e)
        for b in range(4):
            T = _tridiagonal(d[b], e)
            w, V = np.linalg.eigh(T)
            norm = np.abs(T).sum(axis=1).max()
            assert abs(vals[b] - w[0]) <= 16 * np.finfo(float).eps * norm
            assert abs(np.vdot(V[:, 0], vecs[b])) ** 2 >= 1 - 1e-12
            assert np.linalg.norm(T @ vecs[b] - vals[b] * vecs[b]) <= 16 * np.finfo(float).eps * norm
            # alternating signs, first entry positive
            assert (vecs[b] * (-1.0) ** np.arange(n) > 0).all()


def test_ground_pair_batch_rows_are_their_single_solves(rng):
    n = 300
    e = rng.uniform(0.1, 2.0, n - 1)
    d = rng.normal(size=(7, n)) * 10.0 ** np.arange(-3, 4)[:, None]
    vals, vecs = tridiagonal_ground_pairs(d, e)
    for b in range(7):
        one_val, one_vec = tridiagonal_ground_pairs(d[b:b + 1], e)
        assert one_val[0] == vals[b] and np.array_equal(one_vec[0], vecs[b])


def test_ground_pairs_refuse_a_reducible_matrix():
    with pytest.raises(ValueError, match="off-diagonal must be positive"):
        tridiagonal_ground_pairs(np.zeros((1, 3)), np.array([1.0, 0.0]))


@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
def test_unitary_apply_refuses_a_non_finite_angle(theta):
    # ceil(|theta| ||A||) Taylor steps: inf overflows the count and NaN has none
    with pytest.raises(ValueError, match="angle must be finite, got"):
        unitary_apply(np.diag([0.5, -0.5]), theta, np.array([1.0, 0.0]))


def test_unitary_apply_step_budget():
    # every turn of up to 4 pi about a unit direction fits at the largest
    # symmetric N: the 1-norm of a unit J_n is at most sqrt(j(j+1))
    rep = symmetric_rep(SYMMETRIC_MAX)
    for n_vec in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], np.ones(3) / np.sqrt(3.0)):
        assert 4 * np.pi * direction_op(np.asarray(n_vec), rep).norm_bound() <= _TAYLOR_MAX_STEPS
    # the 1-norm is 0.5, so theta = 2 * budget is the last angle that runs
    A, v = np.diag([0.5, -0.5]), np.array([1.0, 0.0])
    with pytest.raises(ValueError, match=r"theta = 1e\+300 needs 5e\+299 Taylor steps"):
        unitary_apply(A, 1e300, v)
    with pytest.raises(ValueError, match="more than the budget of 50000"):
        unitary_apply(A, np.nextafter(2.0 * _TAYLOR_MAX_STEPS, np.inf), v)
    assert unitary_apply(A, 4 * np.pi, v) == pytest.approx(np.exp(-2j * np.pi) * v, abs=1e-12)
