import numpy as np
import pytest

from qmetro.linalg import (_TAYLOR_MAX_STEPS, coupled_indices, eigh_hermitian,
                           hermitian_trace, hermiticity_defect, mmatrix_tridiagonal_solve,
                           psd_sqrt, require_hermitian, tridiagonal_ground_pairs,
                           unitary_apply, unitary_exp)
from qmetro.spin import SYMMETRIC_MAX, direction_op, symmetric_rep
from conftest import ghz_dicke_density, rand_density, rand_hermitian


def test_diagonal_matrix():
    dec = eigh_hermitian(np.diag([1.0, 2.0]).astype(complex))
    assert np.allclose(np.sort(dec.values), [1, 2])
    assert np.allclose(np.abs(dec.columns()), np.eye(2))


def test_pauli_x_spectrum():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    dec = eigh_hermitian(sx)
    assert np.allclose(np.sort(dec.values), [-1, 1])


def test_reconstruction_residual(rng):
    M = rand_hermitian(rng, 8)
    dec = eigh_hermitian(M)
    scale = np.abs(M).max()
    assert np.abs(dec.sandwich(dec.values) - M).max() <= 1e-10 * scale
    gram = dec.columns().conj().T @ dec.columns()
    assert np.abs(gram - np.eye(8)).max() <= 1e-10


def test_eigenvalue_sum_is_trace(rng):
    for dim in (2, 7, 33, 64):
        M = rand_hermitian(rng, dim)
        dec = eigh_hermitian(M)
        assert abs(dec.values.sum() - np.trace(M).real) <= 1e-10 * max(1, abs(np.trace(M)))


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
    V = dec.columns()
    assert np.abs(np.sort(dec.values) - np.linalg.eigvalsh(M)).max() <= 1e-12
    assert np.abs(dec.sandwich(dec.values) - M).max() <= 1e-12
    assert np.abs(V.conj().T @ V - np.eye(M.shape[0])).max() <= 1e-12
    assert not (dec.values.flags.writeable or dec.block_vectors.flags.writeable)
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
    V = dec.columns()
    assert V.dtype == (np.float64 if real else np.complex128)
    # an uncoupled index is the unit eigenvector of its diagonal entry
    for i in off:
        k = np.flatnonzero(V[i])
        assert k.size == 1 and V[i, k[0]] == 1.0
        assert dec.values[k[0]] == M[i, i].real


def test_eigh_of_a_diagonal_density_makes_no_lapack_call(rng, monkeypatch):
    w = rng.random(50)
    M = np.diag(w / w.sum()).astype(complex)
    monkeypatch.setattr(np.linalg, "eigh", lambda A: pytest.fail("LAPACK was called"))
    dec = _assert_matches_lapack(M)
    assert np.array_equal(np.sort(dec.values), np.sort(np.diag(M).real))
    assert dec.columns().dtype == np.float64


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_eigh_with_every_index_coupled_is_one_lapack_call(rng, real):
    M = rand_density(rng, 300)
    if real:
        M = M.real.copy()
    assert coupled_indices(M).all()
    dec = _assert_matches_lapack(M)
    vals, vecs = np.linalg.eigh(M)
    assert np.array_equal(dec.values, vals) and np.array_equal(dec.columns(), vecs)


def _dense_merge_oracle(M):
    """The eigenvalues and eigenvectors as eigh_hermitian merged them into one
    d x d array when it kept them dense: the block's LAPACK vectors and the
    unit vectors of the uncoupled indices, in ascending order, uncoupled
    first at a tie."""
    M = np.asarray(M)
    if np.iscomplexobj(M) and not M.imag.any():
        M = M.real
    coupled = coupled_indices(M)
    if coupled.all():
        return np.linalg.eigh(M)
    c, u = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    block = np.linalg.eigh(M[np.ix_(c, c)]) if c.size else (np.empty(0), None)
    values = np.concatenate([np.diagonal(M).real[u], block[0]])
    order = np.argsort(values, kind="stable")
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    vecs = np.zeros(M.shape, dtype=complex if np.iscomplexobj(M) else float)
    vecs[u, at[:u.size]] = 1.0
    if c.size:
        vecs[np.ix_(c, at[u.size:])] = block[1]
    return values[order], vecs


def _former_merge_cases(rng):
    """White-noise GHZ and singlet densities, random densities with uncoupled
    indices, a diagonal one and a fully coupled one, at d <= 64."""
    from qmetro.spin import full_rep
    from qmetro.states import ghz, mix_white_noise, singlet_pi
    cases = [mix_white_noise(ghz(n, full_rep(n)), p).data for n in (2, 4, 6) for p in (0.3, 0.9)]
    cases += [singlet_pi(n).data for n in (2, 4, 6)]
    cases += [_with_uncoupled(rng, dim, real)[0] for dim in (5, 16, 64) for real in (True, False)]
    return cases + [np.diag(rng.random(9)).astype(complex), rand_density(rng, 12)]


def _assert_close(got, want, tol=1e-12):
    """Within tol relative to the largest entry of want (or 1)."""
    assert np.abs(got - want).max() <= tol * max(np.abs(want).max(), 1.0)


def test_sandwich_is_v_x_v_dagger_of_the_former_merge(rng):
    """sandwich(X) = V X V^dag, V the eigenvectors of the former dense merge
    taken back to block order, for random 1-D and 2-D, real and complex X;
    the block form holds no dense d x d array beside W."""
    for M in _former_merge_cases(rng):
        dec, d = eigh_hermitian(M), M.shape[0]
        V = _block_order(dec, _dense_merge_oracle(M)[1])
        for X in (rng.standard_normal(d), rng.standard_normal(d) + 1j * rng.standard_normal(d),
                  rng.standard_normal((d, d)),
                  rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))):
            want = (V * X) @ V.conj().T if X.ndim == 1 else V @ X @ V.conj().T
            got = dec.sandwich(X)
            assert got.dtype == np.result_type(V, X), M.shape
            _assert_close(got, want)
        assert dec.block_vectors.shape == (d - dec.uncoupled.size,) * 2


def _block_order(dec, V_sorted):
    """The merged eigenvectors (ascending, uncoupled first at a tie) in the
    order of dec.values, where the stable sort of the values put them."""
    V = np.empty_like(V_sorted)
    V[:, np.argsort(dec.values, kind="stable")] = V_sorted
    return V


def test_block_consumers_match_the_former_merge(rng):
    """psd_sqrt, unitary_exp, bures_fidelity, wigner_yanase and sld from the
    block form against the same formulas on the former dense merge, within
    1e-12 of the largest entry (or 1): every case of the merge test, with
    real, purely imaginary and complex generators, and the symmetric N = 1000
    density with J_x and J_y."""
    from qmetro.config import QFI_PAIR_FLOOR
    from qmetro.fisher import bures_fidelity, sld, wigner_yanase
    from qmetro.linalg import rank_floor_sqrt
    from qmetro.spin import collective_op

    def generators(dim):
        S = rng.standard_normal((dim, dim))
        return [S + S.T, 1j * (S - S.T), rand_hermitian(rng, dim)]

    sym = ghz_dicke_density(1000)
    cases = [(M, generators(M.shape[0])) for M in _former_merge_cases(rng)]
    cases.append((sym.data, [collective_op(a, sym.rep) for a in "xy"]))
    for M, ops in cases:
        dim = M.shape[0]
        lam, V = _dense_merge_oracle(M)
        Vh = V.conj().T
        root = (V * rank_floor_sqrt(lam)) @ Vh
        _assert_close(psd_sqrt(M), root)
        _assert_close(unitary_exp(M, 0.3), (V * np.exp(-0.3j * lam)) @ Vh)
        other = rand_density(rng, dim)
        X = root @ other @ root
        fid = np.sum(rank_floor_sqrt(np.linalg.eigvalsh((X + X.conj().T) / 2.0))) ** 2
        assert abs(bures_fidelity(M, other) - fid) <= 1e-12
        total = lam[:, None] + lam
        keep = total >= QFI_PAIR_FLOOR
        w = np.where(keep, (lam[:, None] - lam) / np.where(keep, total, 1.0), 0.0)
        for A in ops:
            D = A.matrix if hasattr(A, "matrix") else A
            _assert_close(sld(M, A), V @ (2j * w * (Vh @ D @ V)) @ Vh)
            wy = np.trace(D @ D @ M).real - np.trace(D @ root @ D @ root).real
            assert abs(wigner_yanase(M, A) - wy) <= 1e-12 * max(abs(wy), 1.0)


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


def test_the_spectrum_of_a_state_repeats_no_scan(monkeypatch):
    """A QuantumState's spectrum reuses the Hermiticity check and coupled-index
    mask of its construction: no scan of the payload runs again, and the
    spectrum is bit for bit that of the bare matrix, which takes both scans."""
    import qmetro.linalg
    from qmetro.fisher import _eigensystem
    from qmetro.spin import full_rep
    from qmetro.states import ghz, mix_white_noise
    st = mix_white_noise(ghz(6, full_rep(6)), 0.6)
    calls = []
    for name in ("require_hermitian", "coupled_indices"):
        original = getattr(qmetro.linalg, name)
        monkeypatch.setattr(qmetro.linalg, name, lambda *a, _f=original, _n=name:
                            calls.append(_n) or _f(*a))
    dec = _eigensystem(st, st.data)
    assert calls == []
    bare = eigh_hermitian(st.data)
    assert calls == ["require_hermitian", "coupled_indices"]
    for a, b in ((dec.uncoupled, bare.uncoupled), (dec.coupled, bare.coupled),
                 (dec.values, bare.values), (dec.block_vectors, bare.block_vectors)):
        assert a.tobytes() == b.tobytes()
