import numpy as np
import pytest

from qmetro.linalg import eigh_hermitian, psd_sqrt, split_matmul, unitary_exp
from conftest import rand_hermitian


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
    assert np.abs(dec.reconstruct() - M).max() <= 1e-10 * scale
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


def test_split_matmul_matches_complex_product(rng):
    R = [rng.standard_normal((6, 6)) for _ in range(3)]
    C = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    cases = [((R[0] + 0j, R[1]), np.float64),
             ((1j * R[0], R[1]), np.complex128),
             ((1j * R[0], R[1] + 0j, 1j * R[2]), np.float64),
             ((1j * R[0], 1j * R[1], 1j * R[2]), np.complex128),
             ((R[0], C, R[1]), np.complex128)]
    for mats, dtype in cases:
        want = mats[0]
        for M in mats[1:]:
            want = want @ M
        got = split_matmul(*mats)
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= 1e-12
