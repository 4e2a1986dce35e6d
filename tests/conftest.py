import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand_hermitian(rng, dim):
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (X + X.conj().T) / 2.0


def rand_density(rng, dim, rank=None):
    rank = rank or dim
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def rand_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rand_unitary(rng, dim):
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(X)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def dicke_isometry(n):
    """The dense 2^n x (n+1) isometry B from the symmetric sector into the
    full space: column i is the Dicke state with n - i spins down (one bits).
    The oracle of ``states.to_full``, which embeds by index instead."""
    bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    B = np.zeros((2 ** n, n + 1), dtype=complex)
    for i in range(n + 1):
        mask = bits == n - i
        B[mask, i] = 1.0 / np.sqrt(mask.sum())
    return B
