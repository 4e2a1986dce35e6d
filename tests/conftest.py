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


def ghz_dicke_density(n):
    """0.5 GHZ + 0.5 Dicke |N/2, 0> in the symmetric sector of n spins, as a
    QuantumState: its odd indices are uncoupled, its even ones one block."""
    from qmetro.spin import symmetric_rep
    from qmetro.states import QuantumState, dicke, ghz
    rep = symmetric_rep(n)
    g, d = ghz(n, rep).data.real, dicke(n, n // 2, rep).data.real
    return QuantumState(rep, 0.5 * np.outer(g, g) + 0.5 * np.outer(d, d))


def roof_objective(lam, B, K):
    """g(x) = sum_k m_k^2 / p_k over the K-state decompositions of rho, and its
    gradient in x = (Re X, Im X), X a K x r matrix.

    Y = X (X^dag X)^{-1/2} is the polar retraction of X onto the isometries
    Y^dag Y = 1, the rows y_k of Y give psi~_k = sum_i sqrt(l_i) y_ki |i> on
    the support of rho (eigenvalues lam), m_k = y_k^dag B y_k with
    B = sqrt(L) A sqrt(L) and p_k = y_k^dag L y_k.  The average variance is
    <A^2> - g.  The Wirtinger gradient dg/d conj(Y) passes back through the
    retraction with the Daleckii-Krein derivative of S^{-1/2}, whose divided
    differences are -1 / (s_a s_b (s_a + s_b)) for s = sqrt(eig S).
    """
    r = lam.size

    def g_and_grad(x):
        X = x[: K * r].reshape(K, r) + 1j * x[K * r:].reshape(K, r)
        w, Q = np.linalg.eigh(X.conj().T @ X)
        s = np.sqrt(np.maximum(w, 1e-30))
        R = (Q / s) @ Q.conj().T
        Y = X @ R
        BY = Y @ B.T  # row k is (B y_k)^T
        m = np.einsum("ki,ki->k", Y.conj(), BY).real
        p = np.abs(Y) ** 2 @ lam
        q = np.zeros(K)  # m_k / p_k; a state of vanishing weight adds nothing
        ok = p > 1e-14
        q[ok] = m[ok] / p[ok]
        G = 2.0 * q[:, None] * BY - (q ** 2)[:, None] * (Y * lam)  # dg / d conj(Y)
        Gamma = -1.0 / (s[:, None] * s[None, :] * (s[:, None] + s[None, :]))
        N = Q @ (Gamma * (Q.conj().T @ (X.conj().T @ G) @ Q)) @ Q.conj().T
        GX = G @ R + X @ (N + N.conj().T)  # dg / d conj(X)
        return float(np.sum(q * m)), 2.0 * np.concatenate([GX.real.ravel(), GX.imag.ravel()])

    return g_and_grad


def roof_search(rho, A, roof):
    """The multi-start local search for the convex ("convex") or concave
    ("concave") roof of the variance: the best average variance that
    L-BFGS-B finds over decompositions into r^2 states (r = rank rho), from
    32 seeded random starts.  The oracle of ``fisher.convex_roof_oracle`` and
    ``fisher.concave_roof_oracle``, which construct the optimum exactly."""
    import scipy.optimize  # only this oracle needs SciPy; the other tests run without it
    l, V = np.linalg.eigh(rho)
    keep = l > 1e-12
    lam, Vs = l[keep], V[:, keep]
    root = np.sqrt(lam)
    B = root[:, None] * (Vs.conj().T @ A @ Vs) * root
    r = lam.size
    K = r * r
    g_and_grad = roof_objective(lam, B, K)
    sign = -1.0 if roof == "convex" else 1.0  # the convex roof maximises g

    def cost(x):
        g, grad = g_and_grad(x)
        return sign * g, sign * grad

    rng = np.random.default_rng(7)
    best = min((scipy.optimize.minimize(cost, rng.standard_normal(2 * K * r), jac=True,
                                        method="L-BFGS-B",
                                        options={"maxiter": 400, "ftol": 1e-14,
                                                 "gtol": 1e-12})
                for _ in range(32)), key=lambda res: res.fun)
    t2 = float(np.real(np.trace(A @ A @ rho)))
    return t2 - sign * best.fun
