import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmetro

from qmetro.config import FD_STEP
from qmetro.fisher import (Povm, bures_fidelity, classical_fisher,
                           concave_roof_oracle, convex_roof_oracle, crb_matrix,
                           fisher_matrix, mandelstam_tamm_check, qfi,
                           qfi_alternative, roof_sandwich_check, sld,
                           sld_trace, white_noise_qfi, wigner_yanase, zeno_interval,
                           zeno_time)
from qmetro.spin import collective_op, full_rep, gradient_op, parity_op, symmetric_rep
from qmetro.states import (QuantumState, dicke, ghz, maximally_mixed,
                           mix_white_noise, polarized, rotate, singlet_pi)
from conftest import (ghz_dicke_density, rand_density, rand_hermitian, rand_pure,
                      rand_unitary, roof_objective)


# ----------------------------------------------------------------- qfi

def test_qfi_ghz_and_mixed():
    g = ghz(3)
    assert qfi(g, collective_op("x", g.rep)).value == pytest.approx(9.0, abs=1e-9)
    mm = maximally_mixed(symmetric_rep(3))
    assert qfi(mm, collective_op("x", mm.rep)).value <= 1e-12


def test_qfi_polarized_equals_4var():
    st = polarized(4, "z")
    J = collective_op("y", st.rep)
    assert qfi(st, J).value == pytest.approx(4.0, abs=1e-9)
    assert qfi(st, J).value == pytest.approx(4 * st.variance(J), abs=1e-9)


def test_qfi_pure_examples():
    d = dicke(4, 2)
    assert qfi(d, collective_op("x", d.rep)).value == pytest.approx(12.0, abs=1e-9)
    # an eigenstate of the generator carries no phase information
    st = polarized(5, "z")
    assert qfi(st, collective_op("z", st.rep)).value == pytest.approx(0.0, abs=1e-12)
    g = ghz(6)
    assert qfi(g, collective_op("z", g.rep)).value == pytest.approx(6.0, abs=1e-9)


def test_qfi_rep_mismatch_rejected():
    st = polarized(3, "z", symmetric_rep(3))
    with pytest.raises(ValueError, match="mismatch"):
        qfi(st, collective_op("x", full_rep(3)))


@pytest.mark.parametrize("call", [
    lambda st, J: white_noise_qfi(st, J, 0.5),
    lambda st, J: convex_roof_oracle(st, J),
    lambda st, J: concave_roof_oracle(st, J),
    lambda st, J: roof_sandwich_check(st, J, np.array([1.0]), st.data[:, None]),
], ids=["white_noise_qfi", "convex_roof_oracle", "concave_roof_oracle",
        "roof_sandwich_check"])
def test_rep_mismatch_of_equal_dimension_rejected(call):
    # symmetric N = 3 and full N = 2 both have dimension 4
    st = polarized(3, "x", symmetric_rep(3))
    with pytest.raises(ValueError, match="representation mismatch"):
        call(st, collective_op("z", full_rep(2)))


def test_fisher_matrix_refuses_a_generator_of_another_representation():
    """A full N = 2 GHZ state and the symmetric N = 3 J_x both have dimension
    4: the Fisher matrix read [[3.]] where qfi refused the pair."""
    st = ghz(2, full_rep(2))
    other = collective_op("x", symmetric_rep(3))
    with pytest.raises(ValueError, match="representation mismatch"):
        fisher_matrix(st, [other])
    with pytest.raises(ValueError, match="representation mismatch"):
        fisher_matrix(st, [collective_op("x", st.rep), other])
    assert fisher_matrix(st.data, [other]).matrix[0, 0] == pytest.approx(3.0)


def test_bures_fidelity_refuses_states_of_different_representations():
    """A full N = 2 and a symmetric N = 3 GHZ state both have dimension 4:
    their fidelity read 0.125.  Bare arrays keep the dimension check alone."""
    full, sym = ghz(2, full_rep(2)), ghz(3)
    for a, b in ((full, sym), (sym, full), (mix_white_noise(full, 0.5), sym)):
        with pytest.raises(ValueError, match="representation mismatch"):
            bures_fidelity(a, b)
    assert bures_fidelity(full.data, sym.data) == pytest.approx(0.125)
    with pytest.raises(ValueError, match="dimension mismatch"):
        bures_fidelity(full.data, ghz(4).data)


def test_alternative_form_agrees(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        rho = rand_density(rng, dim)
        A = rand_hermitian(rng, dim)
        assert qfi(rho, A).value == pytest.approx(qfi_alternative(rho, A), abs=1e-9)
    psi = rand_pure(rng, 8)
    A = rand_hermitian(rng, 8)
    var = np.real(np.vdot(psi, A @ A @ psi)) - np.real(np.vdot(psi, A @ psi)) ** 2
    assert qfi_alternative(psi, A) == pytest.approx(4 * var, abs=1e-9)


def test_qfi_upper_bounds(rng):
    # F_Q <= 4 Var and F_Q[rho, J_l] <= N^2 - 4 <J_l>^2
    n = 5
    rep = full_rep(n)
    J = collective_op("z", rep)
    for _ in range(30):
        rho = rand_density(rng, 2 ** n, rank=int(rng.integers(1, 5)))
        st = QuantumState(rep, rho)
        F = qfi(st, J).value
        assert F <= 4 * st.variance(J) + 1e-8
        assert F <= n ** 2 - 4 * st.expectation(J) ** 2 + 1e-6


def test_q_body_scaling_bound(rng):
    n = 6
    rep = symmetric_rep(n)
    Jx = collective_op("x", rep).matrix
    for q in (1, 2, 3):
        A = np.linalg.matrix_power(Jx, q)
        for _ in range(10):
            rho = rand_density(rng, n + 1)
            assert qfi(rho, A).value <= 4 * (n / 2) ** (2 * q) + 1e-6


# ----------------------------------------------------------------- sld

def test_sld_acts_as_2jx_on_polarized_support():
    st = polarized(4, "z")
    Jy = collective_op("y", st.rep)
    Jx = collective_op("x", st.rep).matrix
    L = sld(st, Jy)
    assert np.abs(L @ st.data - 2 * Jx @ st.data).max() <= 1e-9


def test_sld_pure_commutator_form(rng):
    psi = rand_pure(rng, 6)
    A = rand_hermitian(rng, 6)
    proj = np.outer(psi, psi.conj())
    assert np.abs(sld(psi, A) - 2j * (proj @ A - A @ proj)).max() <= 1e-10


def test_sld_identities(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 10))
        rho = rand_density(rng, dim)
        A = rand_hermitian(rng, dim)
        L = sld(rho, A)
        lhs = (L @ rho + rho @ L) / 2
        rhs = 1j * (rho @ A - A @ rho)
        assert np.abs(lhs - rhs).max() <= 1e-8
        assert np.trace(rho @ L @ L).real == pytest.approx(qfi(rho, A).value, abs=1e-8)
        assert abs(np.trace(rho @ L)) <= 1e-9


# ------------------------------------------------- classical Fisher

def test_identity_povm_gives_zero():
    st = polarized(3, "z")
    Jy = collective_op("y", st.rep)
    povm = Povm([np.eye(st.rep.dim, dtype=complex)])
    F = classical_fisher(st, Jy, povm)
    assert F.value <= 1e-12


def test_sld_basis_is_optimal_ramsey():
    st = polarized(4, "z")
    Jy = collective_op("y", st.rep)
    povm = Povm.from_observable_eigenbasis(sld(st, Jy))
    F = classical_fisher(st, Jy, povm)
    assert F.value == pytest.approx(4.0, rel=1e-12)


def test_populations_blind_to_ghz_phase():
    g = ghz(3, axis="z")
    Jz = collective_op("z", g.rep)
    povm = Povm.from_observable_eigenbasis(Jz)
    F = classical_fisher(g, Jz, povm)
    assert F.value <= 1e-12


def test_parity_basis_reaches_heisenberg_at_origin():
    g = ghz(4, axis="z")
    Jz = collective_op("z", g.rep)
    povm = Povm.from_observable_eigenbasis(parity_op("x", g.rep))
    F = classical_fisher(g, Jz, povm)
    assert F.value == pytest.approx(16.0, rel=1e-12)


def test_zero_probability_outcome_takes_the_exact_limit():
    """|1, 1> read out by J_z counting about J_y: m = 0 and m = -1 have zero
    probability, and the limit 4 |<0|J_y|1>|^2 = 2 of m = 0 is the whole
    information; m = -1 adds nothing and is no boundary outcome."""
    st = polarized(2, "z")
    Jy = collective_op("y", st.rep)
    F = classical_fisher(st, Jy, Povm.from_observable_eigenbasis(collective_op("z", st.rep)))
    assert abs(F.value - 2.0) <= 1e-14
    assert F.boundary_outcomes == [1]


def _rand_povm(rng, dim, outcomes):
    """Elements S^-1/2 G_k S^-1/2 of random PSD G_k, S = sum G_k: the first of
    full rank, so that S is invertible, the others of random rank."""
    G = []
    for k in range(outcomes):
        X = rng.standard_normal((dim, int(rng.integers(1, dim + 1)) if k else dim))
        X = X + 1j * rng.standard_normal(X.shape)
        G.append(X @ X.conj().T)
    w, V = np.linalg.eigh(sum(G))
    T = (V / np.sqrt(w)) @ V.conj().T
    return [(E + E.conj().T) / 2.0 for E in (T @ g @ T for g in G)]


def _column_probabilities(povm, rho):
    """p_k = sum b^dag rho b over the columns b of outcome k."""
    B = povm.columns
    return np.bincount(povm.outcomes, np.real(np.sum(B.conj() * (rho @ B), axis=0)),
                       minlength=len(povm))


def _fd_fisher(rho, A, elements, theta0):
    """sum_k (dp_k/dtheta)^2 / p_k with dp_k by central differences of
    Tr(E_k rho(theta)), step FD_STEP, on the dense exp(-i theta A): the oracle
    of the closed form."""
    w, V = np.linalg.eigh(A)

    def probabilities(theta):
        U = (V * np.exp(-1j * theta * w)) @ V.conj().T
        r = U @ rho @ U.conj().T
        return np.array([np.trace(E @ r).real for E in elements])

    dp = (probabilities(theta0 + FD_STEP) - probabilities(theta0 - FD_STEP)) / (2 * FD_STEP)
    return float(np.sum(dp ** 2 / probabilities(theta0)))


@pytest.mark.parametrize("theta0", [0.0, 0.37])
def test_closed_form_matches_central_differences(rng, theta0):
    for _ in range(30):
        dim = int(rng.integers(2, 17))
        A = rand_hermitian(rng, dim)
        if rng.integers(2):
            U = rand_unitary(rng, dim)
            povm, elements = Povm.projective(U), [np.outer(u, u.conj()) for u in U.T]
        else:
            elements = _rand_povm(rng, dim, int(rng.integers(2, 6)))
            povm = Povm(elements)
        for state in (rand_pure(rng, dim), rand_density(rng, dim)):
            rho = np.outer(state, state.conj()) if state.ndim == 1 else state
            got = classical_fisher(state, A, povm, theta0).value
            assert got == pytest.approx(_fd_fisher(rho, A, elements, theta0), rel=1e-7)
            assert got <= qfi(state, A).value + 1e-9


def test_column_probabilities_are_the_element_traces(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 17))
        elements = _rand_povm(rng, dim, int(rng.integers(2, 6)))
        rho = rand_density(rng, dim)
        want = [np.trace(E @ rho).real for E in elements]
        assert np.abs(_column_probabilities(Povm(elements), rho) - want).max() <= 1e-14


@pytest.mark.parametrize("theta", [0.0, 1e-3, 0.05])
def test_jz_counting_reaches_the_qfi_of_a_large_dicke_state(theta):
    """|N/2, 0> at N = 1000 turned about J_y and read out by J_z counting: F_C
    equals F_Q = 4 Var(J_y) = N(N+2)/2, the readout kept as the N + 1 basis
    columns (the dense elements would take 16 GB)."""
    n = 1000
    st = dicke(n, n // 2)
    Jy = collective_op("y", st.rep)
    povm = Povm.projective(np.eye(n + 1))
    assert povm.columns.size <= (n + 1) ** 2
    FQ = qfi(st, Jy).value
    assert FQ == pytest.approx(n * (n + 2) / 2, rel=1e-12)
    assert abs(classical_fisher(st, Jy, povm, theta).value / FQ - 1.0) <= 1e-12


def test_povm_validation():
    with pytest.raises(ValueError, match="identity"):
        Povm([np.eye(2, dtype=complex) * 0.5])
    with pytest.raises(ValueError, match="PSD"):
        Povm([np.diag([2.0, 1.0]).astype(complex),
              np.diag([-1.0, 0.0]).astype(complex)])
    with pytest.raises(ValueError, match="Hermitian"):
        Povm([np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]])])
    with pytest.raises(ValueError, match="identity"):
        Povm.projective(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("pure", [True, False], ids=["vector", "density"])
def test_classical_fisher_refuses_a_povm_of_another_dimension(pure):
    st = dicke(4, 2) if pure else maximally_mixed(symmetric_rep(4))
    povm = Povm.projective(np.eye(4))
    with pytest.raises(ValueError, match="POVM dimension 4 does not match state dimension 5"):
        classical_fisher(st, collective_op("y", st.rep), povm)


# ------------------------------------------------- fisher matrix

def test_single_generator_matrix_matches_qfi(rng):
    rho = rand_density(rng, 6)
    A = rand_hermitian(rng, 6)
    fm = fisher_matrix(rho, [A])
    assert fm.matrix.shape == (1, 1)
    assert fm.matrix[0, 0] == pytest.approx(qfi(rho, A).value, abs=1e-9)


def test_qfi_against_direct_sum(rng):
    # independent of fisher_matrix: explicit double loop over eigenpairs,
    # on full-rank and rank-deficient densities
    for rank in (5, 2):
        dim = 5
        rho = rand_density(rng, dim, rank)
        A = rand_hermitian(rng, dim)
        w, V = np.linalg.eigh(rho)
        At = V.conj().T @ A @ V
        ref, dropped = 0.0, 0
        for k in range(dim):
            for l in range(dim):
                if w[k] + w[l] < 1e-12:
                    dropped += 1
                    continue
                ref += 2 * (w[k] - w[l]) ** 2 / (w[k] + w[l]) * abs(At[k, l]) ** 2
        res = qfi(rho, A)
        assert res.value == pytest.approx(ref, abs=1e-9)
        assert res.skipped_pairs == dropped == (dim - rank) ** 2


def test_second_moment_forms_against_explicit_traces(rng):
    import scipy.linalg
    for _ in range(3):
        # full rank: sqrtm is accurate only away from a singular spectrum
        rho = rand_density(rng, 6)
        A = rand_hermitian(rng, 6)
        second = np.trace(A @ A @ rho).real
        R = scipy.linalg.sqrtm(rho)
        skew = second - np.trace(A @ R @ A @ R).real
        assert wigner_yanase(rho, A) == pytest.approx(skew, abs=1e-9)
        assert qfi_alternative(rho, A) == pytest.approx(qfi(rho, A).value, abs=1e-9)
        w, V = np.linalg.eigh(rho)
        var = second - np.trace(A @ rho).real ** 2
        assert roof_sandwich_check(rho, A, w, V).upper == pytest.approx(var, abs=1e-9)


def test_state_payload_is_read_only_view(rng):
    rho = rand_density(rng, 4)
    st = QuantumState(full_rep(2), rho)
    assert not st.data.flags.writeable
    assert np.shares_memory(st.data, rho)  # no copy
    assert rho.flags.writeable             # the caller's array is untouched
    with pytest.raises(ValueError):
        st.data[0, 0] = 0.0


def test_one_eigensolve_per_state(rng, monkeypatch):
    import qmetro.fisher
    calls = []
    original = qmetro.fisher.eigh_hermitian

    def counted(M, *args, **kwargs):
        calls.append(M.shape)
        return original(M, *args, **kwargs)

    monkeypatch.setattr(qmetro.fisher, "eigh_hermitian", counted)
    st = mix_white_noise(ghz(3, full_rep(3)), 0.6)
    gens = [collective_op(a, st.rep) for a in "xyz"]
    values = []
    for _ in range(2):
        values.append(qfi(st, gens[0]).value)
        sld(st, gens[1])
        wigner_yanase(st, gens[2])
        qfi_alternative(st, gens[0])
        fisher_matrix(st, gens)
        zeno_time(st, gens[1])
    assert len(calls) == 1
    assert values[0] == values[1]
    # bare arrays carry no memo: one eigensolve per call
    rho = st.density().copy()
    qfi(rho, gens[0].matrix)
    qfi(rho, gens[0].matrix)
    assert len(calls) == 3


def test_ghz_fisher_matrix_diagonal():
    g = ghz(3)
    gens = [collective_op(a, g.rep) for a in "xyz"]
    fm = fisher_matrix(g, gens)
    assert np.allclose(np.diag(fm.matrix), [9.0, 3.0, 3.0], atol=1e-9)
    off = fm.matrix - np.diag(np.diag(fm.matrix))
    assert np.abs(off).max() <= 1e-9


def test_fisher_matrix_against_direct_sum(rng):
    # independent reimplementation: explicit double loop over eigenpairs
    for _ in range(5):
        dim = 5
        rho = rand_density(rng, dim)
        ops = [rand_hermitian(rng, dim) for _ in range(3)]
        w, V = np.linalg.eigh(rho)
        ref = np.zeros((3, 3))
        for m in range(3):
            for n in range(3):
                Am = V.conj().T @ ops[m] @ V
                An = V.conj().T @ ops[n] @ V
                acc = 0.0
                for k in range(dim):
                    for l in range(dim):
                        if w[k] + w[l] < 1e-12:
                            continue
                        acc += ((w[k] - w[l]) ** 2 / (w[k] + w[l]) *
                                (Am[k, l] * An[l, k])).real
                ref[m, n] = 2 * acc
        fm = fisher_matrix(rho, ops)
        assert np.abs(fm.matrix - ref).max() <= 1e-9
        assert np.abs(fm.matrix - fm.matrix.T).max() <= 1e-12


def _fisher_whole_array_oracle(state, ops):
    """The Fisher matrix and dropped-pair count from the d x d pair weights
    and the complex d x d transforms V^dag A V at once, on the state's own
    spectrum: the oracle of the row blocks of fisher._fisher."""
    from qmetro.config import QFI_PAIR_FLOOR
    from qmetro.fisher import _eigensystem, _payload
    data = _payload(state)
    dec = _eigensystem(state, data)
    lam, V = dec.values, dec.columns()
    S = lam[:, None] + lam[None, :]
    keep = S >= QFI_PAIR_FLOOR
    W = np.divide(2.0 * (lam[:, None] - lam[None, :]) ** 2, S, out=np.zeros_like(S), where=keep)
    T = [V.conj().T @ (A.matrix if hasattr(A, "matrix") else A) @ V for A in ops]
    F = np.array([[np.sum(W * Tm * Tn.conj()).real for Tn in T] for Tm in T])
    return F, int(keep.size - np.count_nonzero(keep))


def _blocked_fisher_cases(rng):
    rep = full_rep(10)
    axes = [collective_op(a, rep) for a in "xyz"]
    return {"ghz10-p0.6": (mix_white_noise(ghz(10, rep), 0.6), axes),
            "singlet10": (singlet_pi(10), axes),
            "complex-500": (rand_density(rng, 500), [rand_hermitian(rng, 500) for _ in range(3)]),
            "rank3-500": (rand_density(rng, 500, rank=3), [rand_hermitian(rng, 500)
                                                           for _ in range(2)]),
            "complex-16": (rand_density(rng, 16), [rand_hermitian(rng, 16) for _ in range(3)])}


def test_blocked_fisher_matrix_matches_whole_array_oracle(rng):
    from qmetro.fisher import _fisher
    from qmetro.spin import as_operator
    for name, (state, ops) in _blocked_fisher_cases(rng).items():
        F, skipped = _fisher(state, [as_operator(A) for A in ops])
        want, want_skipped = _fisher_whole_array_oracle(state, ops)
        assert skipped == want_skipped, name
        assert np.abs(F - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), name
        assert np.array_equal(F, F.T), name


def _dense_v_fisher(rho, ops):
    """The Fisher matrix and dropped-pair count from a dense eigendecomposition
    of the whole density, V^dag A V for every generator at once."""
    from qmetro.config import QFI_PAIR_FLOOR
    lam, V = np.linalg.eigh(rho)
    S = lam[:, None] + lam[None, :]
    keep = S >= QFI_PAIR_FLOOR
    W = np.where(keep, (lam[:, None] - lam[None, :]) ** 2 / np.where(keep, S, 1.0), 0.0)
    T = [V.conj().T @ (A.matrix if hasattr(A, "matrix") else A) @ V for A in ops]
    F = np.array([[2.0 * np.sum(W * Tm * Tn.conj()).real for Tn in T] for Tm in T])
    return F, int(keep.size - np.count_nonzero(keep))


def _zero_padded(rng, dim, pad, real):
    """A random density of dimension dim (rank dim // 2), then pad zero rows and
    columns: uncoupled indices of eigenvalue 0."""
    rho = rand_density(rng, dim, rank=dim // 2)
    out = np.zeros((dim + pad,) * 2, dtype=float if real else complex)
    out[:dim, :dim] = rho.real if real else rho
    return out


def test_sld_and_roofs_on_uncoupled_rows_match_a_dense_v_oracle(rng):
    """The SLD and both roofs take V^dag A V from the block spectrum, an
    uncoupled row as a row of A; against V^dag A V from np.linalg.eigh of the
    whole density, within 1e-12: the SLD entry for entry, the roof values
    F_Q / 4 and Var(A), and the decompositions rebuild the density with those
    average variances (the concave one with every mean <A>)."""
    from qmetro.config import QFI_PAIR_FLOOR
    noisy = mix_white_noise(ghz(8, full_rep(8), axis="x"), 0.6)  # odd parity uncoupled
    cases = {"ghz-noise": (noisy, [collective_op(a, noisy.rep) for a in "xyz"])}
    for real in (True, False):
        rho = _zero_padded(rng, 12, 5, real)
        S = rng.standard_normal((17, 17))
        cases["padded-" + ("real" if real else "complex")] = (
            rho, [S + S.T, 1j * (S - S.T), rand_hermitian(rng, 17), np.diag(S[0])])
    for name, (state, ops) in cases.items():
        rho = state.data if isinstance(state, QuantumState) else state
        lam, V = np.linalg.eigh(rho)
        total = lam[:, None] + lam
        keep = total >= QFI_PAIR_FLOOR
        w = np.where(keep, (lam[:, None] - lam) / np.where(keep, total, 1.0), 0.0)
        for A in ops:
            M = A.matrix if hasattr(A, "matrix") else A
            T = V.conj().T @ M @ V
            L = V @ (2j * w * T) @ V.conj().T
            assert np.abs(sld(state, A) - L).max() <= 1e-12 * max(1.0, np.abs(L).max()), name
            mean = np.trace(rho @ M).real
            var = np.trace(rho @ M @ M).real - mean ** 2
            lower = 0.5 * np.sum(w * (lam[:, None] - lam) * np.abs(T) ** 2)
            for res, want in ((convex_roof_oracle(state, A), lower),
                              (concave_roof_oracle(state, A), var)):
                tol = 1e-12 * max(1.0, abs(want))
                assert abs(res.value - want) <= tol, name
                X = res.vectors
                assert np.abs((X * res.weights) @ X.conj().T - rho).max() <= 1e-12, name
                means = np.sum(X.conj() * (M @ X), axis=0).real
                seconds = np.sum(np.abs(M @ X) ** 2, axis=0)
                assert abs(res.weights @ (seconds - means ** 2) - want) <= tol, name
            assert np.abs(means - mean).max() <= 1e-12 * max(1.0, np.abs(M).max()), name


def _uncoupled_third(rng, dim, real):
    """A random density (rank dim // 2) whose every third index is uncoupled."""
    rho = rand_density(rng, dim, rank=max(dim // 2, 1))
    rho = rho.real.copy() if real else rho
    off = np.arange(0, dim, 3)
    diag = rho[off, off].real.copy()
    rho[off, :] = 0.0
    rho[:, off] = 0.0
    rho[off, off] = diag
    return rho / np.trace(rho).real


def test_block_fisher_matrix_matches_a_dense_v_oracle(rng):
    """The rows of V^dag A V, uncoupled and coupled, against every column sum
    to the Fisher matrix of a dense eigendecomposition, within 1e-12, for real, purely
    imaginary, complex and custom generators and the collective ones, on
    densities with no uncoupled index, no coupled one and both, over one row
    block and several."""
    from qmetro.fisher import _fisher
    from qmetro.spin import CollectiveOperator, as_operator
    rep = full_rep(4)

    def generators(dim):
        S = rng.standard_normal((dim, dim))
        ops = [S + S.T, 1j * (S - S.T), rand_hermitian(rng, dim), np.diag(rng.standard_normal(dim))]
        if dim == rep.dim:
            ops += [CollectiveOperator(rand_hermitian(rng, dim), rep)]
            ops += [collective_op(a, rep) for a in "xyz"]
        return ops

    diagonal = rng.random(16) * (np.arange(16) % 4 > 0)    # rank 12
    cases = {"dense": rand_density(rng, 16), "diagonal": np.diag(diagonal / diagonal.sum()),
             "pattern-real": _uncoupled_third(rng, 16, True),
             "pattern-complex": _uncoupled_third(rng, 16, False),
             "ghz-noise": mix_white_noise(ghz(4, rep), 0.6).data,
             "singlet": singlet_pi(4).data,
             "pattern-blocks-real": _uncoupled_third(rng, 400, True),
             "pattern-blocks-complex": _uncoupled_third(rng, 400, False)}
    for name, rho in cases.items():
        ops = generators(rho.shape[0])
        # a state keeps its spectrum; a bare array is eigendecomposed here
        state = QuantumState(rep, rho) if rho.shape[0] == rep.dim else rho
        F, skipped = _fisher(state, [as_operator(A) for A in ops])
        want, want_skipped = _dense_v_fisher(rho, ops)
        assert skipped == want_skipped, name
        assert np.abs(F - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), name
        assert np.array_equal(F, F.T), name


def test_crb_matrix_inverse_and_pseudo(rng):
    rho = rand_density(rng, 4)
    ops = [rand_hermitian(rng, 4) for _ in range(2)]
    fm = fisher_matrix(rho, ops)
    bound = crb_matrix(fm)
    if not bound.pseudo_inverse:
        assert np.abs(fm.matrix @ bound.matrix - np.eye(2)).max() <= 1e-8
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert crb_matrix(singular).pseudo_inverse


# ------------------------------------------------- fidelity / speed

def test_bures_endpoints(rng):
    rho = rand_density(rng, 5)
    assert bures_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    a = np.zeros(4); a[0] = 1
    b = np.zeros(4); b[1] = 1
    assert bures_fidelity(a, b) <= 1e-12


def test_bures_small_rotation_expansion():
    g = ghz(3)
    Jx = collective_op("x", g.rep)
    theta = 1e-3
    fid = bures_fidelity(g, rotate(g, Jx, theta).data)
    # second-order response with F_Q = 9: 1 - theta^2 * 9/4
    assert abs(fid - (1 - theta ** 2 * 9 / 4)) <= 1e-8


def test_speed_bound_at_zero_and_saturation():
    g = ghz(4)
    Jx = collective_op("x", g.rep)
    chk = mandelstam_tamm_check(g, Jx, 0.0)
    assert chk.fidelity == pytest.approx(1.0, abs=1e-12)
    assert chk.bound == pytest.approx(1.0, abs=1e-12)
    small = mandelstam_tamm_check(g, Jx, 0.05)
    assert small.holds
    assert small.fidelity == pytest.approx(small.bound, abs=1e-8)


def test_speed_bound_random_mixed(rng):
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        rho = rand_density(rng, dim)
        A = rand_hermitian(rng, dim)
        F = qfi(rho, A).value
        cap = np.pi / np.sqrt(F) if F > 1e-9 else 0.3
        chk = mandelstam_tamm_check(rho, A, rng.uniform(0, min(cap, 0.5)))
        assert chk.holds


def test_a_symmetric_density_at_the_largest_n_reaches_the_qfi(monkeypatch):
    """``require_density`` is the one size rule for densities: a diagonal
    symmetric density at N = SYMMETRIC_MAX (4097 rows) reaches qfi with no
    LAPACK call, and a bare array one row larger is refused before any work."""
    from qmetro.spin import SYMMETRIC_MAX

    def refused(*args):
        raise AssertionError("a diagonal density needs no eigh")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    rep = symmetric_rep(SYMMETRIC_MAX)
    rho = np.zeros((rep.dim, rep.dim))
    rho[[0, 7, rep.dim - 1], [0, 7, rep.dim - 1]] = [0.25, 0.25, 0.5]
    res = qfi(QuantumState(rep, rho), collective_op("z", rep))
    # J_z is diagonal too; only the pairs of two zero eigenvalues are dropped
    assert res.value == 0.0 and res.skipped_pairs == (rep.dim - 3) ** 2
    # a zero matrix of no memory: the refusal reads only its shape
    larger = np.broadcast_to(np.complex128(0.0), (rep.dim + 1,) * 2)
    with pytest.raises(ValueError, match="density dimension 4098 exceeds 4097"):
        qfi(larger, larger)


def test_speed_bound_of_a_state_takes_one_eigendecomposition(monkeypatch):
    """qfi and the fidelity's square root share the state's kept spectrum;
    the value is that of the bare payload, which takes its own."""
    state = mix_white_noise(ghz(8, full_rep(8)), 0.6)
    Jx = collective_op("x", state.rep)
    calls = []
    eigh = np.linalg.eigh

    def counted(M, *args, **kwargs):
        calls.append(M.shape)
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    chk = mandelstam_tamm_check(state, Jx, 0.05)
    assert len(calls) == 1, calls
    monkeypatch.undo()
    want = bures_fidelity(state.data, rotate(state, Jx, 0.05).data)
    assert abs(chk.fidelity - want) <= 1e-12
    assert chk.holds


def test_speed_bound_window_enforced():
    g = ghz(8)
    with pytest.raises(ValueError, match="pi"):
        mandelstam_tamm_check(g, collective_op("x", g.rep), 1.0)


def _speed_bound_cases():
    from qmetro.spin import direction_op
    third = np.ones(3) / np.sqrt(3.0)
    mixed, singlet = mix_white_noise(ghz(10, full_rep(10)), 0.6), singlet_pi(8)
    g = ghz(12, full_rep(12))
    cases = [("mixed-10 J_x", mixed, collective_op("x", mixed.rep)),
             ("singlet-8 gradient", singlet, gradient_op(singlet.rep)),
             ("ghz-12 J_x", g, collective_op("x", g.rep)),
             ("ghz-12 (1,1,1)", g, direction_op(third, g.rep))]
    for n in (200, 1000):
        sym = ghz_dicke_density(n)
        cases += [(f"ghz+dicke-{n} J_x", sym, collective_op("x", sym.rep)),
                  (f"ghz+dicke-{n} (1,1,1)", sym, direction_op(third, sym.rep))]
    return cases


def test_speed_bound_fidelity_matches_the_rotated_density():
    """The fidelity of R^dag U R against the oracle, the fidelity of the state
    and its rotated payload, at theta = 1e-3 and at theta = 1/sqrt(F_Q)."""
    for name, state, A in _speed_bound_cases():
        for theta in (1e-3, 1.0 / np.sqrt(qfi(state, A).value)):
            chk = mandelstam_tamm_check(state, A, theta)
            want = bures_fidelity(state, rotate(state, A, theta).data)
            assert abs(chk.fidelity - want) <= 1e-12, (name, theta, chk.fidelity, want)
            assert chk.holds, (name, theta)


# ------------------------------------------------- skew information

def test_wigner_yanase_values(rng):
    psi = rand_pure(rng, 6)
    A = rand_hermitian(rng, 6)
    var = np.real(np.vdot(psi, A @ A @ psi)) - np.real(np.vdot(psi, A @ psi)) ** 2
    assert wigner_yanase(psi, A) == pytest.approx(var, abs=1e-10)
    mm = maximally_mixed(full_rep(2))
    assert wigner_yanase(mm, collective_op("x", mm.rep)) == pytest.approx(0.0, abs=1e-10)


def test_skew_information_sandwich(rng):
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        rho = rand_density(rng, dim)
        A = rand_hermitian(rng, dim)
        I = wigner_yanase(rho, A)
        F = qfi(rho, A).value
        _, var = np.real(np.trace(A @ rho)), None
        m = np.real(np.trace(A @ rho))
        var = np.real(np.trace(A @ A @ rho)) - m ** 2
        assert I >= -1e-10
        assert 4 * I <= F + 1e-8
        assert F <= 4 * var + 1e-8


def test_wigner_yanase_is_never_negative():
    """Each term of the pair sum is non-negative: on states where the skew
    information is 0 in exact arithmetic it reads 0 or a round-off above it
    (the difference <A^2> - Tr(A sqrt(rho) A sqrt(rho)) read -1.6e-15 on
    singlet-8 and -5.6e-17 on polarized N = 1 along x under J_x)."""
    s8 = singlet_pi(8)
    for axis in "xyz":
        A = collective_op(axis, s8.rep)
        assert 0.0 <= wigner_yanase(s8, A) <= 1e-12 * 16.0, axis
    for rep in (symmetric_rep(1), full_rep(1)):
        for along in "xyz":
            st = polarized(1, along, rep)
            for axis in "xyz":
                wy = wigner_yanase(st, collective_op(axis, rep))
                assert wy >= 0.0 and abs(wy - (axis != along) / 4.0) <= 1e-15, (along, axis)
    for n in (4, 7, 10):
        for rep in (symmetric_rep(n), full_rep(n)):
            Jz = collective_op("z", rep)
            for m in range(n + 1):
                assert 0.0 <= wigner_yanase(dicke(n, m, rep), Jz) <= 1e-12 * n * n, (n, m)


# ------------------------------------------------- zeno time

def test_zeno_values():
    for n in (3, 6, 10):
        g = ghz(n)
        assert zeno_time(g, collective_op("x", g.rep)) == pytest.approx(2 / n, abs=1e-12)
    st = polarized(9, "z")
    assert zeno_time(st, collective_op("y", st.rep)) == pytest.approx(2 / 3, abs=1e-9)
    mm = maximally_mixed(symmetric_rep(4))
    assert zeno_time(mm, collective_op("x", mm.rep)) == np.inf


def test_zeno_time_is_the_interval_of_its_qfi():
    """zeno_time is 2 / sqrt(F_Q) of the QFI, bit for bit, through the one
    formula ``zeno_interval``; infinite at or below FISHER_FLOOR."""
    from qmetro.config import FISHER_FLOOR
    st = mix_white_noise(ghz(6, full_rep(6)), 0.7)
    for a in "xyz":
        J = collective_op(a, st.rep)
        F = qfi(st, J).value
        assert zeno_time(st, J) == zeno_interval(F) == 2.0 / np.sqrt(F)
    assert zeno_interval(FISHER_FLOOR) == zeno_interval(0.0) == np.inf


def _sld_trace_states():
    return {"mixed-10": mix_white_noise(ghz(10, full_rep(10)), 0.6),
            "singlet-8": singlet_pi(8), "symmetric-200": ghz_dicke_density(200),
            "ghz-vector-10": ghz(10, full_rep(10))}


@pytest.mark.parametrize("name", list(_sld_trace_states()))
def test_sld_trace_matches_the_dense_trace(name):
    """Tr(rho L^2) as ||L R||_F^2 for one factor rho = R R^dag against the
    dense Tr((L rho) L), within 1e-12 relative (1e-12 absolute where F_Q = 0,
    as for the singlet), for J_x, J_y, J_z and a complex direction."""
    from qmetro.config import FISHER_FLOOR
    from qmetro.spin import direction_op
    state = _sld_trace_states()[name]
    rho = state.density()
    gens = [collective_op(a, state.rep) for a in "xyz"]
    gens.append(direction_op(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0), state.rep))
    for J in gens:
        L = sld(state, J)
        want = np.einsum("ij,ji->", L @ rho, L).real
        tol = 1e-12 * (abs(want) if qfi(state, J).value > FISHER_FLOOR else 1.0)
        assert abs(sld_trace(state, L) - want) <= tol, (name, J)


# ------------------------------------------------- roofs

def test_roofs_on_pure_input(rng):
    psi = rand_pure(rng, 4)
    A = rand_hermitian(rng, 4)
    var = np.real(np.vdot(psi, A @ A @ psi)) - np.real(np.vdot(psi, A @ psi)) ** 2
    cv = convex_roof_oracle(psi, A)
    cc = concave_roof_oracle(psi, A)
    assert cv.value == pytest.approx(var, abs=1e-10)
    assert cc.value == pytest.approx(var, abs=1e-10)
    # the same state as a rank-1 density
    rho = np.outer(psi, psi.conj())
    for res in (convex_roof_oracle(rho, A), concave_roof_oracle(rho, A)):
        assert res.weights.shape == (1,)
        assert res.value == pytest.approx(var, abs=1e-10)
        assert roof_sandwich_check(rho, A, res.weights, res.vectors).holds


def test_roofs_maximally_mixed_qubit():
    rho = np.eye(2) / 2
    A = np.diag([0.5, -0.5])
    cv = convex_roof_oracle(rho, A)
    cc = concave_roof_oracle(rho, A)
    assert cv.value == pytest.approx(0.0, abs=1e-9)   # z eigenstates
    assert cc.value == pytest.approx(0.25, abs=1e-9)  # x eigenstates


def test_roof_theorem_random_rank2(rng):
    for _ in range(4):
        rho = rand_density(rng, 4, rank=2)
        A = rand_hermitian(rng, 4)
        m = np.real(np.trace(A @ rho))
        var = np.real(np.trace(A @ A @ rho)) - m ** 2
        cv = convex_roof_oracle(rho, A)
        cc = concave_roof_oracle(rho, A)
        assert cv.value == pytest.approx(qfi(rho, A).value / 4, abs=1e-10)
        assert cc.value == pytest.approx(var, abs=1e-10)


def test_roof_decomposition_is_valid(rng):
    rho = rand_density(rng, 4, rank=2)
    A = rand_hermitian(rng, 4)
    cv = convex_roof_oracle(rho, A)
    chk = roof_sandwich_check(rho, A, cv.weights, cv.vectors)
    assert chk.holds
    assert chk.average_variance == pytest.approx(cv.value, abs=1e-9)
    assert chk.average_variance <= chk.lower + 1e-10  # the decomposition hits the floor


def test_roof_sandwich_on_eigendecomposition(rng):
    rho = rand_density(rng, 5)
    A = rand_hermitian(rng, 5)
    w, V = np.linalg.eigh(rho)
    chk = roof_sandwich_check(rho, A, w, V)
    assert chk.holds
    assert chk.lower <= chk.average_variance + 1e-8
    assert chk.average_variance <= chk.upper + 1e-8


def _sandwich_ends_from_a_rebuilt_density(state, A):
    """F_Q/4 and Var(A) of the density rebuilt from the payload: the former
    ends of roof_sandwich_check, its oracle."""
    data = state.data if isinstance(state, QuantumState) else np.asarray(state)
    rho = np.outer(data, data.conj()) / np.vdot(data, data).real if data.ndim == 1 else data
    A = A.matrix if hasattr(A, "matrix") else A
    mean = np.trace(A @ rho).real
    return qfi(rho, A).value / 4.0, np.trace(A @ A @ rho).real - mean * mean


def test_roof_sandwich_ends_match_the_rebuilt_density(rng):
    cases = [(rand_pure(rng, 5), rand_hermitian(rng, 5)),
             (rand_density(rng, 4, rank=2), rand_hermitian(rng, 4)),
             (rand_density(rng, 5), rand_hermitian(rng, 5)),
             (singlet_pi(8), collective_op("z", full_rep(8))),
             (mix_white_noise(ghz(6, full_rep(6)), 0.5), collective_op("y", full_rep(6))),
             (polarized(6, "x", symmetric_rep(6)), collective_op("y", symmetric_rep(6)))]
    for state, A in cases:
        cv = convex_roof_oracle(state, A)
        chk = roof_sandwich_check(state, A, cv.weights, cv.vectors)
        lower, upper = _sandwich_ends_from_a_rebuilt_density(state, A)
        assert chk.holds
        assert abs(chk.lower - lower) <= 1e-12 * max(1.0, abs(lower))
        assert abs(chk.upper - upper) <= 1e-12 * max(1.0, abs(upper))


def test_roof_sandwich_reuses_the_kept_spectrum(monkeypatch):
    import qmetro.fisher
    calls = []
    original = qmetro.fisher.eigh_hermitian
    monkeypatch.setattr(qmetro.fisher, "eigh_hermitian",
                        lambda M, *mask: calls.append(M.shape) or original(M, *mask))
    st = mix_white_noise(ghz(4, full_rep(4)), 0.6)
    J = collective_op("x", st.rep)
    fq = qfi(st, J).value
    assert len(calls) == 1
    w, V = np.linalg.eigh(st.data)
    chk = roof_sandwich_check(st, J, w, V)
    assert len(calls) == 1
    assert chk.holds and chk.lower == fq / 4.0


def test_roof_sandwich_of_a_large_pure_state_is_fast():
    """Polarized-x at symmetric N = 1000 with J_y: the ends need no
    eigendecomposition of a rebuilt 1001^2 density."""
    import time
    st = polarized(1000, "x", symmetric_rep(1000))
    J = collective_op("y", st.rep)
    took = []
    for _ in range(3):
        t0 = time.perf_counter()
        chk = roof_sandwich_check(st, J, np.array([1.0]), st.data[:, None])
        took.append(time.perf_counter() - t0)
    assert chk.holds and chk.lower == pytest.approx(250.0, rel=1e-12)
    assert min(took) < 0.2


def test_roof_sandwich_rejects_bad_decomposition(rng):
    rho = rand_density(rng, 4)
    A = rand_hermitian(rng, 4)
    with pytest.raises(ValueError, match="reproduce"):
        roof_sandwich_check(rho, A, np.array([1.0]),
                            np.array([[1.0], [0], [0], [0]], dtype=complex))


def _assert_exact_roofs(rho, A):
    """Both decompositions pass the sandwich check and sit on its ends."""
    cv, cc = convex_roof_oracle(rho, A), concave_roof_oracle(rho, A)
    lo = roof_sandwich_check(rho, A, cv.weights, cv.vectors)
    hi = roof_sandwich_check(rho, A, cc.weights, cc.vectors)
    assert lo.holds and hi.holds
    assert abs(cv.value - lo.lower) <= 1e-10 and abs(lo.average_variance - cv.value) <= 1e-10
    assert abs(cc.value - hi.upper) <= 1e-10 and abs(hi.average_variance - cc.value) <= 1e-10
    return cv, cc


def test_exact_roofs_past_the_old_caps(rng):
    # singlet(8): dimension 256, rank 14; every collective J_l has zero variance
    st = singlet_pi(8)
    for A in (collective_op("z", st.rep), gradient_op(st.rep), rand_hermitian(rng, 256)):
        cv, cc = _assert_exact_roofs(st, A)
        assert cv.weights.size == cc.weights.size == 14
    # white-noise GHZ-6 has full rank 64
    noisy = mix_white_noise(ghz(6, full_rep(6)), 0.5)
    for axis in "xyz":
        cv, _ = _assert_exact_roofs(noisy, collective_op(axis, noisy.rep))
        assert cv.weights.size == 64


def test_exact_roofs_of_a_random_complex_operator(rng):
    # a complex A pins U = W in the convex construction: conj(W) overshoots F_Q/4
    for dim, rank in ((4, 2), (6, 3), (9, 9), (16, 5)):
        rho = rand_density(rng, dim, rank=rank)
        A = rand_hermitian(rng, dim)
        _, cc = _assert_exact_roofs(rho, A)
        # every state of the concave decomposition has the mean of rho
        mean = np.real(np.trace(A @ rho))
        assert np.abs(np.einsum("ik,ij,jk->k", cc.vectors.conj(), A, cc.vectors).real
                      - mean).max() <= 1e-10


def test_exact_roofs_when_a_is_constant_on_the_support(rng):
    # P A P = c P on the rank-3 support: H = 0 in the Givens loop (exactly so
    # for c = 0 in the eigenbasis), and the variance comes only from the
    # couplings to the kernel, where F_Q/4 = Var
    for c, V in ((0.0, np.eye(5)), (0.7, np.eye(5)), (0.7, rand_unitary(rng, 5))):
        rho = (V * np.array([0.5, 0.3, 0.2, 0.0, 0.0])) @ V.conj().T
        M = rand_hermitian(rng, 5)
        M[:3, :3] = c * np.eye(3)
        A = V @ M @ V.conj().T
        with np.errstate(divide="raise", invalid="raise"):
            cv, cc = _assert_exact_roofs(rho, A)
        var = np.real(np.trace(A @ A @ rho)) - np.real(np.trace(A @ rho)) ** 2
        assert var > 0.1
        assert cv.value == pytest.approx(var, abs=1e-10)
        assert cc.value == pytest.approx(var, abs=1e-10)


def test_roof_search_gradient_matches_finite_differences(rng):
    lam = np.array([0.5, 0.3, 0.2])
    B = np.sqrt(lam)[:, None] * rand_hermitian(rng, 3) * np.sqrt(lam)
    g_and_grad = roof_objective(lam, B, 9)
    x = rng.standard_normal(2 * 9 * 3)
    _, grad = g_and_grad(x)
    h = 1e-6
    fd = np.array([(g_and_grad(x + h * e)[0] - g_and_grad(x - h * e)[0]) / (2 * h)
                   for e in np.eye(x.size)])
    assert np.abs(fd - grad).max() <= 1e-6 * (1.0 + np.abs(grad).max())


def test_roofs_and_demo_03_run_without_scipy():
    """A None entry in sys.modules makes every import of scipy fail."""
    code = ("import runpy, sys\n"
            "sys.modules['scipy'] = None\n"
            "from qmetro.fisher import concave_roof_oracle, convex_roof_oracle, qfi\n"
            "from qmetro.spin import collective_op, full_rep\n"
            "from qmetro.states import ghz, mix_white_noise\n"
            "st = mix_white_noise(ghz(4, full_rep(4)), 0.5)\n"
            "J = collective_op('y', st.rep)\n"
            "assert abs(convex_roof_oracle(st, J).value - qfi(st, J).value / 4) <= 1e-10\n"
            "assert abs(concave_roof_oracle(st, J).value - st.variance(J)) <= 1e-10\n"
            "runpy.run_path(sys.argv[1], run_name='__main__')\n")
    demo = Path(__file__).parents[1] / "demos" / "03_fisher_information_tour.py"
    env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, str(demo)], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# ------------------------------------------------- a vector's rank-one spectrum

def _vector_cases(rng):
    """Vectors with their generators: symmetric Dicke, GHZ and squeezed vectors
    and full GHZ-6 under J_x, J_y, J_z and a complex direction, a complex
    rotated probe, and bare vectors under random complex, real and purely
    imaginary Hermitian matrices."""
    from qmetro.spin import direction_op
    from qmetro.states import SqueezingSpec, squeezed_ground_state
    n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    sym20 = symmetric_rep(20)
    states = {"dicke-40": dicke(40, 13, symmetric_rep(40)), "ghz-40": ghz(40, symmetric_rep(40)),
              "squeezed-200": squeezed_ground_state(SqueezingSpec(200, 20.0)),
              "ghz-full-6": ghz(6, full_rep(6)),
              "rotated-20": rotate(dicke(20, 7, sym20), direction_op(n, sym20), 0.3)}
    cases = {name: (st, [collective_op(a, st.rep) for a in "xyz"] + [direction_op(n, st.rep)])
             for name, st in states.items()}
    for d in (2, 7, 16):
        S = rng.standard_normal((d, d))
        cases[f"bare-{d}"] = (rand_pure(rng, d), [rand_hermitian(rng, d), S + S.T, 1j * (S - S.T)])
    cases["bare-real-9"] = (rng.standard_normal(9), [rand_hermitian(rng, 9)])
    return cases


def _vector_oracle(state, A):
    """psi, the dense matrix of A, A psi, <A>, Var(A) = ||(A - <A>) psi||^2
    and the scale <A^2> of the second-moment forms."""
    psi = state.data if isinstance(state, QuantumState) else np.asarray(state, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    M = A.matrix if hasattr(A, "matrix") else np.asarray(A)
    Apsi = M @ psi
    mean = np.vdot(psi, Apsi).real
    return psi, M, Apsi, mean, np.linalg.norm(Apsi - mean * psi) ** 2, np.vdot(Apsi, Apsi).real


def test_a_vector_takes_the_pair_sum_of_its_rank_one_spectrum(rng):
    """A vector is the rank-one spectrum {1} with psi as its column: the pair
    sum, the SLD, its trace check, the second-moment form, the skew
    information and both roofs agree with the closed forms of a pure state,
    within 1e-12 relative (for the second-moment forms, relative to <A^2>,
    the size of the terms they subtract; for the SLD, to max |L|), and every
    pair inside the (d - 1)-dimensional kernel is dropped."""
    for name, (state, ops) in _vector_cases(rng).items():
        images, means = [], []
        for A in ops:
            psi, M, Apsi, mean, var, second = _vector_oracle(state, A)
            d = psi.size
            res = qfi(state, A)
            assert res.skipped_pairs == (d - 1) ** 2, name
            assert abs(res.value - 4.0 * var) <= 1e-12 * 4.0 * var + 1e-12 * second, name
            assert abs(qfi_alternative(state, A) - 4.0 * var) <= 4e-12 * second, name
            assert abs(wigner_yanase(state, A) - var) <= 1e-12 * second, name
            L = sld(state, A)
            proj = np.outer(psi, psi.conj())
            want = 2j * (proj @ M - M @ proj)
            assert np.abs(L - want).max() <= 1e-12 * np.abs(want).max() + 1e-15, name
            trace = np.linalg.norm(L @ psi) ** 2
            assert abs(sld_trace(state, L) - trace) <= 1e-12 * max(trace, second), name
            for roof in (convex_roof_oracle(state, A), concave_roof_oracle(state, A)):
                assert abs(roof.value - var) <= 1e-12 * second, name
                assert roof.weights.shape == (1,) and abs(roof.weights[0] - 1.0) <= 1e-12, name
                assert np.abs(roof.vectors[:, 0] - psi).max() <= 1e-12, name
            images.append(Apsi - mean * psi)
        # 4 Cov(A_m, A_n) = 4 Re <(A_m - <A_m>) psi|(A_n - <A_n>) psi>
        want = 4.0 * np.real(np.conj(np.array(images)) @ np.array(images).T)
        F = fisher_matrix(state, ops).matrix
        assert np.abs(F - want).max() <= 1e-12 * np.abs(want).max(), name
        assert np.array_equal(F, F.T), name


def test_a_squeezed_vector_takes_its_qfi_with_no_cancellation():
    """Var(J_z) of a squeezed N = 1000 vector (lam = 500) is 0.17 beside
    <J_z^2> = 2.5e5: the kernel residual ||(1 - P) J_z psi||^2 keeps it to
    1e-12 of the exact rational value of the stored amplitudes, where
    <J_z^2> - <J_z>^2 lost 4e-10 of it."""
    from fractions import Fraction
    from qmetro.states import SqueezingSpec, squeezed_ground_state
    st = squeezed_ground_state(SqueezingSpec(1000, 500.0))
    p = [Fraction(float(x.real)) ** 2 + Fraction(float(x.imag)) ** 2 for x in st.data]
    m = [Fraction(500 - i) for i in range(1001)]
    norm = sum(p)
    mean = sum(a * b for a, b in zip(p, m)) / norm
    exact = float(4 * (sum(a * b * b for a, b in zip(p, m)) / norm - mean ** 2))
    got = qfi(st, collective_op("z", st.rep)).value
    assert abs(got - exact) <= 1e-12 * exact


def _dense_sqrt_wigner_yanase(state, ops):
    """The skew information through the d x d sqrt(rho) of ``psd_sqrt``, for
    each generator: Tr(A^2 rho) - Tr(X X) for X = A sqrt(rho) = 1j**k P, the
    sum of P * P^T."""
    from qmetro.fisher import _eigensystem, _payload
    from qmetro.linalg import psd_sqrt
    from qmetro.spin import as_operator
    from qmetro.states import braket
    data = _payload(state)
    root, out = psd_sqrt(_eigensystem(state, data)), []
    for A in map(as_operator, ops):
        P, k = A.times(root)
        cross = float(np.real((-1) ** k * np.sum(P * P.T)))
        out.append(float(np.real(braket(data, (A,), (A,)))) - cross)
    return out


def test_pair_sum_skew_information_matches_the_dense_square_root(rng):
    """wigner_yanase as <A^2> less half the pair sum of sqrt(l_k) sqrt(l_l)
    (l_k + l_l), against Tr(A sqrt(rho) A sqrt(rho)) from the dense sqrt(rho),
    within 1e-12 relative (1e-12 ||A||^2 where it is zero, as for the
    singlet), with zero rows padded in and on the collective states."""
    from qmetro.spin import direction_op
    n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    cases = {"singlet-8": singlet_pi(8), "mixed-10": mix_white_noise(ghz(10, full_rep(10)), 0.6),
             "symmetric-200": ghz_dicke_density(200)}
    cases = {name: (st, [collective_op(a, st.rep) for a in "xyz"] + [direction_op(n, st.rep)])
             for name, st in cases.items()}
    for dim in (5, 24, 64):
        for real in (True, False):
            rho = (rand_density(rng, dim) if dim == 5 else
                   _zero_padded(rng, dim - dim // 4, dim // 4, real))
            rho = rho.real.copy() if real else rho
            S = rng.standard_normal((dim, dim))
            cases[f"random-{dim}-{'real' if real else 'complex'}"] = (
                rho / np.trace(rho).real, [rand_hermitian(rng, dim), S + S.T, 1j * (S - S.T)])
    for name, (state, ops) in cases.items():
        for A, want in zip(ops, _dense_sqrt_wigner_yanase(state, ops)):
            # a singlet's skew information is zero: 1e-12 of ||A||^2 (its bound)
            tol = 1e-12 * (A.norm_bound() ** 2 if name == "singlet-8" else abs(want))
            assert abs(wigner_yanase(state, A) - want) <= tol, (name, want)


def test_skew_information_keeps_the_psd_rejection():
    rho = np.diag([0.6, 0.5, -0.1])
    with pytest.raises(ValueError, match="not PSD"):
        wigner_yanase(rho, np.diag([1.0, 0.0, -1.0]))


# ------------------------------------------------- the factor rho = R R^dag

def test_fidelity_of_white_noise_ghz_matches_its_closed_form():
    """p|psi><psi| + q I against its turn by U: only span(psi, U psi) differs
    from q I, so F = (sqrt(p^2 c^2 + 4 q (p + q)) + (d - 2) q)^2 with
    c = |<psi|U psi>| and q = (1 - p)/d.  White-noise GHZ-10 at p = 0.6 turned
    about J_x by 0.01 (c = cos(5 * 0.01), GHZ_x being J_x's +-5 pair): the
    r x r matrix R^dag rho_2 R comes within 1e-12 (the d x d sqrt(rho) and
    its two products were 8.4e-12 off)."""
    p, theta = 0.6, 0.01
    state = mix_white_noise(ghz(10, full_rep(10)), p)
    turned = rotate(state, collective_op("x", state.rep), theta)
    d = state.rep.dim
    q, c = (1.0 - p) / d, np.cos(5 * theta)
    want = (np.sqrt(p * p * c * c + 4.0 * q * (p + q)) + (d - 2) * q) ** 2
    assert abs(bures_fidelity(state, turned) - want) <= 1e-12 * want


def _traced_peak(call):
    import tracemalloc
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fidelity_and_convex_roof_take_the_factor_in_bounded_memory():
    """With the spectrum kept, the fidelity of the rank-2 symmetric N = 1000
    density against its J_x turn forms a 1001 x 2 factor, not a 1001^2
    sqrt(rho) and its products (54 MB traced), and the convex roof of
    white-noise GHZ-10 under J_x a real B = R^dag A R (the complex B of the
    kept rows traced 96 MB)."""
    sym = ghz_dicke_density(1000)
    Jx = collective_op("x", sym.rep)
    turned = rotate(sym, Jx, 1e-3)
    qfi(sym, Jx)
    assert _traced_peak(lambda: bures_fidelity(sym, turned)) < 2 * 2 ** 20
    mixed = mix_white_noise(ghz(10, full_rep(10)), 0.6)
    Jx = collective_op("x", mixed.rep)
    qfi(mixed, Jx)
    assert _traced_peak(lambda: convex_roof_oracle(mixed, Jx)) < 48 * 2 ** 20


def test_speed_bound_turns_the_factor_in_bounded_memory():
    """With the spectrum kept, the speed bound of the rank-2 symmetric density
    turns its 1001 x 2 factor, with no rotated density, generator spectrum or
    unitary (76 MiB traced through the rotated density), and completes at the
    largest symmetric N."""
    sym = ghz_dicke_density(1000)
    Jx = collective_op("x", sym.rep)
    qfi(sym, Jx)
    assert _traced_peak(lambda: mandelstam_tamm_check(sym, Jx, 1e-3)) < 8 * 2 ** 20
    rep = symmetric_rep(4096)
    g = ghz(4096, rep).data.real
    rho = np.outer(g, g)
    rho *= 0.5
    rho[2048, 2048] += 0.5   # the Dicke state |N/2, 0> is a unit vector
    big = QuantumState(rep, rho)
    del rho
    assert mandelstam_tamm_check(big, collective_op("x", rep), 1e-4).holds


def test_every_square_root_takes_one_psd_rule():
    """psd_sqrt, wigner_yanase, sld_trace, the fidelity of two densities (in
    either order), both roofs and Povm refuse an eigenvalue of -0.1 alike;
    Povm also one of -5e-10, below PSD_FLOOR."""
    from qmetro.linalg import psd_sqrt
    bad, A = np.diag([0.6, 0.5, -0.1]), np.diag([1.0, 0.0, -1.0])
    calls = [lambda: psd_sqrt(bad), lambda: wigner_yanase(bad, A),
             lambda: sld_trace(bad, np.eye(3)), lambda: bures_fidelity(bad, np.eye(3) / 3),
             lambda: bures_fidelity(np.eye(3) / 3, bad), lambda: convex_roof_oracle(bad, A),
             lambda: concave_roof_oracle(bad, A),
             lambda: Povm([bad, np.eye(3) - bad]),
             lambda: Povm([np.diag([1.0, 1.0 + 5e-10]), np.diag([0.0, -5e-10])])]
    for call in calls:
        with pytest.raises(ValueError, match="not PSD"):
            call()


def test_concave_roof_of_a_real_density_and_generator(rng):
    """A real rank-4 density with a real symmetric generator gives a real
    B = R^dag A R; the Givens rotations of the concave roof are complex and
    must not lose their imaginary parts to it."""
    G = rng.standard_normal((8, 4))
    rho = G @ G.T / np.trace(G @ G.T)
    S = rng.standard_normal((8, 8))
    A = S + S.T
    var = np.trace(A @ A @ rho) - np.trace(A @ rho) ** 2
    cc = concave_roof_oracle(rho, A)
    assert abs(cc.value - var) <= 1e-10
    chk = roof_sandwich_check(rho, A, cc.weights, cc.vectors)
    assert chk.holds and abs(chk.average_variance - var) <= 1e-10


# ------------------------------------------- support and floor form

def _whole_spectrum_sums(state, ops):
    """The Fisher matrix, dropped-pair count and per-generator skew information
    from the pair sums over every eigenvalue of the state's spectrum, unfolded:
    the oracle of the support and floor form."""
    from dataclasses import replace
    from qmetro.fisher import _eigensystem, _pair_sum, _payload
    from qmetro.linalg import rank_floor_sqrt
    data = _payload(state)
    dec = _eigensystem(state, data)
    F, skipped = _pair_sum(dec, ops, lambda lam_k, lam_l: (lam_k[:, None] - lam_l) ** 2)
    clamped = replace(dec, values=np.where(rank_floor_sqrt(dec.values) > 0, dec.values, 0.0))
    wy = [_pair_sum(clamped, [A], lambda lam_k, lam_l: (
        (np.sqrt(lam_k)[:, None] - np.sqrt(lam_l)) ** 2 * (lam_k[:, None] + lam_l)))[0][0, 0] / 4
        for A in ops]
    return F, skipped, wy


def _floor_density(rng, dim, rank, lam0, real, uncoupled):
    """A unit-trace density of dimension dim: rank eigenvalues in [0.2, 1.2)
    above a floor lam0 of the rest (before normalising).  With ``uncoupled``
    a third of its indices, scattered, are uncoupled and carry the floor."""
    m = dim - dim // 3 if uncoupled else dim
    G = rng.standard_normal((m, rank)) + (0 if real else 1j) * rng.standard_normal((m, rank))
    Q = np.linalg.qr(G)[0]
    block = (Q * (0.2 + rng.random(rank))) @ Q.conj().T + lam0 * (np.eye(m) - Q @ Q.conj().T)
    rho = np.diag(np.full(dim, lam0)).astype(block.dtype)
    idx = rng.permutation(dim)[:m]
    rho[np.ix_(idx, idx)] = (block + block.conj().T) / 2
    return rho / np.trace(rho).real


def _generators(rng, dim):
    S = rng.standard_normal((dim, dim))
    return [S + S.T, 1j * (S - S.T), rand_hermitian(rng, dim), np.diag(S[0])]


def _assert_folded_sums_match(state, ops, name):
    from qmetro.spin import as_operator
    ops = [as_operator(A) for A in ops]
    F_want, skipped, wy_want = _whole_spectrum_sums(state, ops)
    F = fisher_matrix(state, ops).matrix
    scale = max(1.0, np.abs(F_want).max())
    assert np.abs(F - F_want).max() <= 1e-12 * scale, name
    assert np.array_equal(F, F.T), name
    for m, A in enumerate(ops):
        res = qfi(state, A)
        assert abs(res.value - F_want[m, m]) <= 1e-12 * max(1.0, F_want[m, m]), name
        assert res.skipped_pairs == skipped, name
        assert abs(wigner_yanase(state, A) - wy_want[m]) <= 1e-12 * max(1.0, wy_want[m]), name
    theta = 0.5 / np.sqrt(max(F_want[0, 0], 1.0))
    bound = np.cos(np.sqrt(F_want[0, 0]) / 2.0 * theta) ** 2
    assert abs(mandelstam_tamm_check(state, ops[0], theta).bound - bound) <= 1e-12 * bound, name


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("lam0", [0.0, 1e-6, 1e-3])
def test_folded_pair_sums_match_the_whole_spectrum_on_random_floors(rng, lam0, real):
    """F_Q, the Fisher matrix, the skew information and the speed bound on the
    support and floor form agree with the pair sums over every eigenvalue
    within 1e-12 relative, with the same dropped-pair count, for rank 1 to 8
    above a floor lam0, with and without uncoupled indices, over one row block
    and several; a bare matrix and a state, which keeps its spectrum."""
    from qmetro.fisher import _eigensystem
    from qmetro.linalg import fold_floor
    for n, rank, uncoupled in ((4, 1, False), (4, 3, True), (6, 8, False),
                               (6, 2, True), (9, 8, True), (9, 1, False)):
        rho = _floor_density(rng, 2 ** n, rank, lam0, real, uncoupled)
        state = rho if n == 4 else QuantumState(full_rep(n), rho)
        assert fold_floor(_eigensystem(state, rho)).values.size == rank
        _assert_folded_sums_match(state, _generators(rng, 2 ** n), f"{n}-{rank}-{uncoupled}")


def _sector_white_noise_ghz(n, p):
    rep = symmetric_rep(n)
    g = ghz(n, rep).data.real
    return QuantumState(rep, p * np.outer(g, g) + (1 - p) / rep.dim * np.eye(rep.dim))


_FLOOR_STATES = {
    **{f"mixed-10-{p}": (lambda p=p: mix_white_noise(ghz(10, full_rep(10)), p))
       for p in (0.5, 0.6, 0.7, 0.8, 0.9)},
    "singlet-8": lambda: singlet_pi(8), "singlet-10": lambda: singlet_pi(10),
    "ghz-dicke-200": lambda: ghz_dicke_density(200),
    "white-noise-ghz-200": lambda: _sector_white_noise_ghz(200, 0.6)}


@pytest.mark.parametrize("name", list(_FLOOR_STATES))
def test_folded_pair_sums_match_the_whole_spectrum_on_the_studied_states(name):
    """White-noise GHZ-10 at p = 0.5 ... 0.9 (a floor (1 - p)/D), singlets (a
    zero floor below rank 14 and 42), 0.5 GHZ + 0.5 Dicke at N = 200 (rank 2)
    and sector white-noise GHZ-200 under J_x, J_y, J_z and (1,1,1)/sqrt(3)."""
    from qmetro.spin import direction_op
    state = _FLOOR_STATES[name]()
    ops = [collective_op(a, state.rep) for a in "xyz"]
    ops.append(direction_op(np.ones(3) / np.sqrt(3), state.rep))
    _assert_folded_sums_match(state, ops, name)


def test_fold_keeps_the_support_above_the_floor(rng):
    """The support of each studied state has its rank (one column under white
    noise, 14 and 42 for the singlets, 2 for GHZ + Dicke) and the kernel the
    floor's mean; a spectrum whose smallest eigenvalue is alone is unchanged,
    and white-noise GHZ in the sector meets its closed form."""
    from qmetro.fisher import _eigensystem
    from qmetro.linalg import fold_floor
    for name, rank, floor in (("mixed-10-0.6", 1, 0.4 / 1024), ("singlet-8", 14, 0.0),
                              ("singlet-10", 42, 0.0), ("ghz-dicke-200", 2, 0.0),
                              ("white-noise-ghz-200", 1, 0.4 / 201)):
        st = _FLOOR_STATES[name]()
        dec = fold_floor(_eigensystem(st, st.data))
        assert dec.values.size == dec.block_vectors.shape[1] == rank, name
        assert dec.dim == st.rep.dim and abs(dec.floor - floor) <= 1e-14, name
    st = _sector_white_noise_ghz(200, 0.6)
    for a in "xyz":
        J = collective_op(a, st.rep)
        want = white_noise_qfi(ghz(200, st.rep), J, 0.6)
        assert abs(qfi(st, J).value - want) <= 1e-10 * want, a
    rho = rand_density(rng, 12)
    dec = _eigensystem(rho, rho)
    assert fold_floor(dec) is dec


@pytest.mark.parametrize("name", ["mixed-10", "random-floor-1e-3"])
def test_sld_on_the_folded_spectrum_keeps_its_identities(rng, name):
    """The SLD of a spectrum with a floor l0 > 0 (white-noise GHZ-10; a complex
    rank-3 density above 1e-3 with uncoupled indices) satisfies
    (L rho + rho L)/2 = i[rho, A], which fixes it on a full-rank rho, and
    Tr(rho L^2) = F_Q, within 1e-12."""
    from qmetro.spin import direction_op
    if name == "mixed-10":
        state = mix_white_noise(ghz(10, full_rep(10)), 0.6)
        rho = state.data
        ops = [collective_op(a, state.rep) for a in "xy"]
        ops.append(direction_op(np.ones(3) / np.sqrt(3), state.rep))
    else:
        state = rho = _floor_density(rng, 64, 3, 1e-3, False, True)
        ops = _generators(rng, 64)
    for A in ops:
        M = A.matrix if hasattr(A, "matrix") else A
        L = sld(state, A)
        if np.isrealobj(rho):
            Lr = L.real @ rho + 1j * (L.imag @ rho)
        else:
            Lr = L @ rho
        want = 1j * (rho @ M - M @ rho)
        got = (Lr + Lr.conj().T) / 2.0
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), name
        F = qfi(state, A).value
        assert abs(sld_trace(state, L) - F) <= 1e-12 * max(1.0, F), name


def test_speed_bound_of_a_rank_two_density_costs_its_support():
    """The rank-2 symmetric density at N = 2000 checks the speed bound in under
    20 ms once its spectrum is kept: the QFI sums two columns and a zero
    floor, and the factor turns two columns."""
    import timeit
    st = ghz_dicke_density(2000)
    J = collective_op("x", st.rep)
    assert mandelstam_tamm_check(st, J, 1e-3).holds
    best = min(timeit.repeat(lambda: mandelstam_tamm_check(st, J, 1e-3), number=1, repeat=5))
    assert best < 0.02, f"{best * 1e3:.1f} ms"


# ------------------------------------------- the SLD as one sandwich

def _two_loop_sld(state, op):
    """The former SLD, the oracle of the one sandwich: the support block
    V (2i w o T) V^dag, then the pairs with the kernel,
    2i sum_i c_i (u_i z_i^dag - z_i u_i^dag) for the residuals z_i, added in a
    second blocked loop over the rows of L; complex throughout."""
    from qmetro.config import QFI_PAIR_FLOOR
    from qmetro.fisher import _eigensystem, _inputs, _pair_ratio, _transform
    from qmetro.linalg import fold_floor, row_blocks
    A, data = _inputs(state, op)
    dec = fold_floor(_eigensystem(state, data))
    lam, residuals = dec.values, []
    T = np.zeros((lam.size,) * 2, dtype=complex)
    for r in row_blocks(lam.size):
        (Tr, q), Z = _transform(dec, A, dec.columns(r))
        residuals.append(Z)
        T[r] = Tr * _pair_ratio(lam[r], lam, lam[r, None] - lam, QFI_PAIR_FLOOR)[0]
    if not lam.size:
        return np.zeros((dec.dim,) * 2, dtype=complex)
    L = dec.sandwich(2j * 1j ** q * T)
    if dec.dim == lam.size:
        return L
    floor = np.array([dec.floor])
    for r, Z in zip(row_blocks(lam.size), residuals):
        Uc = dec.columns(r) * _pair_ratio(lam[r], floor, lam[r, None] - floor,
                                          QFI_PAIR_FLOOR)[0].T
        for b in row_blocks(L.shape[0]):
            L[b] += 2j * (1j ** q * Uc[b] @ Z.conj().T - 1j ** -q * Z[b] @ Uc.conj().T)
    return L


def _no_floor_uncoupled(rng):
    """A full-rank complex density of dimension 12 with four uncoupled indices
    of distinct eigenvalues, and a smallest eigenvalue that is alone."""
    rho = np.zeros((12, 12), dtype=complex)
    c, u = [0, 2, 3, 5, 7, 8, 10, 11], [1, 4, 6, 9]
    rho[np.ix_(c, c)] = 0.8 * rand_density(rng, 8)
    rho[u, u] = 0.02 * np.arange(1.0, 5.0)
    return rho


def _sld_cases(rng):
    from qmetro.spin import direction_op
    cases = {}
    for name, state in (("mixed-8", mix_white_noise(ghz(8, full_rep(8)), 0.6)),
                        ("singlet-8", singlet_pi(8)), ("ghz-dicke-60", ghz_dicke_density(60))):
        cases[name] = (state, [collective_op(a, state.rep) for a in "xy"]
                       + [direction_op(np.array([1.0, 1.0, 0.0]) / np.sqrt(2), state.rep)])
    cases["complex-floor-1e-3"] = (_floor_density(rng, 64, 3, 1e-3, False, True),
                                   _generators(rng, 64))
    cases["complex-rank-2"] = (_floor_density(rng, 32, 2, 0.0, False, False), _generators(rng, 32))
    cases["no-floor-uncoupled"] = (_no_floor_uncoupled(rng), _generators(rng, 12))
    cases["vector"] = (rand_pure(rng, 16), _generators(rng, 16))
    return cases


def test_sld_is_one_sandwich_of_the_support_and_the_residuals(rng):
    """L = W (c K) W^dag on W = [U | Z] agrees with the two-loop oracle within
    1e-13 max|L| and keeps (L rho + rho L)/2 = i[rho, A] and Tr(rho L^2) = F_Q:
    real densities with a floor l0 > 0 (white-noise GHZ-8), a zero floor
    (singlet-8) and uncoupled indices (GHZ + Dicke at N = 60) under J_x (an
    imaginary L), J_y (a real L) and the complex (1,1,0)/sqrt(2); complex
    densities above a floor 1e-3 and of rank 2; a full-rank spectrum with
    uncoupled indices and no floor; a vector."""
    from qmetro.fisher import _eigensystem
    from qmetro.linalg import fold_floor
    from qmetro.spin import as_operator
    cases = _sld_cases(rng)
    dec = _eigensystem(*(cases["no-floor-uncoupled"][0],) * 2)
    assert fold_floor(dec) is dec and dec.uncoupled.size == 4
    for name, (state, ops) in cases.items():
        data = state.data if isinstance(state, QuantumState) else np.asarray(state)
        rho = np.outer(data, data.conj()) if data.ndim == 1 else data
        for m, A in enumerate(ops):
            M = as_operator(A).matrix
            L, want = sld(state, A), _two_loop_sld(state, A)
            assert np.abs(L - want).max() <= 1e-13 * np.abs(want).max(), (name, m)
            if isinstance(state, QuantumState) and m < 2:   # J_x imaginary, J_y real
                assert not (L.real if m == 0 else L.imag).any(), (name, m)
            comm = 1j * (rho @ M - M @ rho)
            got = (L @ rho + rho @ L) / 2.0
            assert np.abs(got - comm).max() <= 1e-12 * max(1.0, np.abs(comm).max()), (name, m)
            F = qfi(state, A).value
            assert abs(np.trace(rho @ L @ L).real - F) <= 1e-12 * max(1.0, F), (name, m)
            assert abs(sld_trace(state, L) - F) <= 1e-12 * max(1.0, F), (name, m)


def _factor_norm_trace(state, L):
    """The former SLD trace, the oracle of the support and floor form:
    ||L R||_F^2 for the factor rho = R R^dag of the whole kept spectrum."""
    from qmetro.fisher import _eigensystem, _payload
    from qmetro.linalg import psd_factor
    X = L @ psd_factor(_eigensystem(state, _payload(state)))[1]
    return float(np.real(np.vdot(X, X)))


@pytest.mark.parametrize("lam0", [0.0, 1e-6, 1e-3])
def test_sld_trace_on_the_support_and_floor_matches_the_factor_norm(rng, lam0):
    """sum_i (l_i - l0) ||L u_i||^2 + l0 ||L||_F^2 agrees with ||L R||_F^2 within
    1e-12 relative (absolute where F_Q = 0, as on the singlets): random
    densities of rank 1 to 8 above a floor lam0, real and complex, with and
    without uncoupled indices, and white-noise GHZ-10, singlet-8, singlet-10
    and GHZ + Dicke at N = 200 under J_x, J_y, J_z and (1,1,1)/sqrt(3)."""
    from qmetro.config import FISHER_FLOOR
    from qmetro.spin import direction_op
    cases = []
    for n, rank, real, uncoupled in ((4, 1, True, False), (5, 3, False, True),
                                     (6, 8, True, True), (6, 2, False, False)):
        rho = _floor_density(rng, 2 ** n, rank, lam0, real, uncoupled)
        cases.append((f"{n}-{rank}", QuantumState(full_rep(n), rho), _generators(rng, 2 ** n)))
    if lam0 == 0.0:
        for name, state in (("mixed-10", mix_white_noise(ghz(10, full_rep(10)), 0.6)),
                            ("singlet-8", singlet_pi(8)), ("singlet-10", singlet_pi(10)),
                            ("ghz-dicke-200", ghz_dicke_density(200))):
            cases.append((name, state, [collective_op(a, state.rep) for a in "xyz"]
                          + [direction_op(np.ones(3) / np.sqrt(3), state.rep)]))
    for name, state, ops in cases:
        for A in ops:
            L = sld(state, A)
            want = _factor_norm_trace(state, L)
            tol = 1e-12 * (abs(want) if qfi(state, A).value > FISHER_FLOOR else 1.0)
            assert abs(sld_trace(state, L) - want) <= tol, (name, A)
