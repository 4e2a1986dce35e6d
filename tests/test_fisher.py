import numpy as np
import pytest

from qmetro.config import FD_STEP
from qmetro.fisher import (Povm, bures_fidelity, classical_fisher,
                           concave_roof_oracle, convex_roof_oracle, crb_matrix,
                           fisher_matrix, mandelstam_tamm_check, qfi,
                           qfi_alternative, qfi_pure, roof_sandwich_check, sld,
                           white_noise_qfi, wigner_yanase, zeno_time)
from qmetro.spin import collective_op, full_rep, parity_op, symmetric_rep
from qmetro.states import (QuantumState, dicke, ghz, maximally_mixed,
                           mix_white_noise, polarized, rotate)
from conftest import rand_density, rand_hermitian, rand_pure, rand_unitary


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
    assert qfi_pure(d, collective_op("x", d.rep)) == pytest.approx(12.0, abs=1e-9)
    # an eigenstate of the generator carries no phase information
    st = polarized(5, "z")
    assert qfi_pure(st, collective_op("z", st.rep)) == pytest.approx(0.0, abs=1e-12)
    g = ghz(6)
    assert qfi_pure(g, collective_op("z", g.rep)) == pytest.approx(6.0, abs=1e-9)


def test_qfi_pure_rejects_mixed():
    mm = maximally_mixed(symmetric_rep(2))
    with pytest.raises(ValueError, match="pure"):
        qfi_pure(mm, collective_op("x", mm.rep))


def test_qfi_rep_mismatch_rejected():
    st = polarized(3, "z", symmetric_rep(3))
    with pytest.raises(ValueError, match="mismatch"):
        qfi(st, collective_op("x", full_rep(3)))


@pytest.mark.parametrize("call", [
    lambda st, J: white_noise_qfi(st, J, 0.5),
    lambda st, J: convex_roof_oracle(st, J, restarts=1),
    lambda st, J: concave_roof_oracle(st, J, restarts=1),
    lambda st, J: roof_sandwich_check(st, J, np.array([1.0]), st.data[:, None]),
], ids=["white_noise_qfi", "convex_roof_oracle", "concave_roof_oracle",
        "roof_sandwich_check"])
def test_rep_mismatch_of_equal_dimension_rejected(call):
    # symmetric N = 3 and full N = 2 both have dimension 4
    st = polarized(3, "x", symmetric_rep(3))
    with pytest.raises(ValueError, match="representation mismatch"):
        call(st, collective_op("z", full_rep(2)))


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
    F = classical_fisher(lambda th: rotate(st, Jy, th), povm, 0.0)
    assert F.value <= 1e-12


def test_sld_basis_is_optimal_ramsey():
    st = polarized(4, "z")
    Jy = collective_op("y", st.rep)
    povm = Povm.from_observable_eigenbasis(sld(st, Jy))
    F = classical_fisher(lambda th: rotate(st, Jy, th), povm, 0.0)
    assert F.value == pytest.approx(4.0, rel=1e-6)


def test_populations_blind_to_ghz_phase():
    g = ghz(3, axis="z")
    Jz = collective_op("z", g.rep)
    povm = Povm.from_observable_eigenbasis(Jz)
    F = classical_fisher(lambda th: rotate(g, Jz, th), povm, 0.0)
    assert F.value <= 1e-12


def test_parity_basis_reaches_heisenberg_at_origin():
    g = ghz(4, axis="z")
    Jz = collective_op("z", g.rep)
    povm = Povm.from_observable_eigenbasis(parity_op("x", g.rep))
    F = classical_fisher(lambda th: rotate(g, Jz, th), povm, 0.0)
    assert F.value == pytest.approx(16.0, rel=1e-6)


def test_zero_probability_outcome_reuses_the_forward_step():
    """The one-sided limit of a vanishing outcome reads the family at
    theta0 + h from the central difference: four evaluations, not five, and
    the value it had with five."""
    st = polarized(2, "z")
    Jy = collective_op("y", st.rep)
    calls = []

    def family(theta):
        calls.append(theta)
        return rotate(st, Jy, theta)

    F = classical_fisher(family, Povm.from_observable_eigenbasis(collective_op("z", st.rep)), 0.0)
    assert calls == [0.0, FD_STEP, -FD_STEP, 2 * FD_STEP]
    assert F.value == 1.9999999995333337


def test_povm_validation():
    with pytest.raises(ValueError, match="identity"):
        Povm([np.eye(2, dtype=complex) * 0.5])
    with pytest.raises(ValueError, match="PSD"):
        Povm([np.diag([2.0, 1.0]).astype(complex),
              np.diag([-1.0, 0.0]).astype(complex)])


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


def test_speed_bound_window_enforced():
    g = ghz(8)
    with pytest.raises(ValueError, match="pi"):
        mandelstam_tamm_check(g, collective_op("x", g.rep), 1.0)


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


# ------------------------------------------------- zeno time

def test_zeno_values():
    for n in (3, 6, 10):
        g = ghz(n)
        assert zeno_time(g, collective_op("x", g.rep)) == pytest.approx(2 / n, abs=1e-12)
    st = polarized(9, "z")
    assert zeno_time(st, collective_op("y", st.rep)) == pytest.approx(2 / 3, abs=1e-9)
    mm = maximally_mixed(symmetric_rep(4))
    assert zeno_time(mm, collective_op("x", mm.rep)) == np.inf


# ------------------------------------------------- roofs

def test_roofs_on_pure_input(rng):
    psi = rand_pure(rng, 4)
    A = rand_hermitian(rng, 4)
    var = np.real(np.vdot(psi, A @ A @ psi)) - np.real(np.vdot(psi, A @ psi)) ** 2
    cv = convex_roof_oracle(psi, A, cardinality=2, restarts=4)
    cc = concave_roof_oracle(psi, A, cardinality=2, restarts=4)
    assert cv.value == pytest.approx(var, abs=1e-8)
    assert cc.value == pytest.approx(var, abs=1e-8)


def test_roofs_maximally_mixed_qubit():
    rho = np.eye(2) / 2
    A = np.diag([0.5, -0.5])
    cv = convex_roof_oracle(rho, A, cardinality=2, restarts=8)
    cc = concave_roof_oracle(rho, A, cardinality=2, restarts=8)
    assert cv.value == pytest.approx(0.0, abs=1e-9)   # z eigenstates
    assert cc.value == pytest.approx(0.25, abs=1e-9)  # x eigenstates


def test_roof_theorem_random_rank2(rng):
    for _ in range(4):
        rho = rand_density(rng, 4, rank=2)
        A = rand_hermitian(rng, 4)
        m = np.real(np.trace(A @ rho))
        var = np.real(np.trace(A @ A @ rho)) - m ** 2
        cv = convex_roof_oracle(rho, A, cardinality=4)
        cc = concave_roof_oracle(rho, A, cardinality=4)
        assert cv.value == pytest.approx(qfi(rho, A).value / 4, abs=1e-4)
        assert cc.value == pytest.approx(var, abs=1e-4)


def test_roof_cardinality_below_rank_rejected(rng):
    rho = rand_density(rng, 4, rank=3)
    A = rand_hermitian(rng, 4)
    with pytest.raises(ValueError, match="cardinality"):
        convex_roof_oracle(rho, A, cardinality=2)


def test_roof_decomposition_is_valid(rng):
    rho = rand_density(rng, 4, rank=2)
    A = rand_hermitian(rng, 4)
    cv = convex_roof_oracle(rho, A, cardinality=4, restarts=8)
    chk = roof_sandwich_check(rho, A, cv.weights, cv.vectors)
    assert chk.holds
    assert chk.average_variance == pytest.approx(cv.value, abs=1e-9)
    assert chk.average_variance <= chk.lower + 1e-4  # optimizer hit the floor


def test_roof_sandwich_on_eigendecomposition(rng):
    rho = rand_density(rng, 5)
    A = rand_hermitian(rng, 5)
    w, V = np.linalg.eigh(rho)
    chk = roof_sandwich_check(rho, A, w, V)
    assert chk.holds
    assert chk.lower <= chk.average_variance + 1e-8
    assert chk.average_variance <= chk.upper + 1e-8


def test_roof_sandwich_rejects_bad_decomposition(rng):
    rho = rand_density(rng, 4)
    A = rand_hermitian(rng, 4)
    with pytest.raises(ValueError, match="reproduce"):
        roof_sandwich_check(rho, A, np.array([1.0]),
                            np.array([[1.0], [0], [0], [0]], dtype=complex))
