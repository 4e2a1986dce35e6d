import tracemalloc

import numpy as np
import pytest

from qmetro.spin import (Representation, _popcount, collective_op, direction_op, full_rep,
                         gradient_op, parity_op, symmetric_rep)
from qmetro.states import dicke, polarized, rotate, singlet_pi, to_full
from conftest import dicke_isometry, rand_pure


@pytest.mark.parametrize("rep", [symmetric_rep(6), full_rep(6)])
def test_commutation_relations(rep):
    Jx, Jy, Jz = (collective_op(a, rep).matrix for a in "xyz")
    assert np.abs(Jx @ Jy - Jy @ Jx - 1j * Jz).max() <= 1e-10


def test_symmetric_jz_is_diagonal_ladder():
    J = collective_op("z", symmetric_rep(5)).matrix
    assert np.allclose(J, np.diag(np.arange(6) - 2.5))


def test_polarized_moments():
    st = polarized(7, "z")
    Jz = collective_op("z", st.rep)
    Jx = collective_op("x", st.rep)
    assert st.expectation(Jz) == pytest.approx(3.5, abs=1e-12)
    assert st.variance(Jx) == pytest.approx(7 / 4, abs=1e-12)


def test_size_limits():
    with pytest.raises(ValueError, match="N <= 12"):
        Representation("full", 13)
    with pytest.raises(ValueError, match="N <= 4096"):
        Representation("symmetric", 5000)


def test_direction_reduces_to_axis():
    rep = symmetric_rep(4)
    Jn = direction_op((0.0, 0.0, 1.0), rep)
    assert np.abs(Jn.matrix - collective_op("z", rep).matrix).max() <= 1e-12


def test_direction_linearity_and_spectrum(rng):
    rep = symmetric_rep(6)
    n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    Jn = direction_op(n, rep).matrix
    manual = sum(n[i] * collective_op(a, rep).matrix for i, a in enumerate("xyz"))
    assert np.abs(Jn - manual).max() <= 1e-12
    w = np.linalg.eigvalsh(Jn)
    assert w.min() == pytest.approx(-3.0, abs=1e-9)
    assert w.max() == pytest.approx(3.0, abs=1e-9)


def test_direction_requires_unit_norm():
    with pytest.raises(ValueError, match="unit norm"):
        direction_op((1.0, 1.0, 0.0), symmetric_rep(2))


def test_gradient_generator_small_n():
    rep1 = full_rep(1)
    g1 = gradient_op(rep1)
    assert np.abs(g1.matrix - collective_op("y", rep1).matrix).max() <= 1e-12
    rep2 = full_rep(2)
    jy = np.array([[0, -1j], [1j, 0]]) / 2
    expected = np.kron(jy, np.eye(2)) + 2 * np.kron(np.eye(2), jy)
    assert np.abs(gradient_op(rep2).matrix - expected).max() <= 1e-12


def test_gradient_rejects_symmetric():
    with pytest.raises(ValueError, match="full"):
        gradient_op(symmetric_rep(4))


def test_singlet_blind_to_gradient_mean():
    st = singlet_pi(4)
    g = gradient_op(st.rep)
    assert abs(st.expectation(g)) <= 1e-9


def test_casimir_saturated_on_symmetric_states(rng):
    n = 8
    rep = symmetric_rep(n)
    ops = [collective_op(a, rep).matrix for a in "xyz"]
    total = sum(J @ J for J in ops)
    from qmetro.states import QuantumState
    v = rand_pure(rng, n + 1)
    st = QuantumState(rep, v)
    assert st.expectation(total) == pytest.approx(n * (n + 2) / 4, abs=1e-9)


def test_casimir_bounded_on_full_states(rng):
    n = 6
    rep = full_rep(n)
    total = sum(collective_op(a, rep).matrix @ collective_op(a, rep).matrix for a in "xyz")
    from qmetro.states import QuantumState
    for _ in range(20):
        st = QuantumState(rep, rand_pure(rng, 2 ** n))
        assert st.expectation(total) <= n * (n + 2) / 4 + 1e-9


def test_variance_second_moment_identity(rng):
    rep = full_rep(4)
    from qmetro.states import QuantumState
    st = QuantumState(rep, rand_pure(rng, 16))
    J = collective_op("y", rep)
    second = st.expectation(J.matrix @ J.matrix)
    assert st.variance(J) + st.expectation(J) ** 2 == pytest.approx(second, abs=1e-12)


def test_operator_cache_returns_same_matrix():
    a = collective_op("x", symmetric_rep(5)).matrix
    b = collective_op("x", symmetric_rep(5)).matrix
    assert a is b
    assert not a.flags.writeable


def test_collective_op_is_cached_and_caches_are_bounded():
    import qmetro.spin
    import qmetro.states
    rep = symmetric_rep(7)
    assert collective_op("y", rep) is collective_op("y", rep)
    for module in (qmetro.spin, qmetro.states):
        cached = [f for f in vars(module).values() if hasattr(f, "cache_info")]
        assert cached
        for f in cached:
            assert f.cache_info().maxsize is not None, f.__name__


def test_parity_symmetric_matches_full():
    n = 4
    B = dicke_isometry(n)
    P_full = parity_op("x", full_rep(n)).matrix
    P_sym = parity_op("x", symmetric_rep(n)).matrix
    assert np.abs(B.conj().T @ P_full @ B - P_sym).max() <= 1e-12


def test_rotation_preserves_norm_and_moves_polarization():
    st = polarized(6, "z")
    Jy = collective_op("y", st.rep)
    Jx = collective_op("x", st.rep)
    rotated = rotate(st, Jy, np.pi / 2)
    assert rotated.expectation(Jx) == pytest.approx(3.0, abs=1e-9)
    assert np.linalg.norm(rotated.data) == pytest.approx(1.0, abs=1e-12)


def test_rotate_rejects_rep_mismatch():
    st = polarized(4, "z", symmetric_rep(4))
    with pytest.raises(ValueError, match="mismatch"):
        rotate(st, collective_op("y", full_rep(4)), 0.1)


def test_embedding_consistency_of_moments():
    st = dicke(6, 3)
    full = to_full(st)
    for axis in "xyz":
        sym_val = st.expectation(collective_op(axis, st.rep))
        full_val = full.expectation(collective_op(axis, full.rep))
        assert sym_val == pytest.approx(full_val, abs=1e-10)


@pytest.mark.parametrize("n_vec", [(np.nan, 0.0, 1.0), (0.0, -np.inf, 0.0)])
def test_direction_rejects_non_finite_entries(n_vec):
    # NaN fails every comparison, so the unit-norm check alone let it through
    with pytest.raises(ValueError, match="finite"):
        direction_op(n_vec, symmetric_rep(2))


def test_popcount_counts_the_one_bits():
    for n in range(13):
        want = np.array([bin(i).count("1") for i in range(2 ** n)])
        assert np.array_equal(_popcount(n), want), n


def test_popcount_holds_no_bit_table():
    """At N = 16 the result is 0.5 MB; a (2^N, N) int64 table would be 8 MB."""
    tracemalloc.start()
    try:
        count = _popcount(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * count.nbytes, f"{peak / count.nbytes:.1f} x the result"
