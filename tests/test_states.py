import numpy as np
import pytest

import qmetro.states
from qmetro import serialize
from qmetro.linalg import tridiagonal_ground_pairs
from qmetro.metrology import NoiseChannel, apply_noise, frontier_lambda_grid
from qmetro.spin import (collective_op, direction_op, full_rep, gradient_op, parity_op,
                         squared_op, symmetric_rep)
from qmetro.states import (QuantumState, SqueezingSpec, _parity_blocks, braket, dicke, evolve,
                           ghz, maximally_mixed, mix_white_noise, polarized, rotate,
                           singlet_pi, squeezed_ground_state, squeezed_ground_states,
                           to_full, trace_chain)
from qmetro.fisher import qfi, white_noise_qfi, bures_fidelity
from conftest import dicke_isometry, rand_density, rand_pure


def test_polarized_examples():
    st = polarized(4, "z")
    assert st.expectation(collective_op("z", st.rep)) == pytest.approx(2.0, abs=1e-12)
    assert st.variance(collective_op("x", st.rep)) == pytest.approx(1.0, abs=1e-12)
    one = polarized(1, "x", full_rep(1))
    assert one.expectation(collective_op("x", one.rep)) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_polarized_reps_agree(axis):
    sym = to_full(polarized(5, axis))
    full = polarized(5, axis, full_rep(5))
    assert abs(np.vdot(sym.data, full.data)) == pytest.approx(1.0, abs=1e-10)


def _symmetric_probes(rng, n):
    """Polarized states along x, y and z, GHZ states likewise (N >= 2), every
    Dicke state, squeezed states (even N) and random complex vectors of the
    symmetric sector."""
    probes = [polarized(n, a) for a in "xyz"] + [dicke(n, m) for m in range(n + 1)]
    if n >= 2:
        probes += [ghz(n, axis=a) for a in "xyz"]
    if n % 2 == 0:
        probes += squeezed_ground_states(n, [0.0, 1.0, 4.0 * n])
    return probes + [QuantumState(symmetric_rep(n), rand_pure(rng, n + 1)) for _ in range(3)]


@pytest.mark.parametrize("n", range(1, 13))
def test_to_full_is_the_dense_isometry_exactly(rng, n):
    """to_full embeds by index: equal, value for value, to B v and B rho B^dag
    with the dense isometry B (the signs of zeros aside)."""
    B = dicke_isometry(n)
    for st in _symmetric_probes(rng, n):
        got = to_full(st)
        assert got.rep == full_rep(n) and got.label == st.label
        assert np.array_equal(got.data, B @ st.data), st.label
    if n > 10:
        return
    rhos = [rand_density(rng, n + 1), rand_density(rng, n + 1, rank=2),
            polarized(n, "y").density(),
            0.3 * dicke(n, n // 2).density() + 0.7 * np.eye(n + 1) / (n + 1)]
    for rho in rhos:
        got = to_full(QuantumState(symmetric_rep(n), rho))
        assert np.array_equal(got.data, B @ rho @ B.conj().T)


def test_to_full_refuses_a_density_past_the_cap_before_its_gather():
    """A symmetric N = 12 density is refused with the full-density message
    before its 4096^2 gather (144 MB) is formed."""
    import tracemalloc
    st = maximally_mixed(symmetric_rep(12))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="density matrices limited to N <= 10"):
            to_full(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


def test_ghz_values():
    g = ghz(3)
    assert qfi(g, collective_op("x", g.rep)).value == pytest.approx(9.0, abs=1e-9)
    assert qfi(g, collective_op("y", g.rep)).value == pytest.approx(3.0, abs=1e-9)
    assert qfi(g, collective_op("z", g.rep)).value == pytest.approx(3.0, abs=1e-9)
    assert g.expectation(collective_op("z", g.rep)) == pytest.approx(0.0, abs=1e-12)


def _ladder_mean(v):
    """<J_+> of a symmetric-sector vector, from the ladder formula alone."""
    n = v.size - 1
    j = n / 2.0
    m = np.arange(n) - j
    return np.sum(np.sqrt(j * (j + 1) - m * (m + 1)) * v[1:].conj() * v[:-1])


@pytest.mark.parametrize("n", [68, 1000, 4096])
def test_large_n_coherent_and_ghz_states(n):
    # binomial weights beyond int64 (N >= 68) and 2^(N/2) beyond a double
    px, py, g = polarized(n, "x"), polarized(n, "y"), ghz(n)
    for st in (px, py, g):
        assert np.linalg.norm(st.data) == pytest.approx(1.0, abs=1e-12)
    assert _ladder_mean(px.data) == pytest.approx(n / 2, rel=1e-9)
    assert _ladder_mean(py.data) == pytest.approx(0.5j * n, rel=1e-9)
    pops = np.abs(g.data) ** 2
    m = np.arange(n + 1) - n / 2
    assert abs(pops @ m) <= 1e-9 * n
    assert pops @ m ** 2 == pytest.approx(n / 4, rel=1e-9)


def test_ghz_z_axis_form():
    g = ghz(4, axis="z")
    v = np.zeros(5)
    v[0] = v[4] = 1 / np.sqrt(2)
    assert np.abs(np.abs(g.data) - v).max() <= 1e-12
    assert qfi(g, collective_op("z", g.rep)).value == pytest.approx(16.0, abs=1e-9)


def test_ghz_reps_agree():
    sym = to_full(ghz(4, axis="x"))
    full = ghz(4, full_rep(4), axis="x")
    assert abs(np.vdot(sym.data, full.data)) == pytest.approx(1.0, abs=1e-10)


def _kron_loop(v, n):
    """The product-state builders' former Kronecker loop, the oracle of the
    full-space coherent states."""
    out = v
    for _ in range(n - 1):
        out = np.kron(out, v)
    return out


_PLUS_MINUS = {
    "x": (np.array([1, 1], dtype=complex) / np.sqrt(2),
          np.array([1, -1], dtype=complex) / np.sqrt(2)),
    "y": (np.array([1, 1j], dtype=complex) / np.sqrt(2),
          np.array([1, -1j], dtype=complex) / np.sqrt(2)),
    "z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
}


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_full_coherent_and_ghz_states_are_the_kronecker_loop_bitwise(axis):
    # the recorded tie picks of white-noise GHZ states depend on round-off,
    # so the Kronecker order is kept bit for bit
    plus, minus = _PLUS_MINUS[axis]
    for n in range(1, 13):
        rep = full_rep(n)
        up, down = _kron_loop(plus, n), _kron_loop(minus, n)
        assert np.array_equal(polarized(n, axis, rep).data.view(np.uint64), up.view(np.uint64))
        if n >= 2:
            want = (up + down) / np.linalg.norm(up + down)
            assert np.array_equal(ghz(n, rep, axis).data.view(np.uint64), want.view(np.uint64))


def test_dicke_moments_and_qfi():
    d = dicke(4, 2)
    rep = d.rep
    Jx, Jy, Jz = (collective_op(a, rep) for a in "xyz")
    assert d.expectation(Jx.matrix @ Jx.matrix) == pytest.approx(3.0, abs=1e-12)
    assert d.expectation(Jy.matrix @ Jy.matrix) == pytest.approx(3.0, abs=1e-12)
    assert d.expectation(Jz.matrix @ Jz.matrix) == pytest.approx(0.0, abs=1e-12)
    assert qfi(d, Jx).value == pytest.approx(12.0, abs=1e-9)


def test_dicke_m0_is_polarized():
    d = dicke(5, 0)
    assert np.abs(np.abs(d.data) - np.abs(polarized(5, "z").data)).max() <= 1e-12


def test_dicke_full_rep_matches():
    sym = to_full(dicke(4, 1))
    full = dicke(4, 1, full_rep(4))
    assert abs(np.vdot(sym.data, full.data)) == pytest.approx(1.0, abs=1e-10)


def test_dicke_half_maximizes_planar_moment():
    n = 6
    rep = symmetric_rep(n)
    Jx, Jy = collective_op("x", rep), collective_op("y", rep)
    planar = Jx.matrix @ Jx.matrix + Jy.matrix @ Jy.matrix
    top = dicke(n, n // 2).expectation(planar)
    assert top == pytest.approx(n * (n + 2) / 4, abs=1e-9)
    for other in (polarized(n, "z"), ghz(n), dicke(n, 1)):
        assert other.expectation(planar) <= top + 1e-9


def test_singlet_two_qubits_exact():
    st = singlet_pi(2)
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    assert np.abs(st.data - np.outer(psi, psi.conj())).max() <= 1e-12


def test_singlet_moments_vanish():
    st = singlet_pi(4)
    for axis in "xyz":
        J = collective_op(axis, st.rep)
        assert abs(st.expectation(J)) <= 1e-9
        assert abs(st.variance(J)) <= 1e-9


def test_singlet_rotation_invariance(rng):
    st = singlet_pi(4)
    from qmetro.spin import direction_op
    for _ in range(3):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        rotated = rotate(st, direction_op(n, st.rep), rng.uniform(0, 2 * np.pi))
        assert np.abs(rotated.data - st.data).max() <= 1e-9


def test_singlet_rejects_odd():
    with pytest.raises(ValueError, match="even"):
        singlet_pi(3)


def test_singlet_size_cap():
    # refused before any 2^N x 2^N matrix is built
    with pytest.raises(ValueError, match="limited to N <= 10"):
        singlet_pi(12)


def test_squeezed_limits():
    n = 8
    strong = squeezed_ground_state(SqueezingSpec(n, 1e6))
    overlap = abs(np.vdot(strong.data, polarized(n, "z").data)) ** 2
    assert overlap > 0.999
    flat = squeezed_ground_state(SqueezingSpec(n, 0.0))
    # ground state of J_x^2 alone: the zero-eigenvalue x basis state
    Jx = collective_op("x", flat.rep)
    assert abs(flat.expectation(Jx.matrix @ Jx.matrix)) <= 1e-10


def test_squeezed_heisenberg_relation():
    for lam in (0.5, 3.0, 40.0):
        st = squeezed_ground_state(SqueezingSpec(10, lam))
        vx = st.variance(collective_op("x", st.rep))
        vy = st.variance(collective_op("y", st.rep))
        mz = st.expectation(collective_op("z", st.rep))
        assert vx * vy >= mz ** 2 / 4 - 1e-9


def test_squeezed_is_squeezed():
    st = squeezed_ground_state(SqueezingSpec(20, 4.0))
    vx = st.variance(collective_op("x", st.rep))
    mz = st.expectation(collective_op("z", st.rep))
    assert vx < abs(mz) / 2


EPS = np.finfo(float).eps
SQUEEZING_SIZES = [2, 4, 10, 100, 1000, 4096]


@pytest.mark.parametrize("n", SQUEEZING_SIZES)
def test_squeezed_residuals_on_the_frontier_grid(n):
    """|H v - <H> v| <= 16 eps ||H|| for H = J_x^2 - lam J_z, with ||H|| at
    least max(N^2/4, lam N/2 + N/4), the energies of the x-polarized and
    the -z-polarized states."""
    rep = symmetric_rep(n)
    Jx, Jz = collective_op("x", rep), collective_op("z", rep)
    lams = frontier_lambda_grid(n, 64)
    for st, lam in zip(squeezed_ground_states(n, lams), lams):
        v = st.data
        assert not v.imag.any()
        Hv = Jx.apply(Jx.apply(v)) - lam * Jz.apply(v)
        resid = np.linalg.norm(Hv - np.vdot(v, Hv).real * v)
        assert resid <= 16 * EPS * max(n * n / 4, lam * n / 2 + n / 4), f"lam={lam:g}"


@pytest.mark.parametrize("n", SQUEEZING_SIZES)
def test_squeezed_block_eigenvalues_match_lapack(n):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    lams = frontier_lambda_grid(n, 64)
    for idx, d, e in _parity_blocks(n, lams):
        vals, _ = tridiagonal_ground_pairs(d, e)
        for k, lam in enumerate(lams):
            want = scipy_linalg.eigh_tridiagonal(d[k], e, eigvals_only=True,
                                                 select="i", select_range=(0, 0))[0]
            norm = np.abs(d[k]).max() + 2 * (e.max() if e.size else 0.0)
            assert abs(vals[k] - want) <= 16 * EPS * norm, f"lam={lam:g}, block {idx[0]}"


@pytest.mark.parametrize("n", [10, 4096])
def test_squeezed_batch_rows_are_their_single_solves(n):
    # 64 values at N = 4096 span three internal batches
    lams = frontier_lambda_grid(n, 64)
    for st, lam in zip(squeezed_ground_states(n, lams), lams):
        one = squeezed_ground_state(SqueezingSpec(n, lam))
        assert np.array_equal(st.data, one.data) and st.label == one.label


@pytest.mark.parametrize("lam", [np.inf, np.nan, 1e308])
def test_squeezed_spec_refuses_a_non_finite_weight(lam):
    with pytest.raises(ValueError, match="must be finite"):
        SqueezingSpec(10, lam)


def test_squeezed_block_tie_warns_and_keeps_the_top_block(monkeypatch):
    """Equal block eigenvalues warn, and the state of the block holding
    m = N/2 (even Dicke indices) is returned with its largest entry positive."""
    def tied(d, e):
        vals, vecs = tridiagonal_ground_pairs(d, e)
        return np.zeros_like(vals), vecs
    monkeypatch.setattr(qmetro.states, "tridiagonal_ground_pairs", tied)
    with pytest.warns(UserWarning, match="nearly degenerate ground space"):
        st = squeezed_ground_state(SqueezingSpec(8, 2.0))
    v = st.data.real
    assert not v[1::2].any() and v[np.argmax(np.abs(v))] > 0


def test_white_noise_endpoints():
    g = ghz(2, full_rep(2))
    assert np.abs(mix_white_noise(g, 1.0).data - g.density()).max() <= 1e-12
    flat = mix_white_noise(g, 0.0)
    assert np.abs(flat.data - np.eye(4) / 4).max() <= 1e-12
    assert qfi(flat, collective_op("x", flat.rep)).value <= 1e-12


def test_white_noise_ghz2_frozen_value():
    # frozen from the eigendecomposition route: 4 p^2 Var / (p + 2(1-p)/D)
    g = ghz(2, full_rep(2), axis="x")
    Jx = collective_op("x", full_rep(2))
    noisy = mix_white_noise(g, 0.5)
    direct = qfi(noisy, Jx).value
    closed = white_noise_qfi(g, Jx, 0.5)
    assert direct == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert closed == pytest.approx(direct, abs=1e-9)


def test_white_noise_qfi_at_p_one_is_the_qfi_of_the_vector():
    """Var(A) from the residual pair sum of qfi, not <A^2> - <A>^2, which was
    3.7e-10 relative off on this squeezed vector."""
    sq = squeezed_ground_state(SqueezingSpec(1000, 500.0))
    Jz = collective_op("z", sq.rep)
    want = qfi(sq, Jz).value
    assert abs(white_noise_qfi(sq, Jz, 1.0) - want) <= 1e-12 * want


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "density"])
def test_white_noise_payload_is_the_dense_sum_bitwise(pure):
    """The in-place build keeps every bit of p rho + (1 - p) I / dim, signed
    zeros included: the sum turned each -0.0 of rho into +0.0."""
    g = ghz(10, full_rep(10)) if pure else mix_white_noise(ghz(10, full_rep(10), axis="y"), 0.3)
    for p in (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        dim = g.rep.dim
        want = p * g.density() + (1 - p) * np.eye(dim) / dim
        got = mix_white_noise(g, p)
        got_bits, want_bits = (np.asarray(x, dtype=complex).tobytes() for x in (got.data, want))
        assert got_bits == want_bits, p
        assert got.label == f"{g.label}+noise({p:g})"


def _float64_payload(state) -> bool:
    d = state.data
    return d.dtype == np.float64 and d.flags.c_contiguous and not d.flags.writeable


def test_real_densities_are_stored_as_float64():
    """A density whose every imaginary part is +0.0 is kept as its real part,
    C-contiguous float64: the builders hand over real arrays, and a complex
    array with +0.0 imaginary parts is narrowed with every real bit kept."""
    full = full_rep(6)
    built = [mix_white_noise(ghz(6, full), p) for p in (0.0, 0.6, 1.0)]
    built += [mix_white_noise(ghz(6, full, axis="y"), 0.3), singlet_pi(6),
              maximally_mixed(full), maximally_mixed(symmetric_rep(4)),
              to_full(QuantumState(symmetric_rep(4), np.eye(5) / 5))]
    for state in built:
        assert _float64_payload(state), state.label
    rho = np.array(mix_white_noise(ghz(6, full), 0.6).data, dtype=complex)
    rho[rho == 0] = -0.0        # negative zeros in the real part stay as they are
    narrowed = QuantumState(full, rho)
    assert _float64_payload(narrowed)
    assert np.array_equal(narrowed.data.view(np.uint64), rho.real.view(np.uint64))
    # a column-major real array becomes C-contiguous
    fortran = QuantumState(full, np.asfortranarray(singlet_pi(6).data))
    assert _float64_payload(fortran)
    assert np.array_equal(fortran.data.view(np.uint64), singlet_pi(6).data.view(np.uint64))


def _with_imaginary_entry(value):
    """A 16 x 16 complex density with one off-diagonal pair (i, j), (j, i)
    whose imaginary parts are value and +0.0 or -value."""
    rho = np.eye(16, dtype=complex) / 16
    rho[3, 12] = complex(0.01, value)
    rho[12, 3] = complex(0.01, -value if value else 0.0)
    return rho


@pytest.mark.parametrize("value", [-0.0, 1e-300, 0.01])
def test_densities_with_another_imaginary_part_stay_complex(value):
    """One imaginary entry other than +0.0, even -0.0, keeps the density
    complex128, bit for bit as given."""
    rho = _with_imaginary_entry(value)
    state = QuantumState(full_rep(4), rho)
    assert state.data.dtype == np.complex128 and not state.data.flags.writeable
    assert np.array_equal(state.data.view(np.uint64), rho.view(np.uint64))


def test_vectors_stay_complex():
    """Every pure state is complex128, real vectors included."""
    vectors = [dicke(6, 3), dicke(6, 2, full_rep(6)), ghz(6, full_rep(6)), polarized(4, "z"),
               squeezed_ground_state(SqueezingSpec(6, 2.0)),
               QuantumState(symmetric_rep(3), np.array([1.0, 0.0, 0.0, 0.0]))]
    for state in vectors:
        assert state.data.dtype == np.complex128, state.label


def test_psd_check_of_uncoupled_indices():
    """An uncoupled index is a 1 x 1 block of the Cholesky factor: it passes
    when its diagonal entry lies above PSD_FLOOR."""
    from qmetro.config import PSD_FLOOR
    QuantumState(full_rep(1), np.diag([1.0 - PSD_FLOOR / 2, PSD_FLOOR / 2]).astype(complex))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        QuantumState(full_rep(1), np.diag([1.0 - 2 * PSD_FLOOR, 2 * PSD_FLOOR]).astype(complex))
    # a PSD coupled block beside a negative uncoupled entry
    rho = np.zeros((4, 4), dtype=complex)
    rho[np.ix_([0, 2], [0, 2])] = [[0.5, 0.25], [0.25, 0.5]]
    rho[1, 1], rho[3, 3] = 0.1, -0.1
    with pytest.raises(ValueError, match="negative eigenvalue -1"):
        QuantumState(full_rep(2), rho)
    rho[1, 1], rho[3, 3] = 0.0, 0.0
    QuantumState(full_rep(2), rho)
    # and a negative coupled block beside uncoupled entries
    rho[np.ix_([0, 2], [0, 2])] = [[0.5, 0.75], [0.75, 0.5]]
    with pytest.raises(ValueError, match="negative eigenvalue"):
        QuantumState(full_rep(2), rho)


def _asymmetric_density(defect):
    rho = np.diag([0.5, 0.5])
    rho[0, 1] = defect
    return rho


def _density_file(path, rho):
    """A state file written by hand, for a density no QuantumState accepts."""
    pairs = [[[float(x), 0.0] for x in row] for row in rho]
    path.write_text(serialize.dumps_canonical({
        "data": pairs, "format": "qmetro-state/1", "kind": "density", "label": "hand",
        "n_qubits": 1, "representation": "full"}))
    return str(path)


def test_one_hermiticity_rule_for_states_and_fisher(tmp_path):
    # within linalg.require_hermitian's tolerance: the state, its file and its QFI
    ok = _asymmetric_density(5e-12)
    st = QuantumState(full_rep(1), ok)
    back = serialize.read_state(_density_file(tmp_path / "ok.json", ok))
    assert np.array_equal(back.data, st.data)
    for s in (st, back):
        assert qfi(s, collective_op("x", s.rep)).value >= 0.0
    # beyond it: refused when the state is built, not later by the Fisher stage
    bad = _asymmetric_density(5e-11)
    with pytest.raises(ValueError, match="not Hermitian"):
        QuantumState(full_rep(1), bad)
    with pytest.raises(ValueError, match="not Hermitian"):
        serialize.read_state(_density_file(tmp_path / "bad.json", bad))


def test_density_builders_share_the_cap():
    rep = full_rep(11)
    with pytest.raises(ValueError, match="limited to N <= 10"):
        mix_white_noise(polarized(11, "z", rep), 0.5)
    with pytest.raises(ValueError, match="limited to N <= 10"):
        maximally_mixed(rep)
    with pytest.raises(ValueError, match="limited to N <= 10"):
        apply_noise(polarized(11, "z", rep), NoiseChannel("depolarizing", p=0.1))


def test_white_noise_rejects_bad_p():
    g = ghz(2, full_rep(2))
    with pytest.raises(ValueError, match="0, 1"):
        mix_white_noise(g, 1.5)


def test_density_invariants_enforced():
    bad = np.diag([0.7, 0.4]).astype(complex)
    with pytest.raises(ValueError, match="trace"):
        QuantumState(full_rep(1), bad)
    unnorm = np.array([1.0, 1.0], dtype=complex)
    with pytest.raises(ValueError, match="normalis"):
        QuantumState(full_rep(1), unnorm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_payload_rejected(bad):
    v = np.array([1.0, 0.0], dtype=complex)
    v[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        QuantumState(full_rep(1), v)
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        QuantumState(full_rep(1), rho)


def test_maximally_mixed_purity():
    mm = maximally_mixed(full_rep(3))
    assert mm.purity() == pytest.approx(1 / 8, abs=1e-12)


def test_fidelity_shortcuts(rng):
    a = polarized(3, "z", full_rep(3))
    b = polarized(3, "x", full_rep(3))
    assert a.fidelity_with(a) == pytest.approx(1.0, abs=1e-12)
    assert a.fidelity_with(b) == pytest.approx(abs(np.vdot(a.data, b.data)) ** 2, abs=1e-12)
    assert bures_fidelity(a, b) == pytest.approx(a.fidelity_with(b), abs=1e-10)


def test_fidelity_with_keeps_the_former_shortcuts_bitwise():
    """fidelity_with is bures_fidelity, whose pure-state shortcuts are the
    expressions fidelity_with evaluated itself."""
    a = polarized(3, "z", full_rep(3))
    b = polarized(3, "x", full_rep(3))
    m = mix_white_noise(ghz(3, full_rep(3)), 0.7)
    assert a.fidelity_with(b) == float(abs(np.vdot(a.data, b.data)) ** 2)
    shortcut = float(np.real(np.vdot(a.data, m.data @ a.data)))
    assert a.fidelity_with(m) == shortcut and m.fidelity_with(a) == shortcut
    assert m.fidelity_with(m) == bures_fidelity(m, m)


def _former_brakets(data, A, M):
    """Every (left, right) pair of error_propagation with its value by the
    expression it had before ``braket``: vdots of applied vectors for a
    vector, ``trace_chain`` for a density."""
    if data.ndim == 1:
        a, m = A.apply(data), M.apply(data)
        a2, ma = A.apply(a), M.apply(a)
        return {((), (M,)): np.vdot(data, m), ((M,), (M,)): np.vdot(m, m),
                ((A,), (M,)): np.vdot(a, m), ((A,), (A, M)): np.vdot(a, ma),
                ((A, A), (M,)): np.vdot(a2, m), ((A, M), (A, M)): np.vdot(ma, ma),
                ((A, A), (M, M)): np.vdot(a2, M.apply(m))}
    mean, second = trace_chain(data, (M, M))
    return {((), (M,)): mean, ((M,), (M,)): second,
            ((A,), (M,)): trace_chain(data, (M, A))[1],
            ((A,), (A, M)): trace_chain(data, (A, M, A))[-1],
            ((A, A), (M,)): trace_chain(data, (M, A, A))[-1],
            ((A, M), (A, M)): trace_chain(data, (A, M, M, A))[-1],
            ((A, A), (M, M)): trace_chain(data, (M, M, A, A))[-1]}


def test_braket_keeps_every_bit_of_the_former_expressions(rng):
    """<L psi|R psi> and Tr(L^dag R rho) equal the vdots and chains they
    replaced bit for bit, at the state and rotated away from it."""
    sym, g6, g8, g4 = symmetric_rep(8), full_rep(6), full_rep(8), full_rep(4)
    cases = [(dicke(8, 4).data, collective_op("y", sym), squared_op(collective_op("z", sym))),
             (ghz(6, g6).data, gradient_op(g6), squared_op(collective_op("z", g6))),
             (singlet_pi(8).data, gradient_op(g8), squared_op(collective_op("z", g8))),
             (mix_white_noise(ghz(6, g6, axis="z"), 0.6).data, collective_op("z", g6),
              parity_op("x", g6)),
             (rand_density(rng, g4.dim, rank=3),
              direction_op(np.array([1.0, 1.0, 0.0]) / np.sqrt(2), g4),
              squared_op(collective_op("y", g4)))]
    for probe, A, M in cases:
        for data in (probe, evolve(A, 0.3, probe)):
            for (left, right), want in _former_brakets(data, A, M).items():
                got = braket(data, left, right)
                assert (np.array([got]).view(np.uint64) == np.array([want]).view(np.uint64)).all(), \
                    (A, M, len(left), len(right))
