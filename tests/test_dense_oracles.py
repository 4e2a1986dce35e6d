"""Structured and matrix-vector paths checked against dense constructions.

The library never multiplies two dense operators or eigendecomposes one
for pure states and symmetric-sector ground states, builds full-space
operators by bit-flip indexing instead of Kronecker products, and takes
real densities through real arithmetic.  The dense and complex forms it
replaced are kept here as oracles.
"""

from functools import reduce
from math import comb

import numpy as np
import pytest

import qmetro.states
from qmetro.cli import main
from qmetro.fisher import (_eigensystem, fisher_matrix, mandelstam_tamm_check, qfi,
                           qfi_alternative, sld, wigner_yanase)
from qmetro.linalg import (coupled_indices, eigh_hermitian, real_if_exact, unitary_apply,
                           unitary_exp)
from qmetro.metrology import (NoiseChannel, Scenario, _couple_mixed_qubit, _depolarized_blocks,
                              _noisy_precision, _partial_trace, apply_noise, depolarized_qfi,
                              dicke_scenario, error_propagation,
                              frontier_lambda_grid, ghz_parity_scenario,
                              noisy_moments, ramsey_scenario, squared_op)
from qmetro.serialize import write_state
from qmetro.spin import (PAULI, CollectiveOperator, Representation, _SiteSum, collective_op,
                         direction_op, full_rep, gradient_op, parity_op, single_site_op,
                         symmetric_rep)
from qmetro.states import (QuantumState, SqueezingSpec, evolve, ghz, mix_white_noise,
                           polarized, rotate, singlet_pi, squeezed_ground_state, to_full)
from qmetro.witnesses import avg_two_particle_dm, moments, moments_from_two_particle
from conftest import rand_density, rand_hermitian, rand_pure


def _dense_ground_state(n, lam):
    Jx = collective_op("x", symmetric_rep(n)).matrix
    Jz = collective_op("z", symmetric_rep(n)).matrix
    _, vecs = np.linalg.eigh(Jx @ Jx - lam * Jz)
    return vecs[:, 0]


@pytest.mark.parametrize("n", [2, 10, 100])
def test_tridiagonal_ground_state_matches_dense_eigh(n):
    for lam in frontier_lambda_grid(n):
        v = squeezed_ground_state(SqueezingSpec(n, lam)).data
        overlap = abs(np.vdot(_dense_ground_state(n, lam), v)) ** 2
        assert overlap >= 1 - 1e-12, f"lam={lam:g}"


def _moments_oracle(state):
    """The dense product form: Tr({J_k, J_l}/2 rho) for every pair."""
    ops = [collective_op(a, state.rep).matrix for a in "xyz"]
    rho = state.density()
    mean = np.array([np.trace(J @ rho).real for J in ops])
    S = np.array([[np.trace((Jk @ Jl + Jl @ Jk) / 2.0 @ rho).real for Jl in ops]
                  for Jk in ops])
    return mean, S


@pytest.mark.parametrize("rep", [symmetric_rep(5), full_rep(3)])
@pytest.mark.parametrize("pure", [True, False])
def test_moments_match_dense_product_form(rng, rep, pure):
    data = rand_pure(rng, rep.dim) if pure else rand_density(rng, rep.dim, rank=3)
    state = QuantumState(rep, data)
    got = moments(state)
    mean, S = _moments_oracle(state)
    assert np.abs(got.mean - mean).max() <= 1e-12
    assert np.abs(got.second - S).max() <= 1e-12
    assert np.array_equal(got.second, got.second.T)


def test_pure_fisher_matrix_matches_density_route(rng):
    rep = symmetric_rep(6)
    state = QuantumState(rep, rand_pure(rng, rep.dim))
    gens = [collective_op(a, rep) for a in "xyz"]
    gens.append(direction_op(np.array([1.0, 2.0, 2.0]) / 3.0, rep))
    got = fisher_matrix(state, gens).matrix
    want = fisher_matrix(QuantumState(rep, state.density()), gens).matrix
    assert np.abs(got - want).max() <= 1e-10
    # bare arrays take the same route
    psi = rand_pure(rng, 5)
    mats = [rand_hermitian(rng, 5) for _ in range(3)]
    got = fisher_matrix(psi, mats).matrix
    want = fisher_matrix(np.outer(psi, psi.conj()), mats).matrix
    assert np.abs(got - want).max() <= 1e-10


def _rotation_generators(rng, rep):
    """One operator of every structured form in ``rep``, and a custom matrix."""
    Jz, Jx = collective_op("z", rep), collective_op("x", rep)
    gens = [collective_op("y", rep), direction_op(np.array([2.0, -1.0, 2.0]) / 3.0, rep),
            parity_op("x", rep), squared_op(Jz), squared_op(Jx),
            CollectiveOperator(rand_hermitian(rng, rep.dim), rep)]
    if rep.kind == "full":
        gens += [gradient_op(rep), gradient_op(rep, centered=True),
                 single_site_op(rand_hermitian(rng, 2), 1, rep),
                 parity_op("y", rep), parity_op("z", rep)]
    return gens


@pytest.mark.parametrize("rep", [symmetric_rep(8), full_rep(4)], ids=repr)
@pytest.mark.parametrize("theta", [-2.5, 0.0, 1e-5, 0.3, "large"])
def test_pure_rotate_matches_unitary_exp(rng, rep, theta):
    state = QuantumState(rep, rand_pure(rng, rep.dim))
    for gen in _rotation_generators(rng, rep):
        # "large" takes 60 Taylor steps: theta times the norm bound is 60
        t = 60.0 / gen.norm_bound() if theta == "large" else theta
        U = unitary_exp(gen.matrix, t)
        got = rotate(state, gen, t).data
        assert np.abs(got - U @ state.data).max() <= 1e-12, gen
        # the bare matrix, on a vector and on the columns of a matrix
        A = np.array(gen.matrix)
        assert np.abs(unitary_apply(A, t, state.data) - U @ state.data).max() <= 1e-12, gen
        # exp(+i t A) = U^dag is the propagator at -t
        X = np.eye(rep.dim)[:, :3]
        assert np.abs(unitary_apply(gen, -t, X) - U.conj().T @ X).max() <= 1e-12, gen


@pytest.mark.parametrize("n_vec", [np.ones(3) / np.sqrt(3.0), np.array([-1.0, 2.0, -2.0]) / 3.0],
                         ids=["111", "-12-2"])
def test_symmetric_direction_rotations_match_unitary_exp(rng, n_vec):
    """J_n as one band at symmetric N = 40: vectors by Taylor steps, densities
    by the kept spectrum, against the propagator of the dense matrix."""
    rep = symmetric_rep(40)
    gen = direction_op(n_vec, rep)
    psi, rho = rand_pure(rng, rep.dim), rand_density(rng, rep.dim)
    for t in (-2.5, 0.3, 4 * np.pi):
        U = unitary_exp(gen.matrix, t)
        assert np.abs(rotate(QuantumState(rep, psi), gen, t).data - U @ psi).max() <= 1e-12, t
        want = U @ rho @ U.conj().T
        assert np.abs(rotate(QuantumState(rep, rho), gen, t).data - want).max() <= 1e-12, t


@pytest.mark.parametrize("rep", [symmetric_rep(8), full_rep(4)], ids=repr)
def test_pure_speed_bound_fidelity_matches_density(rng, rep):
    psi = rand_pure(rng, rep.dim)
    pure, mixed = QuantumState(rep, psi), QuantumState(rep, np.outer(psi, psi.conj()))
    for gen in _rotation_generators(rng, rep):
        theta = 0.9 / np.sqrt(qfi(pure, gen).value)
        got = mandelstam_tamm_check(pure, gen, theta)
        want = mandelstam_tamm_check(mixed, gen, theta)
        U = unitary_exp(gen.matrix, theta)
        assert abs(got.fidelity - abs(np.vdot(psi, U @ psi)) ** 2) <= 1e-12, gen
        assert abs(got.fidelity - want.fidelity) <= 1e-12, gen
        assert got.holds and want.holds, gen


def _site_sums(rng, rep):
    """Every kind of full-space site sum: J_x, J_y, J_z, J_n along a direction
    in the x-y plane and two with a z component, both gradients and a
    single-site operator with a nonzero trace."""
    h = rand_hermitian(rng, 2)
    assert np.trace(h).real != 0
    directions = [direction_op(n_vec, rep) for n_vec in
                  (np.array([1.0, 1.0, 0.0]) / np.sqrt(2), np.array([1.0, 2.0, 2.0]) / 3.0,
                   np.array([0.6, 0.0, -0.8]))]
    assert all(isinstance(J, _SiteSum) for J in directions)
    return ([collective_op(axis, rep) for axis in "xyz"] + directions
            + [gradient_op(rep), gradient_op(rep, centered=True),
               single_site_op(h, rep.n // 2, rep)])


@pytest.mark.parametrize("n", range(1, 7))
def test_site_sum_rotations_match_unitary_exp(rng, n):
    rep = full_rep(n)
    psi, rho = rand_pure(rng, rep.dim), rand_density(rng, rep.dim)
    payloads = [psi, psi.real / np.linalg.norm(psi.real), rho, rho.real]
    for gen in _site_sums(rng, rep):
        # 60 / ||A|| is 60 Taylor steps on the general path; a zero operator
        # (the centered gradient at N = 1) rotates nothing
        for t in (-2.5, 0.0, 1e-5, 0.3, 60.0 / max(gen.norm_bound(), 1.0)):
            U = unitary_exp(gen.matrix, t)
            for data in payloads:
                want = U @ data if data.ndim == 1 else U @ data @ U.conj().T
                assert np.abs(evolve(gen, t, data) - want).max() <= 1e-12, (gen, t)


def test_site_sum_product_follows_the_site_order(rng):
    # site s is bit N-1-s of the index, as in apply: the weights reversed
    # give another operator and another rotation
    rep = full_rep(3)
    psi = rand_pure(rng, rep.dim)
    forward, reverse = gradient_op(rep), _SiteSum(PAULI["y"] / 2.0, np.arange(3.0, 0.0, -1.0),
                                                  rep, "reversed gradient")
    for gen in (forward, reverse):
        U = unitary_exp(gen.matrix, 0.7)
        assert np.abs(evolve(gen, 0.7, psi) - U @ psi).max() <= 1e-12
    assert np.abs(evolve(forward, 0.7, psi) - evolve(reverse, 0.7, psi)).max() > 0.1


def _site_rotation(h, phi):
    """exp(-i phi h) of a 2x2 Hermitian h = a + r B, B^2 = 1, with a its mean
    eigenvalue and r half its eigenvalue gap: e^{-i phi a} (cos(phi r) - i sin(phi r) B)."""
    a = np.trace(h).real / 2.0
    r = np.hypot((h[0, 0] - h[1, 1]).real / 2.0, abs(h[0, 1]))
    B = (h - a * np.eye(2)) / (r or 1.0)
    return np.exp(-1j * phi * a) * (np.cos(phi * r) * np.eye(2) - 1j * np.sin(phi * r) * B)


@pytest.mark.parametrize("n", range(1, 7))
def test_site_sum_propagator_is_the_kronecker_product_of_its_factors(rng, n):
    """exp(-i theta sum_s w_s h^(s)) is the Kronecker product over sites of
    exp(-i theta w_s h), site 0 leftmost and an identity at zero weight; the
    propagator applies the same factors one site at a time, so only the order
    of the products differs (3.4e-16 at most)."""
    rep = full_rep(n)
    gens = ([collective_op(axis, rep) for axis in "xyz"]
            + [direction_op(n_vec, rep) for n_vec in
               (np.array([1.0, 1.0, 0.0]) / np.sqrt(2), np.array([-1.0, 2.0, -2.0]) / 3.0)]
            + [gradient_op(rep), gradient_op(rep, centered=True),
               single_site_op(rand_hermitian(rng, 2), n // 2, rep)])
    for gen in gens:
        h, weights = gen.op2, gen.weights
        w, V = np.linalg.eigh(h)
        for theta in (0.3, -2.5, 4 * np.pi):
            factors = [_site_rotation(h, theta * ws) if ws else np.eye(2) for ws in weights]
            for ws, f in zip(weights, factors):
                # the closed form against the 2x2 spectral route
                assert np.abs(f - (V * np.exp(-1j * theta * ws * w)) @ V.conj().T).max() <= 1e-13
            want = reduce(np.kron, factors)
            assert np.abs(gen.propagate(theta, np.eye(rep.dim)) - want).max() <= 1e-15, \
                (gen, theta)


def _rows_then_columns(gen, theta, rho):
    """The former site-sum turn of a density, the oracle of U (U rho)^dag: the
    product over sites on the rows of rho, then the conjugate factors on the
    bits of each row's column index, (U rho) U^dag."""
    X = gen.propagate(theta, rho)
    for s in np.flatnonzero(gen.weights):
        u = real_if_exact(_site_rotation(gen.op2, theta * gen.weights[s]).conj())
        X = (u @ X.reshape(rho.shape[0] * 2 ** s, 2, -1)).reshape(X.shape)
    return X


@pytest.mark.parametrize("n", range(1, 7))
def test_site_sum_density_turn_matches_rows_then_columns(rng, n):
    """U (U rho)^dag, both passes on rows, agrees with the rows-then-columns
    turn within 1e-14 for every kind of site sum, on complex and real
    densities, and keeps a real density real where the factors are real."""
    rep = full_rep(n)
    rho = rand_density(rng, rep.dim)
    for gen in _site_sums(rng, rep):
        for t in (-2.5, 1e-5, 0.3, 4 * np.pi):
            for data in (rho, rho.real):
                got, want = evolve(gen, t, data), _rows_then_columns(gen, t, data)
                assert got.dtype == want.dtype, (gen, t)
                assert np.abs(got - want).max() <= 1e-14, (gen, t)


def test_site_sum_density_turn_holds_three_arrays():
    """Rotating white-noise GHZ-10 (a real density) by J_x and (1,1,0)/sqrt(2)
    holds at most three complex 1024^2 arrays at once (tracemalloc): U rho is
    freed once its conjugate transpose is written, which then lives beside
    the operand and result of one site's step."""
    import tracemalloc
    state = mix_white_noise(ghz(10, full_rep(10)), 0.6)
    for gen in (collective_op("x", state.rep),
                direction_op(np.array([1.0, 1.0, 0.0]) / np.sqrt(2), state.rep)):
        tracemalloc.start()
        try:
            rotate(state, gen, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * 2 ** 20 + 2 ** 20, (gen, peak / 2 ** 20)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_real_density_stays_real_under_jy_and_the_gradient(n):
    rep = full_rep(n)
    probe = singlet_pi(n)
    assert probe.data.dtype == np.float64
    for gen in (collective_op("y", rep), gradient_op(rep), gradient_op(rep, centered=True)):
        assert evolve(gen, 0.4, probe.data).dtype == np.float64
        assert rotate(probe, gen, 0.4).data.dtype == np.float64


def test_site_sum_rotations_take_no_spectrum_and_no_taylor_steps(rng, monkeypatch):
    def refused(*args):
        raise AssertionError("general evolution path taken")

    monkeypatch.setattr(qmetro.states, "unitary_apply", refused)
    monkeypatch.setattr(qmetro.states, "unitary_exp", refused)
    monkeypatch.setattr(CollectiveOperator, "spectrum", property(refused))
    rep = full_rep(4)
    pure = QuantumState(rep, rand_pure(rng, rep.dim))
    mixed = QuantumState(rep, rand_density(rng, rep.dim))
    for gen in _site_sums(rng, rep):
        for state in (pure, mixed):
            rotate(state, gen, 0.3)
            mandelstam_tamm_check(state, gen, 0.1)


@pytest.mark.parametrize("build", [ramsey_scenario, dicke_scenario])
@pytest.mark.parametrize("kind", ["symmetric", "full"])
@pytest.mark.parametrize("theta0", [0.01, 0.3])
def test_analytic_slope_matches_finite_difference(build, kind, theta0):
    res = error_propagation(build(6, kind, theta0))
    assert res.branch == "direct"
    assert res.derivative == pytest.approx(res.fd_derivative, rel=1e-6)


def _polarized_jz2_scenario(n, kind, theta0):
    # at theta0 = 0 the probe is a J_z^2 eigenstate with eigenvalue N^2/4,
    # so the limit branch sees M psi and M^2 psi differ
    rep = Representation(kind, n)
    return Scenario(polarized(n, "z", rep), collective_op("y", rep),
                    squared_op(collective_op("z", rep)), theta0)


@pytest.mark.parametrize("build", [ramsey_scenario, dicke_scenario, ghz_parity_scenario,
                                   _polarized_jz2_scenario])
@pytest.mark.parametrize("theta0", [0.0, 0.01, 0.3])
def test_pure_error_propagation_matches_density_route(build, theta0):
    sc = build(6, "symmetric", theta0)
    mixed = Scenario(QuantumState(sc.probe.rep, sc.probe.density()), sc.generator,
                     sc.observable, sc.theta0)
    got, want = error_propagation(sc), error_propagation(mixed)
    assert got.branch == want.branch
    assert got.no_sensitivity == want.no_sensitivity
    for field in ("value", "derivative", "variance"):
        assert getattr(got, field) == pytest.approx(getattr(want, field),
                                                    rel=1e-9, abs=1e-9), field


# ------------------------------------------------- noise: moment transfer

_CHANNELS = {
    "depolarizing": NoiseChannel("depolarizing", p=0.3),
    "semigroup": NoiseChannel("pauli_semigroup", gamma=0.9, alpha=(0.1, 0.2, 0.7), t=1.1),
}


def _assert_transfer_matches_channel(state, channel):
    transferred = noisy_moments(moments(state), channel)
    explicit = moments(apply_noise(state, channel))
    assert np.abs(transferred.mean - explicit.mean).max() <= 1e-12
    assert np.abs(transferred.second - explicit.second).max() <= 1e-12


@pytest.mark.parametrize("channel", _CHANNELS.values(), ids=_CHANNELS.keys())
@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("pure", [True, False])
def test_moment_transfer_matches_explicit_channel(rng, channel, n, pure):
    dim = 2 ** n
    data = rand_pure(rng, dim) if pure else rand_density(rng, dim, rank=3)
    _assert_transfer_matches_channel(QuantumState(full_rep(n), data), channel)


@pytest.mark.parametrize("channel", _CHANNELS.values(), ids=_CHANNELS.keys())
@pytest.mark.parametrize("n", [4, 6])
def test_moment_transfer_on_embedded_squeezed_probes(channel, n):
    for lam in (0.5, 3.0, 40.0):
        probe = squeezed_ground_state(SqueezingSpec(n, lam))
        # a tilted rotation gives the probe nonzero cross moments
        axis = direction_op(np.array([1.0, 2.0, 2.0]) / 3.0, probe.rep)
        tilted = rotate(probe, axis, 0.7)
        for st in (probe, tilted):
            _assert_transfer_matches_channel(to_full(st), channel)


def _dense_noisy_precision(n, lam, p):
    """The sweep's former route: embed, apply the channel, dense moments."""
    probe = to_full(squeezed_ground_state(SqueezingSpec(n, lam)))
    st = apply_noise(probe, NoiseChannel("depolarizing", p=p))
    mz = st.expectation(collective_op("z", st.rep))
    return mz * mz / st.variance(collective_op("x", st.rep))


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("p", [0.05, 0.25, 0.7])
def test_noisy_precision_matches_density_route(n, p):
    channel = NoiseChannel("depolarizing", p=p)
    for lam in (0.3, 2.0, 20.0):
        prec = _noisy_precision(n, lam, channel)[0]
        assert prec == pytest.approx(_dense_noisy_precision(n, lam, p), rel=1e-11)


# ------------------------------------------------- noise: J blocks

_DEPOLARIZING = (0.0, 0.05, 0.25, 0.9, 1.0)


def _symmetric_probes(rng, n, random_max=None):
    """Squeezed (even N), and random complex pure and rank-2 densities up to
    N = random_max."""
    rep = symmetric_rep(n)
    probes = {}
    if n % 2 == 0:
        probes["squeezed"] = squeezed_ground_state(SqueezingSpec(n, 2.0))
    if random_max is None or n <= random_max:
        probes["pure"] = QuantumState(rep, rand_pure(rng, n + 1))
        probes["rank2"] = QuantumState(rep, rand_density(rng, n + 1, rank=2))
    return probes


@pytest.mark.parametrize("n", range(2, 11))
def test_depolarized_qfi_matches_full_density(rng, n):
    # complex 1024^2 eigensolves take 0.7 s each, so N = 10 checks the
    # (real) squeezed probe only
    for name, probe in _symmetric_probes(rng, n, random_max=9).items():
        embedded = to_full(probe)
        Jy = collective_op("y", embedded.rep)
        for p in _DEPOLARIZING:
            want = qfi(apply_noise(embedded, NoiseChannel("depolarizing", p=p)), Jy).value
            got = depolarized_qfi(probe, p)
            assert abs(got - want) <= 1e-10 * max(want, 1.0), (name, p)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 33])
def test_depolarized_blocks_are_a_state(rng, n):
    for name, probe in _symmetric_probes(rng, n).items():
        for p in _DEPOLARIZING:
            blocks = _depolarized_blocks(probe, p)
            # one block per J = N/2, N/2 - 1, ..., sizes 2J + 1
            assert [A.shape[0] for A in blocks] == list(range(n + 1, 0, -2))
            assert abs(sum(np.trace(A).real for A in blocks) - 1.0) <= 1e-12, (name, p)
            for A in blocks:
                assert np.abs(A - A.conj().T).max() <= 1e-15
                assert np.linalg.eigvalsh(A).min() >= -1e-14, (name, p)


def _all_probes_blocks(probe, p):
    """The J blocks by the former recursion, which keeps every reduced probe
    sigma_N, ..., sigma_0 alive from the start."""
    n = probe.n
    reduced = [real_if_exact(probe.density())]
    for _ in range(n):
        reduced.append(_partial_trace(reduced[-1]))
    weights = [comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    blocks = [weights[n] * reduced.pop()]
    for m in range(1, n + 1):
        new = [None] * (m // 2 + 1)
        for r, B in enumerate(blocks):
            grown, shrunk = _couple_mixed_qubit(B)
            if new[r] is None:
                new[r] = grown
            else:
                new[r] += grown
            if shrunk is not None:
                new[r + 1] = shrunk
        new[0] += weights[n - m] * reduced.pop()
        blocks = new
    return blocks


@pytest.mark.parametrize("n", [4, 10, 64])
def test_depolarized_blocks_are_the_all_probes_recursion_bitwise(rng, n):
    """Recomputing the reduced probes between checkpoints changes no bit."""
    for name, probe in _symmetric_probes(rng, n).items():
        for p in _DEPOLARIZING:
            got, want = _depolarized_blocks(probe, p), _all_probes_blocks(probe, p)
            assert len(got) == len(want), (name, p)
            for A, B in zip(got, want):
                assert A.dtype == B.dtype and A.shape == B.shape, (name, p)
                assert np.array_equal(A.view(np.uint8), B.view(np.uint8)), (name, p)


# ------------------------------------------------- full-space operators

def _kron_site_sum(op2, weights):
    """sum_s w_s I (x) op2 (x) I, site 0 the leftmost Kronecker factor."""
    n = len(weights)
    M = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for s, w in enumerate(weights):
        M += w * np.kron(np.kron(np.eye(2 ** s), op2), np.eye(2 ** (n - s - 1)))
    return M


@pytest.mark.parametrize("n", range(1, 7))
def test_full_operators_equal_kronecker_sums(rng, n):
    rep = full_rep(n)
    for axis in "xyz":
        want = _kron_site_sum(PAULI[axis] / 2.0, np.ones(n))
        assert np.array_equal(collective_op(axis, rep).matrix, want), axis
    sites = np.arange(1, n + 1, dtype=float)
    for centered, weights in ((False, sites), (True, sites - sites.mean())):
        want = _kron_site_sum(PAULI["y"] / 2.0, weights)
        assert np.array_equal(gradient_op(rep, centered=centered).matrix, want)
    for site in range(n):
        op2 = rand_hermitian(rng, 2)
        want = np.kron(np.kron(np.eye(2 ** site), op2), np.eye(2 ** (n - site - 1)))
        assert np.array_equal(single_site_op(op2, site, rep).matrix, want), site


# ------------------------------------------------- real densities, real arithmetic

def _real_density(rng, dim, rank):
    G = rng.standard_normal((dim, rank))
    rho = G @ G.T
    return (rho / np.trace(rho)).astype(complex)


def test_real_eigh_matches_complex_eigh():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(dim=st.integers(2, 64), rank_frac=st.floats(0.0, 1.0),
                      seed=st.integers(0, 2 ** 32 - 1))
    def check(dim, rank_frac, seed):
        rank = max(1, int(round(rank_frac * dim)))
        rho = _real_density(np.random.default_rng(seed), dim, rank)
        dec = eigh_hermitian(rho)
        assert dec.columns().dtype == np.float64
        assert np.abs(np.sort(dec.values) - np.linalg.eigh(rho)[0]).max() <= 1e-12
        assert np.abs(dec.sandwich(dec.values) - rho).max() <= 1e-12

    check()


def _probe_states(n):
    """Real full-space densities: white-noise GHZ, singlet, noisy squeezed."""
    rep = full_rep(n)
    squeezed = to_full(squeezed_ground_state(SqueezingSpec(n, 2.0)))
    return {"ghz+noise": mix_white_noise(ghz(n, rep), 0.7),
            "singlet": singlet_pi(n),
            "squeezed+noise": apply_noise(squeezed, NoiseChannel("depolarizing", p=0.2))}


def _z_rotation(n, theta):
    """U = exp(-i theta J_z) and the matrix R with <J>_{U rho U^dag} = R <J>_rho."""
    U = unitary_exp(collective_op("z", full_rep(n)).matrix, theta)
    c, s = np.cos(theta), np.sin(theta)
    return U, np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _z_field(n, theta):
    """exp(-i theta sum_s (s+1) sigma_z^(s) / 2): unlike exp(-i theta J_z),
    it also gives the rotation-invariant singlet complex entries."""
    rep = full_rep(n)
    G = sum((s + 1) * single_site_op(PAULI["z"] / 2.0, s, rep).matrix for s in range(n))
    return unitary_exp(G, theta)


@pytest.mark.parametrize("n", [4, 6])
def test_real_route_matches_rotated_complex_copy(n):
    rep = full_rep(n)
    gens = [collective_op(a, rep).matrix for a in "xyz"]
    gens.append(direction_op(np.array([2.0, -1.0, 2.0]) / 3.0, rep).matrix)
    gens.append(gradient_op(rep, centered=True).matrix)
    U = _z_field(n, 0.37)
    Uc, R = _z_rotation(n, 0.37)
    for name, state in _probe_states(n).items():
        assert not state.data.imag.any(), name
        turned = QuantumState(rep, U @ state.data @ U.conj().T)
        assert turned.data.imag.any(), name
        assert _eigensystem(state, state.data).columns().dtype == np.float64
        assert _eigensystem(turned, turned.data).columns().dtype == np.complex128
        # F[U rho U^dag, U A U^dag] = F[rho, A]: the real state takes the real
        # route, its rotated copy the complex one
        turned_gens = [U @ A @ U.conj().T for A in gens]
        for A, B in zip(gens, turned_gens):
            assert qfi(state, A).value == pytest.approx(qfi(turned, B).value, abs=1e-10)
            assert qfi_alternative(state, A) == pytest.approx(qfi_alternative(turned, B),
                                                              abs=1e-10)
            assert wigner_yanase(state, A) == pytest.approx(wigner_yanase(turned, B),
                                                            abs=1e-10)
            L = U @ sld(state, A) @ U.conj().T
            assert np.abs(L - sld(turned, B)).max() <= 1e-10
        F = fisher_matrix(state, gens).matrix
        assert np.abs(F - fisher_matrix(turned, turned_gens).matrix).max() <= 1e-10
        # collective moments: the complex dense products, and the collective
        # z rotation, which turns <J> by R
        m = moments(state)
        mean, S = _moments_oracle(state)
        assert np.abs(m.mean - mean).max() <= 1e-12
        assert np.abs(m.second - S).max() <= 1e-12
        mt = moments(QuantumState(rep, Uc @ state.data @ Uc.conj().T))
        assert np.abs(R @ m.mean - mt.mean).max() <= 1e-10
        assert np.abs(R @ m.second @ R.T - mt.second).max() <= 1e-10


def test_witness_all_solves_a_real_density_in_real_arithmetic(tmp_path, monkeypatch):
    rep = full_rep(4)
    real = mix_white_noise(ghz(4, rep), 0.7)
    U, _ = _z_rotation(4, 0.37)
    paths = {"real": tmp_path / "real.json", "rotated": tmp_path / "rotated.json"}
    write_state(real, str(paths["real"]))
    write_state(QuantumState(rep, U @ real.data @ U.conj().T), str(paths["rotated"]))
    solved = []
    eigh = np.linalg.eigh
    # LAPACK sees the coupled indices only: the 8 even-parity ones of GHZ-4,
    # in the real and in the z-rotated density alike
    block = int(coupled_indices(real.data).sum())
    assert block == 8

    def recorded(M, *args, **kwargs):
        if M.shape == (block, block):
            solved.append(M.dtype)
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    for kind, dtype in (("real", np.float64), ("rotated", np.complex128)):
        solved.clear()
        assert main(["witness", str(paths[kind]), "--all",
                     "--out", str(tmp_path / f"{kind}_w.json")]) == 0
        assert solved == [dtype], kind


# ------------------------------------------------- permutation-invariant states

def _matchings(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield [(first, partner)] + tail


def _matching_sum_singlet(n):
    """Uniform mixture, over the perfect matchings of the N spins, of products
    of two-particle singlets (|01> - |10>)/sqrt(2)."""
    pair = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2)   # amplitude[a, b]
    matchings = list(_matchings(tuple(range(n))))
    rho = np.zeros((2 ** n, 2 ** n))
    for matching in matchings:
        t, sites = np.ones(()), []
        for a, b in matching:
            t = np.multiply.outer(t, pair)
            sites += [a, b]
        v = t.transpose(np.argsort(sites)).reshape(-1)
        rho += np.outer(v, v)
    return rho / len(matchings)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_singlet_projector_matches_matching_sum(n):
    assert np.abs(singlet_pi(n).data - _matching_sum_singlet(n)).max() <= 1e-14


def test_singlet_at_ten_spins(rng):
    st = singlet_pi(10)
    # the J = 0 multiplicity of ten spins is the Catalan number C_5
    w = np.linalg.eigvalsh(st.data)
    assert np.sum(w > 1e-8) == 42
    assert np.abs(w[w > 1e-8] - 1 / 42).max() <= 1e-12
    J2 = sum(collective_op(a, st.rep).matrix @ collective_op(a, st.rep).matrix
             for a in "xyz")
    assert np.abs(J2 @ st.data).max() <= 1e-12
    n_vec = rng.standard_normal(3)
    rotated = rotate(st, direction_op(n_vec / np.linalg.norm(n_vec), st.rep), 1.3)
    assert np.abs(rotated.data - st.data).max() <= 1e-12


def _two_site_rdm(rho, a, b, n):
    """Reduced state of sites (a, b) by an explicit partial trace, a first."""
    others = [q for q in range(n) if q not in (a, b)]
    perm = [a, b] + others
    t = rho.reshape((2,) * (2 * n)).transpose(perm + [n + q for q in perm])
    return np.einsum("ikjk->ij", t.reshape(4, 2 ** (n - 2), 4, 2 ** (n - 2)))


def _pair_average_oracle(rho, n):
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return sum(_two_site_rdm(rho, a, b, n) for a, b in pairs) / len(pairs)


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("pure", [True, False])
def test_pair_average_from_moments_matches_partial_traces(rng, n, pure):
    # random states of the full space are not permutation invariant
    rep = full_rep(n)
    st = QuantumState(rep, rand_pure(rng, rep.dim) if pure else
                      rand_density(rng, rep.dim, rank=3))
    want = _pair_average_oracle(st.density(), n)
    assert np.abs(avg_two_particle_dm(st) - want).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("pure", [True, False])
def test_symmetric_pair_average_matches_embedded_state(rng, n, pure):
    rep = symmetric_rep(n)
    st = QuantumState(rep, rand_pure(rng, rep.dim) if pure else
                      rand_density(rng, rep.dim, rank=3))
    want = _pair_average_oracle(to_full(st).density(), n)
    assert np.abs(avg_two_particle_dm(st) - want).max() <= 1e-14
    assert np.abs(avg_two_particle_dm(to_full(st)) - want).max() <= 1e-14


def test_pair_average_of_a_large_symmetric_state():
    st = squeezed_ground_state(SqueezingSpec(1000, 20.0))
    rho2 = avg_two_particle_dm(st)
    assert abs(np.trace(rho2) - 1) <= 1e-12
    assert np.abs(rho2 - rho2.conj().T).max() <= 1e-15
    assert np.linalg.eigvalsh(rho2).min() >= -1e-12
    # the round trip through rho2 recovers the moments to round-off of
    # their size (<J_z^2> ~ N^2/4)
    back, want = moments_from_two_particle(rho2, 1000), moments(st)
    assert np.abs(back.mean - want.mean).max() <= 1e-12 * 500
    assert np.abs(back.second - want.second).max() <= 1e-15 * 250000
