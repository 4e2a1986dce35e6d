"""Structured and matrix-vector paths checked against dense constructions.

The library never multiplies two dense operators or eigendecomposes one
for pure states and symmetric-sector ground states.  The dense forms it
replaced are kept here as oracles.
"""

import numpy as np
import pytest

from qmetro.fisher import fisher_matrix
from qmetro.linalg import unitary_exp
from qmetro.metrology import (NoiseChannel, Scenario, _noisy_precision,
                              apply_noise, dicke_scenario, error_propagation,
                              frontier_lambda_grid, ghz_parity_scenario,
                              noisy_moments, ramsey_scenario, squared_op)
from qmetro.spin import (Representation, collective_op, direction_op, full_rep,
                         symmetric_rep)
from qmetro.states import (QuantumState, SqueezingSpec, polarized, rotate,
                           squeezed_ground_state, to_full)
from qmetro.witnesses import moments
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


@pytest.mark.parametrize("rep", [symmetric_rep(8), full_rep(4)])
@pytest.mark.parametrize("theta", [0.3, 2.5])
def test_pure_rotate_matches_unitary_exp(rng, rep, theta):
    state = QuantumState(rep, rand_pure(rng, rep.dim))
    for gen in (collective_op("y", rep),
                direction_op(np.array([2.0, -1.0, 2.0]) / 3.0, rep)):
        U = unitary_exp(gen.matrix, theta, sign=-1)
        got = rotate(state, gen, theta).data
        assert np.abs(got - U @ state.data).max() <= 1e-12


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
