import dataclasses
import itertools
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

import qmetro
from qmetro.fisher import qfi
from qmetro.metrology import (NOISY_QFI_MAX, NoiseChannel, Scenario, SweepRecord,
                              _golden, _noisy_precision, apply_noise,
                              crb_consistency, depolarized_qfi, dicke_scenario,
                              error_propagation, frontier_lambda_grid,
                              frontier_on_polarization_grid, ghz_parity_scenario,
                              gradient_scenario, noisy_scaling_sweep,
                              ramsey_curve, ramsey_scenario, squeezing_frontier,
                              squared_op)
from qmetro.serialize import sweep_rows_to_csv
from qmetro.spin import (PAULI, collective_op, direction_op, full_rep, gradient_op,
                         symmetric_rep)
from qmetro.states import (QuantumState, SqueezingSpec, dicke, ghz, polarized,
                           rotate, singlet_pi, squeezed_ground_state,
                           squeezed_ground_states, to_full)


# ------------------------------------------------- error propagation

@pytest.mark.parametrize("n", [2, 4, 8])
def test_ramsey_shot_noise(n):
    res = error_propagation(ramsey_scenario(n))
    assert res.branch == "direct"
    assert res.value == pytest.approx(1 / n, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_ghz_heisenberg(n):
    res = error_propagation(ghz_parity_scenario(n))
    assert res.value == pytest.approx(1 / n ** 2, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 10, 12])
def test_dicke_precision(n):
    res = error_propagation(dicke_scenario(n))
    assert res.value == pytest.approx(2 / (n * (n + 2)), rel=1e-10)


def test_full_rep_scenarios_agree():
    for build in (ramsey_scenario, ghz_parity_scenario, dicke_scenario):
        sym = error_propagation(build(4, "symmetric")).value
        full = error_propagation(build(4, "full")).value
        assert full == pytest.approx(sym, rel=1e-10)


def test_analytic_derivative_matches_finite_difference():
    for theta0 in (0.1, 0.7, 1.3):
        res = error_propagation(ramsey_scenario(6, theta0=theta0))
        assert res.derivative == pytest.approx(res.fd_derivative, rel=1e-6)


def test_flat_response_flagged():
    # measure J_z while rotating about z: nothing moves but Var(Jz) > 0
    rep = symmetric_rep(4)
    sc = Scenario(ghz(4, rep, axis="z"), collective_op("z", rep),
                  collective_op("z", rep), 0.0)
    res = error_propagation(sc)
    assert res.no_sensitivity


def test_heisenberg_ceiling_noiseless():
    for sc in (ramsey_scenario(6), ghz_parity_scenario(6), dicke_scenario(6)):
        res = error_propagation(sc)
        assert res.precision_inv <= 6 ** 2 + 1e-6


# ------------------------------------------------- response curves

def test_polarized_curve_closed_form():
    n = 6
    sc = ramsey_scenario(n)
    thetas = np.linspace(0, 2 * np.pi, 100)
    curve = ramsey_curve(sc.probe, sc.generator, sc.observable, thetas)
    mz = n / 2
    assert np.abs(curve["mean"] - mz * np.sin(thetas)).max() <= 1e-9
    expected_var = (n / 4) * np.cos(thetas) ** 2 + 0.0 * np.sin(thetas) ** 2
    assert np.abs(curve["variance"] - expected_var).max() <= 1e-9


def test_ghz_parity_curve():
    n = 5
    sc = ghz_parity_scenario(n)
    thetas = np.linspace(0, np.pi, 60)
    curve = ramsey_curve(sc.probe, sc.generator, sc.observable, thetas)
    assert np.abs(curve["mean"] - np.cos(n * thetas)).max() <= 1e-9
    assert np.abs(curve["variance"] - np.sin(n * thetas) ** 2).max() <= 1e-9


def test_dicke_curve_closed_form():
    n = 8
    sc = dicke_scenario(n)
    thetas = np.linspace(0, np.pi, 100)
    curve = ramsey_curve(sc.probe, sc.generator, sc.observable, thetas)
    expected = n * (n + 2) / 8 * np.sin(thetas) ** 2
    assert np.abs(curve["mean"] - expected).max() <= 1e-9


# ------------------------------------------------- CRB consistency

def test_crb_equality_for_optimal_schemes():
    assert abs(crb_consistency(ramsey_scenario(4)).gap) <= 1e-8
    assert abs(crb_consistency(ghz_parity_scenario(3)).gap) <= 1e-8


def test_crb_strict_gap_for_suboptimal_working_point():
    # away from theta -> 0 the Dicke readout no longer saturates the bound
    rep_ = crb_consistency(dicke_scenario(6, theta0=0.6))
    assert rep_.consistent and rep_.gap > 1e-3


# ------------------------------------------------- gradient estimation

def test_gradient_frozen_and_oracle():
    sc = gradient_scenario(2)
    res = error_propagation(sc)
    assert res.branch == "limit"
    # frozen from the finite-offset oracle below
    assert res.value == pytest.approx(1.0, abs=1e-9)
    # oracle: evaluate the raw ratio at small offsets and extrapolate
    M = sc.observable.matrix
    vals = []
    for theta in (2e-3, 1e-3):
        st = rotate(sc.probe, sc.generator, theta)
        m = np.real(np.einsum("ij,ji->", M, st.data))
        v = np.real(np.einsum("ij,ji->", M @ M, st.data)) - m ** 2
        up = rotate(sc.probe, sc.generator, theta + 1e-6)
        dn = rotate(sc.probe, sc.generator, theta - 1e-6)
        d = (np.real(np.einsum("ij,ji->", M, up.data)) -
             np.real(np.einsum("ij,ji->", M, dn.data))) / 2e-6
        vals.append(v / d ** 2)
    richardson = (4 * vals[1] - vals[0]) / 3
    assert res.value == pytest.approx(richardson, rel=1e-5)


def test_gradient_error_propagation_eigendecomposes_nothing(monkeypatch):
    """The rotations at theta0 and at both finite-difference points are the
    gradient's product of 2x2 rotations: no eigensolve of any matrix."""
    gradient_op.cache_clear()
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    res = error_propagation(gradient_scenario(8, theta0=0.1))
    assert shapes == []
    # the value of three separate eigendecompositions and dense commutators
    assert res.branch == "direct"
    assert res.value == pytest.approx(0.024847580850594877, rel=1e-12)


def test_gradient_larger_n_finite():
    res = error_propagation(gradient_scenario(4))
    assert res.branch == "limit"
    assert 0 < res.value < 1


def test_gradient_scenario_sizes():
    # the singlet and the density rule decide, with no check of the scenario's own
    env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
    for n, message in ((3, "needs an even particle number"), (7, "needs an even particle number"),
                       (12, "density matrices limited to N <= 10")):
        with pytest.raises(ValueError, match=message):
            gradient_scenario(n)
        done = subprocess.run([sys.executable, "-m", "qmetro.cli", "scenario", "--family",
                               "gradient", "--n", str(n)], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 1
        assert message in done.stderr and done.stdout == ""


def test_homogeneous_field_invisible_to_singlet():
    rep = full_rep(4)
    sc = Scenario(singlet_pi(4), collective_op("y", rep),
                  squared_op(collective_op("z", rep)), 0.0)
    assert error_propagation(sc).no_sensitivity


def test_gradient_result_invariant_under_prerotation(rng):
    base = error_propagation(gradient_scenario(2)).value
    probe = singlet_pi(2)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    rotated = rotate(probe, direction_op(n, probe.rep), 0.8)
    res = error_propagation(dataclasses.replace(gradient_scenario(2), probe=rotated))
    assert res.value == pytest.approx(base, abs=1e-9)


# ------------------------------------------------- squeezing frontier

def test_frontier_rows_respect_ceiling():
    rows = squeezing_frontier(20, frontier_lambda_grid(20, points=24))
    assert all(r.within_ceiling for r in rows)
    pols = [r.polarization for r in rows]
    assert min(pols) < 0.02 and max(pols) > 0.99


def test_frontier_peak_at_low_polarization():
    rows = squeezing_frontier(12, frontier_lambda_grid(12, points=40))
    best = max(rows, key=lambda r: r.precision_inv)
    assert best.polarization < 0.2
    assert best.precision_inv == pytest.approx(12 * 14 / 2, rel=0.05)


def _bound_columns(n):
    return float(n), float((n - 1) ** 2 + 1), float(n ** 2)


@pytest.mark.parametrize("n", [20, 1000])
def test_frontier_records_keep_the_row_expressions_bit_for_bit(n):
    lams = frontier_lambda_grid(n, points=16)
    records = squeezing_frontier(n, lams)
    rep = symmetric_rep(n)
    Jz, Jx, Jy = (collective_op(a, rep) for a in "zxy")
    former = []
    for st, lam, rec in zip(squeezed_ground_states(n, list(lams)), lams, records,
                            strict=True):
        mz, vx = st.expectation(Jz), st.variance(Jx)
        prec = mz * mz / vx if vx > 1e-300 else 0.0
        pol = mz / (n / 2.0)
        fq = 4.0 * st.variance(Jy)
        assert (rec.lam, rec.precision_inv, rec.qfi, rec.polarization, rec.var_x) == \
            (lam, prec, fq, pol, vx)
        assert rec.ceiling == 2.0 * n + n * n * (1.0 - pol * pol)
        former.append(SweepRecord("frontier", n, 0.0, lam, 0.0, prec, fq,
                                  *_bound_columns(n), pol, 0.0, np.inf))
    assert sweep_rows_to_csv(records) == sweep_rows_to_csv(former)


def test_noise_records_keep_the_transferred_moments_bit_for_bit():
    p = 0.25
    channel = NoiseChannel("depolarizing", p=p)
    records = noisy_scaling_sweep(p, [4, 6, 8], lambda_points=8).records
    former = []
    for rec in records:
        prec, pol, vx, probe = _noisy_precision(rec.n, rec.lam, channel)
        fq = depolarized_qfi(probe, p)
        assert (rec.precision_inv, rec.qfi, rec.polarization, rec.var_x) == \
            (prec, fq, pol, vx)
        assert rec.ceiling == rec.n / p
        former.append(SweepRecord(f"squeezing(p={p:g})", rec.n, p, rec.lam, 0.0,
                                  float(prec), fq, *_bound_columns(rec.n),
                                  float(pol), float(vx), np.inf))
    assert [rec.n for rec in records] == [4, 6, 8]
    assert sweep_rows_to_csv(records) == sweep_rows_to_csv(former)


def test_frontier_polarization_grid_interpolation():
    grid = np.linspace(0.1, 0.7, 8)
    vals = frontier_on_polarization_grid(16, grid, points=60)
    assert vals.shape == grid.shape
    assert (vals > 0).all()
    assert np.argmax(vals) == 0


# ------------------------------------------------- noise channels

def test_depolarizing_endpoints():
    probe = to_full(dicke(4, 2))
    same = apply_noise(probe, NoiseChannel("depolarizing", p=0.0))
    assert np.abs(same.data - probe.density()).max() <= 1e-12
    flat = apply_noise(probe, NoiseChannel("depolarizing", p=1.0))
    assert np.abs(flat.data - np.eye(16) / 16).max() <= 1e-12
    assert qfi(flat, collective_op("x", flat.rep)).value <= 1e-12


def test_depolarizing_equals_binomial_mixture():
    n, p = 4, 0.3
    probe = to_full(dicke(n, 1))
    rho = probe.density()
    channel_out = apply_noise(probe, NoiseChannel("depolarizing", p=p)).data

    def trace_subset(rho, subset):
        t = rho.reshape((2,) * (2 * n))
        letters = "abcdefghijklmnopqrstuvwxyz"
        sub = [None] * (2 * n)
        pos = 0
        keep_k, keep_b = [], []
        for q in range(n):
            if q in subset:
                sub[q] = sub[n + q] = letters[pos]
                pos += 1
            else:
                sub[q], sub[n + q] = letters[pos], letters[pos + 1]
                keep_k.append(sub[q])
                keep_b.append(sub[n + q])
                pos += 2
        d = 2 ** (n - len(subset))
        return np.einsum("".join(sub) + "->" + "".join(keep_k + keep_b), t).reshape(d, d)

    def embed(rest, subset):
        order = sorted(subset) + [q for q in range(n) if q not in subset]
        big = np.kron(np.eye(2 ** len(subset)) / 2 ** len(subset), rest)
        t = big.reshape((2,) * (2 * n))
        perm = np.argsort(order)
        return np.transpose(t, list(perm) + [n + int(i) for i in perm]).reshape(2 ** n, 2 ** n)

    acc = np.zeros_like(rho)
    for k in range(n + 1):
        pk = comb(n, k) * p ** k * (1 - p) ** (n - k)
        subsets = list(itertools.combinations(range(n), k))
        acc += pk * sum(embed(trace_subset(rho, set(s)), set(s)) for s in subsets) / len(subsets)
    assert np.abs(acc - channel_out).max() <= 1e-9


def test_pauli_semigroup_bloch_decay():
    ch = NoiseChannel("pauli_semigroup", gamma=0.9, alpha=(0.1, 0.2, 0.7), t=1.1)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    st = QuantumState(full_rep(1), plus)
    out = apply_noise(st, ch).data
    rx = 2 * out[0, 1].real
    expected = np.exp(-0.9 * (1 - 0.1) * 1.1)
    assert rx == pytest.approx(expected, abs=1e-12)


def _choi(weights):
    """Choi matrix sum_ij |i><j| (x) N(|i><j|) of rho -> sum_k c_k sigma_k rho sigma_k."""
    paulis = [np.eye(2, dtype=complex), PAULI["x"], PAULI["y"], PAULI["z"]]
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2), dtype=complex)
            E[i, j] = 1.0
            out = sum(ck * P @ E @ P.conj().T for ck, P in zip(weights, paulis))
            choi += np.kron(E, out)
    return choi


def test_channel_cptp_on_choi():
    for ch in (NoiseChannel("depolarizing", p=0.37),
               NoiseChannel("pauli_semigroup", gamma=1.4, alpha=(0.5, 0.25, 0.25), t=0.6)):
        choi = _choi(ch.pauli_weights())
        w = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
        assert w.min() >= -1e-10
        tp = choi.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert np.abs(tp - np.eye(2)).max() <= 1e-10


@pytest.mark.parametrize("weights", [[1.0 + 1e-9, -1e-9, 0.0, 0.0], [0.9, 0.05, 0.05, 1e-9]],
                         ids=["negative", "not-trace-preserving"])
def test_channel_weight_check_refuses_what_the_choi_test_refuses(monkeypatch, weights):
    # the Pauli-weight check is the Choi test: a weight of -1e-9 is a Choi
    # eigenvalue of -2e-9, and weights summing to 1 + 1e-9 a partial trace
    # 1e-9 off the identity
    choi = _choi(weights)
    assert (np.linalg.eigvalsh(choi).min() < -1e-10
            or np.abs(choi.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3) - np.eye(2)).max() > 1e-10)
    monkeypatch.setattr(NoiseChannel, "pauli_weights", lambda self: np.array(weights))
    with pytest.raises(ValueError, match="not CPTP"):
        NoiseChannel("depolarizing", p=0.3)


def test_channel_parameter_validation():
    with pytest.raises(ValueError):
        NoiseChannel("depolarizing", p=1.2)
    with pytest.raises(ValueError):
        NoiseChannel("pauli_semigroup", gamma=1.0, alpha=(0.5, 0.5, 0.5), t=1.0)


def test_noise_commutes_with_collective_rotation():
    probe = to_full(squeezed_ground_state(SqueezingSpec(6, 2.0)))
    Jy = collective_op("y", probe.rep)
    ch = NoiseChannel("depolarizing", p=0.2)
    a = apply_noise(rotate(probe, Jy, 0.4), ch).data
    b = rotate(apply_noise(probe, ch), Jy, 0.4).data
    assert np.abs(a - b).max() <= 1e-9


def test_noise_variance_floor():
    probe = to_full(squeezed_ground_state(SqueezingSpec(8, 5.0)))
    noisy = apply_noise(probe, NoiseChannel("depolarizing", p=0.2))
    vx = noisy.variance(collective_op("x", noisy.rep))
    assert vx >= 0.2 * 8 / 4 - 1e-10


# ------------------------------------------------- scaling sweep

def test_noisy_sweep_obeys_ceiling_and_floor():
    result = noisy_scaling_sweep(0.5, [4, 6], lambda_points=8)
    for rec in result.records:
        assert rec.ceiling == rec.n / 0.5
        assert rec.precision_inv <= rec.ceiling + 1e-6
        # Var(J_x) >= (1 - eta^2) N/4 = (2p - p^2) N/4 after the channel
        assert rec.var_x >= (2 * 0.5 - 0.5 ** 2) * rec.n / 4 - 1e-9


def test_noiseless_sweep_exponent_large_n():
    result = noisy_scaling_sweep(0.0, [32, 64, 128], lambda_points=10)
    assert result.exponent == pytest.approx(2.0, abs=0.1)


def test_sweep_without_enough_points_has_no_fit():
    result = noisy_scaling_sweep(0.0, [8, 16], lambda_points=8)
    assert result.exponent is None
    assert len(result.records) == 2


def test_full_depolarizing_kills_precision():
    result = noisy_scaling_sweep(1.0, [4], lambda_points=6)
    assert result.records[0].precision_inv <= 1e-9
    # the moment transfer zeroes <J_z> exactly; no round-off remains
    assert result.records[0].precision_inv == 0.0


def test_flat_landscape_sweep_keeps_coarse_optimum():
    # at p = 1 every precision is round-off; ties between grid neighbours
    # must not reach the golden-section bracket
    result = noisy_scaling_sweep(1.0, [4, 6, 8])
    assert len(result.records) == 3
    assert all(rec.precision_inv <= 1e-9 for rec in result.records)
    assert all(rec.precision_inv == 0.0 for rec in result.records)


def test_noisy_sweep_builds_one_density_per_n(monkeypatch):
    import qmetro.metrology
    built = []
    original = qmetro.metrology.apply_noise

    def counted(state, channel):
        built.append(state.n)
        return original(state, channel)

    monkeypatch.setattr(qmetro.metrology, "apply_noise", counted)
    n_list = [4, 6]
    result = noisy_scaling_sweep(0.25, n_list, lambda_points=8)
    # the lam search runs on transferred moments and the QFI column on the
    # probe's J blocks: no noisy 2^N density
    assert built == []
    assert all(np.isfinite(rec.qfi) for rec in result.records)


@pytest.mark.parametrize("n", [64, 128])
def test_noisy_sweep_qfi_column_at_large_n(n):
    p = 0.25
    rec = noisy_scaling_sweep(p, [n], lambda_points=8).records[0]
    # Cramer-Rao: the J_x readout cannot beat the probe's QFI, which the
    # uncorrelated noise keeps below N/p
    assert 0.0 < rec.precision_inv <= rec.qfi * (1 + 1e-12)
    assert rec.qfi <= n / p


@pytest.mark.parametrize("n", range(4, 11, 2))
def test_golden_matches_scipy_golden_bitwise(n):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    channel = NoiseChannel("depolarizing", p=0.25)
    lams = frontier_lambda_grid(n, 16, pol_floor=0.02)
    vals = [_noisy_precision(n, lam, channel)[0] for lam in lams]
    k = int(np.argmax(vals))
    assert 0 < k < len(lams) - 1

    def objective(u):
        return -_noisy_precision(n, np.exp(u), channel)[0]

    bracket = (np.log(lams[k - 1]), np.log(lams[k]), np.log(lams[k + 1]))
    want = scipy_optimize.minimize_scalar(objective, bracket=bracket, method="golden",
                                          options={"xtol": 1e-2})
    x, fun = _golden(objective, *bracket, xtol=1e-2)
    assert (x, fun) == (want.x, want.fun)


def test_depolarized_qfi_refuses_bad_input():
    with pytest.raises(ValueError, match="symmetric-sector"):
        depolarized_qfi(to_full(polarized(4)), 0.25)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        depolarized_qfi(polarized(4), 1.5)
    with pytest.raises(ValueError, match=f"N <= {NOISY_QFI_MAX}"):
        depolarized_qfi(polarized(NOISY_QFI_MAX + 1), 0.25)


def test_noise_sweep_does_not_import_scipy_optimize():
    code = ("import sys\n"
            "from qmetro.metrology import noisy_scaling_sweep\n"
            "noisy_scaling_sweep(0.25, [4, 6], lambda_points=8)\n"
            "sys.exit('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert done.returncode == 0


def test_pure_rotations_do_not_import_scipy():
    code = ("import sys\n"
            "from qmetro.fisher import mandelstam_tamm_check\n"
            "from qmetro.metrology import dicke_scenario, error_propagation\n"
            "from qmetro.spin import collective_op, full_rep\n"
            "from qmetro.states import ghz\n"
            "error_propagation(dicke_scenario(1000, 'symmetric', 0.01))\n"
            "g = ghz(6, rep=full_rep(6))\n"
            "assert mandelstam_tamm_check(g, collective_op('z', g.rep), 0.1).holds\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "sys.exit(' '.join(sorted(loaded)) or None)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    ["state", "--kind", "squeezed", "--n", "1000", "--lam", "100", "--out", "sq.json"],
    ["sweep", "--kind", "frontier", "--n", "100", "--points", "16", "--out", "f.csv"],
    ["sweep", "--kind", "noise", "--p", "0.25", "--n-list", "4,6", "--points", "8",
     "--out", "n.csv"],
], ids=["state-squeezed", "frontier", "noise"])
def test_squeezing_commands_run_without_scipy(argv, tmp_path):
    """A None entry in sys.modules makes every import of scipy fail."""
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from qmetro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_noisy_sweep_without_qfi_reaches_large_n():
    p = 0.25
    eta = 1.0 - p
    result = noisy_scaling_sweep(p, [64, 256], lambda_points=8)
    for rec in result.records:
        assert 0.0 < rec.precision_inv <= rec.ceiling + 1e-6
        assert rec.ceiling == rec.n / p
        assert rec.var_x >= (2 * p - p ** 2) * rec.n / 4 - 1e-9
        # <J_z> <= eta N/2 and Var(J_x) >= (1 - eta^2) N/4 after the channel
        assert rec.precision_inv <= eta ** 2 * rec.n / (1 - eta ** 2) + 1e-9
    # the QFI column stops at the cap, before any row runs
    with pytest.raises(ValueError, match=f"N <= {NOISY_QFI_MAX}"):
        noisy_scaling_sweep(p, [4, NOISY_QFI_MAX + 1], lambda_points=4)


def test_crb_report_carries_its_error_propagation():
    sc = dicke_scenario(6, theta0=0.6)
    crb = crb_consistency(sc)
    assert crb.result == error_propagation(sc)
    assert crb.precision == crb.result.value


def test_scenario_command_propagates_errors_once(monkeypatch, tmp_path):
    import qmetro.cli
    import qmetro.metrology
    calls = []
    original = qmetro.metrology.error_propagation

    def counted(sc, *args, **kwargs):
        calls.append(sc.label)
        return original(sc, *args, **kwargs)

    monkeypatch.setattr(qmetro.metrology, "error_propagation", counted)
    rc = qmetro.cli.main(["scenario", "--family", "dicke", "--n", "6",
                          "--theta0", "0.1", "--out", str(tmp_path / "s.json")])
    assert rc == 0
    assert calls == ["dicke(6)"]
