"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  All tolerances are fixed here, not configurable.
"""

import time

import numpy as np

from qmetro.config import ROOF_TOL
from qmetro.fisher import (Povm, classical_fisher, concave_roof_oracle,
                           convex_roof_oracle, mandelstam_tamm_check, qfi,
                           sld, zeno_time)
from qmetro.metrology import (dicke_scenario, error_propagation,
                              frontier_on_polarization_grid, ghz_parity_scenario,
                              noisy_scaling_sweep, ramsey_curve, ramsey_scenario)
from qmetro.selftest import qfi_property_battery, witness_soundness_battery
from qmetro.spin import collective_op
from qmetro.states import dicke, ghz
from qmetro.witnesses import avg_qfi, depth_certificate, producibility_bound
from conftest import roof_search


def _report(name, detail=""):
    print(f"ACCEPT {name}: PASS {detail}")


def test_criterion_01_ramsey_shot_noise():
    t0 = time.time()
    for n in (2, 4, 8):
        res = error_propagation(ramsey_scenario(n))
        assert abs(res.value - 1 / n) <= 1e-10 / n
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("1 ramsey shot noise", f"(dtheta)^2 = 1/N for N=2,4,8 in {elapsed:.2f}s")


def test_criterion_02_ghz_heisenberg():
    t0 = time.time()
    for n in (2, 3, 4, 8):
        res = error_propagation(ghz_parity_scenario(n))
        assert abs(res.value - 1 / n ** 2) <= 1e-10 / n ** 2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("2 ghz heisenberg", f"(dtheta)^2 = 1/N^2 for N=2,3,4,8 in {elapsed:.2f}s")


def test_criterion_03_dicke_precision_and_curve():
    for n in (2, 4, 6, 8, 10, 12):
        res = error_propagation(dicke_scenario(n))
        expected = 2 / (n * (n + 2))
        assert abs(res.value - expected) <= 1e-10 * expected
    sc = dicke_scenario(8)
    thetas = np.linspace(0.0, np.pi, 100)
    curve = ramsey_curve(sc.probe, sc.generator, sc.observable, thetas)
    closed = 8 * 10 / 8 * np.sin(thetas) ** 2
    assert np.abs(curve["mean"] - closed).max() <= 1e-9
    _report("3 dicke scheme", "(dtheta)^2 = 2/(N(N+2)) for even N<=12, 100-point curve")


def test_criterion_04_frontier_reproduction():
    t0 = time.time()
    # shared polarization grid; the high-polarization edge is excluded since
    # the normalised curves only converge in the squeezing-dominated region
    grid = np.linspace(1 / 32, 0.8, 32)
    y100 = frontier_on_polarization_grid(100, grid, points=110)
    y1000 = frontier_on_polarization_grid(1000, grid, points=110)
    rel = np.abs(y100 - y1000) / np.maximum(y100, y1000)
    assert rel.max() <= 0.05, f"curves deviate by {rel.max():.2%}"
    assert np.argmax(y100) == 0 and np.argmax(y1000) == 0
    for n, curve in ((100, y100), (1000, y1000)):
        ceiling = (2 * n + n * n * (1 - grid ** 2)) / n ** 2
        assert (curve <= ceiling + 1e-6).all()
    elapsed = time.time() - t0
    assert elapsed < 300
    _report("4 frontier N=100 vs N=1000",
            f"max pointwise deviation {rel.max():.2%} on 32-point grid in {elapsed:.0f}s")


def test_criterion_05_qfi_battery():
    t0 = time.time()
    results = qfi_property_battery(samples=100, seed=2024)
    for r in results:
        assert r.passed, r.line()
    elapsed = time.time() - t0
    assert elapsed < 120
    _report("5 qfi property battery",
            f"{len(results)} checks x 100 samples in {elapsed:.1f}s")


def test_criterion_06_roof_theorem():
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst_cv = worst_cc = worst_search = 0.0
    for _ in range(20):
        G = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        rho = G @ G.conj().T
        rho /= np.trace(rho).real
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A = (X + X.conj().T) / 2
        target_cv = qfi(rho, A).value / 4
        m = np.real(np.trace(A @ rho))
        target_cc = np.real(np.trace(A @ A @ rho)) - m ** 2
        cv = convex_roof_oracle(rho, A).value
        cc = concave_roof_oracle(rho, A).value
        worst_cv = max(worst_cv, abs(cv - target_cv))
        worst_cc = max(worst_cc, abs(cc - target_cc))
        # the independent side: no local search gets past either roof
        found_cv, found_cc = roof_search(rho, A, "convex"), roof_search(rho, A, "concave")
        assert target_cv - ROOF_TOL <= found_cv and found_cc <= target_cc + ROOF_TOL
        worst_search = max(worst_search, abs(found_cv - target_cv), abs(found_cc - target_cc))
    assert worst_cv <= 1e-10
    assert worst_cc <= 1e-10
    assert worst_search <= 1e-4
    elapsed = time.time() - t0
    assert elapsed < 120
    _report("6 variance roofs", f"20 rank-2 states, worst gaps "
            f"{worst_cv:.2e}/{worst_cc:.2e} exact, {worst_search:.2e} searched "
            f"in {elapsed:.0f}s")


def test_criterion_07_witness_soundness_and_saturation():
    sound = witness_soundness_battery(samples=200, seed=77)[0]
    assert sound.passed, sound.line()
    g8 = ghz(8)
    F = qfi(g8, collective_op("x", g8.rep)).value
    cert = depth_certificate(F, 8)
    assert F > 50 and cert.genuine_multipartite and cert.depth == 8
    for n in (6, 8):
        avg = avg_qfi(dicke(n, n // 2))
        assert abs(avg.average - n * (n + 2) / 3) <= 1e-8
    _report("7 witness soundness", "200 product states clean; GHZ_8 genuine "
            f"8-partite (F_Q={F:.0f}>50); Dicke saturates the average ceiling")


def test_criterion_08_depth_table():
    def brute(n, k):
        best = 0
        def rec(rem, largest, acc):
            nonlocal best
            if rem == 0:
                best = max(best, acc)
                return
            for part in range(min(k, largest, rem), 0, -1):
                rec(rem - part, part, acc + part * part)
        rec(n, n, 0)
        return best

    checked = 0
    for n in range(2, 13):
        for k in range(1, n + 1):
            assert producibility_bound(n, k) == brute(n, k)
            checked += 1
        # certificates are consistent: F at each bound certifies exactly k
        for k in range(1, n + 1):
            cert = depth_certificate(float(producibility_bound(n, k)), n)
            assert cert.depth <= k
    _report("8 depth table", f"{checked} (N,k) bounds match brute-force partitions")


def test_criterion_09_noise_crossover():
    t0 = time.time()
    sweep = noisy_scaling_sweep(0.25, [4, 6, 8, 10], lambda_points=12)
    for rec in sweep.records:
        assert rec.precision_inv <= rec.ceiling + 1e-6
        assert rec.var_x >= (2 * 0.25 - 0.25 ** 2) * rec.n / 4 - 1e-9
    # noiseless scaling: the asymptotic exponent is 2; the fit window must
    # sit at large N because the optimum N(N+2)/2 carries an (N+2)/N bias
    # that puts the {4,6,8,10} window at slope 1.755 (printed for reference)
    small = noisy_scaling_sweep(0.0, [4, 6, 8, 10], lambda_points=12)
    large = noisy_scaling_sweep(0.0, [32, 64, 128, 256], lambda_points=12)
    assert abs(large.exponent - 2.0) <= 0.1
    elapsed = time.time() - t0
    _report("9 noise crossover",
            f"p=0.25 under N/p ceiling with Var floor; p=0 exponent "
            f"{large.exponent:.3f} (N=32..256; small-N window gives "
            f"{small.exponent:.3f}) in {elapsed:.0f}s")


def test_criterion_10_optimal_measurement():
    st = ramsey_scenario(4).probe
    Jy = collective_op("y", st.rep)
    povm = Povm.from_observable_eigenbasis(sld(st, Jy))
    F = classical_fisher(st, Jy, povm)
    FQ = qfi(st, Jy).value
    assert abs(F.value - FQ) <= 1e-12 * FQ

    g = ghz(3, axis="z")
    Jz = collective_op("z", g.rep)
    povm_g = Povm.from_observable_eigenbasis(sld(g, Jz))
    Fg = classical_fisher(g, Jz, povm_g)
    FQg = qfi(g, Jz).value
    assert abs(Fg.value - FQg) <= 1e-12 * FQg

    blind = classical_fisher(g, Jz, Povm.from_observable_eigenbasis(Jz))
    assert blind.value <= 1e-12
    _report("10 optimal measurement",
            f"SLD basis reaches F_Q (ramsey {F.value:.6f}/4, ghz {Fg.value:.6f}/9); "
            "population readout blind")


def test_criterion_11_speed_bound_and_zeno():
    rng = np.random.default_rng(1111)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = G @ G.conj().T
        rho /= np.trace(rho).real
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        A = (X + X.conj().T) / 2
        F = qfi(rho, A).value
        cap = np.pi / np.sqrt(F) if F > 1e-9 else 0.5
        theta = rng.uniform(0, min(cap, 0.6))
        assert mandelstam_tamm_check(rho, A, theta).holds
    for n in range(2, 11):
        g = ghz(n)
        tau = zeno_time(g, collective_op("x", g.rep))
        assert abs(tau - 2 / n) <= 1e-12
    _report("11 speed bound and zeno", "bound holds on 100 samples; "
            "tau_QZ(GHZ_N, J_x) = 2/N for N<=10")
