import json

import numpy as np
import pytest

import qmetro.linalg
from qmetro.fisher import qfi
from qmetro.linalg import hermitian_trace, real_if_exact
from qmetro.spin import collective_op, direction_op, full_rep, symmetric_rep
from qmetro.states import (QuantumState, SqueezingSpec, dicke, ghz,
                           maximally_mixed, mix_white_noise, polarized, rotate,
                           singlet_pi, squeezed_ground_state, to_full)
from qmetro.witnesses import (avg_producibility_bound, avg_qfi,
                              avg_two_particle_dm, chi_squared,
                              depth_certificate, macroscopicity, moments,
                              moments_from_two_particle, optimal_ssi,
                              producibility_bound, qfi_entanglement,
                              xi_squared_os, xi_squared_s, xi_squared_singlet)
from conftest import rand_density, rand_pure


# ----------------------------------------------------------------- moments

def test_moments_polarized():
    m = moments(polarized(4, "z"))
    assert m.mean[2] == pytest.approx(2.0, abs=1e-12)
    assert m.var("x") == pytest.approx(1.0, abs=1e-12)


def test_moments_singlet_all_zero():
    m = moments(singlet_pi(4))
    assert np.abs(m.mean).max() <= 1e-9
    assert abs(m.total_variance()) <= 1e-9


def test_moments_dicke():
    m = moments(dicke(4, 2))
    assert m.second_moment("x") == pytest.approx(3.0, abs=1e-12)
    assert m.second_moment("z") == pytest.approx(0.0, abs=1e-12)


def _dense_moment_diagonal(state):
    """Tr((J_l J_l) rho) as dense products give it: the real part of the
    complex J_l (the imaginary part of J_y, whose square is -R_y^2), two real
    products of the full matrices and np.trace."""
    rho = state.data.real
    out = []
    for a in "xyz":
        J = collective_op(a, state.rep).matrix
        R = J.imag if a == "y" else J.real
        out.append((-1.0 if a == "y" else 1.0) * np.trace(R @ R @ rho))
    return np.array(out)


def _whole_array_means(state):
    """<J_l> as whole-array traces of one contiguous copy of the density."""
    rho = np.ascontiguousarray(real_if_exact(state.data))
    return np.array([hermitian_trace(collective_op(a, state.rep).factor, rho).real
                     for a in "xyz"])


_TIED_DENSITIES = {**{f"ghz10-p{p}": lambda p=p: mix_white_noise(ghz(10, full_rep(10)), p)
                      for p in (0.5, 0.6, 0.7, 0.8, 0.9)},
                   "singlet8": lambda: singlet_pi(8), "singlet10": lambda: singlet_pi(10)}


@pytest.mark.parametrize("make", _TIED_DENSITIES.values(), ids=_TIED_DENSITIES.keys())
def test_density_moment_diagonal_is_the_dense_form_bitwise(make):
    """Axes tie exactly on these states (y and z for white-noise GHZ, all
    three for singlets), so the axis optimal_ssi reports follows the last bit
    of <J_l^2>: the exact rows of J_l^2 from the operators' products and the
    diagonal of J_z keep every bit, and so do the means."""
    state = make()
    m = moments(state)
    got = np.diag(m.second).copy()
    assert np.array_equal(got.view(np.uint64), _dense_moment_diagonal(state).view(np.uint64))
    assert np.array_equal(m.mean.view(np.uint64), _whole_array_means(state).view(np.uint64))


@pytest.mark.parametrize("rows", [64, 256])
@pytest.mark.parametrize("make", [_TIED_DENSITIES["ghz10-p0.6"], _TIED_DENSITIES["singlet10"]],
                         ids=["ghz10-p0.6", "singlet10"])
def test_blocked_moments_keep_every_bit_at_any_block(monkeypatch, make, rows):
    """Column blocks of 64 and 256 rows of a 1024^2 density (128 is the
    default) give the dense form's diagonal and means bit for bit."""
    monkeypatch.setattr(qmetro.linalg, "_BLOCK_ENTRIES", 1024 * rows)
    state = make()
    m = moments(state)
    got = np.diag(m.second).copy()
    assert np.array_equal(got.view(np.uint64), _dense_moment_diagonal(state).view(np.uint64))
    assert np.array_equal(m.mean.view(np.uint64), _whole_array_means(state).view(np.uint64))


def _dense_factor_moments(state):
    """The moments by the loop that multiplied one J_l's dense factor F at a
    time into column blocks of rho: <J_l> as the whole-array trace with F,
    G_kl from J_k's factor columns against F rho[:, blk], and G_ll from the
    rows blk of F F times rho[:, blk]."""
    from qmetro.linalg import row_blocks
    rho = state.data
    factors = [collective_op(a, state.rep)._factor() for a in "xyz"]
    mean = np.array([hermitian_trace(f, rho).real for f in factors])
    G = np.zeros((3, 3), dtype=complex)
    for l, (F, k) in enumerate(factors):
        diagonal = []
        for blk in row_blocks(rho.shape[0]):
            cols = np.ascontiguousarray(rho[:, blk])
            x = (F[:, None] * cols if F.ndim == 1 else F @ cols, k)
            for m, (g, kg) in enumerate(factors):
                if m != l:
                    G[m, l] += (hermitian_trace((g[blk], kg), (x[0][blk], k)) if g.ndim == 1
                                else hermitian_trace((np.ascontiguousarray(g[:, blk]), kg), x))
            P = (F[blk] * F[blk])[:, None] * cols[blk] if F.ndim == 1 else (F[blk] @ F) @ cols
            diagonal.append(np.diagonal(P))
        G[l, l] = 1j ** (2 * k) * np.concatenate(diagonal).sum()
    return mean, np.real(G + G.conj().T) / 2.0


_MOMENT_STATES = {**{name: _TIED_DENSITIES[name] for name in
                     ("ghz10-p0.5", "ghz10-p0.6", "ghz10-p0.7", "ghz10-p0.8", "ghz10-p0.9",
                      "singlet8")},
                  "squeezed-full10": lambda: mix_white_noise(
                      to_full(squeezed_ground_state(SqueezingSpec(10, 4.0))), 0.9)}


@pytest.mark.parametrize("make", _MOMENT_STATES.values(), ids=_MOMENT_STATES.keys())
def test_density_moments_are_the_dense_factor_loop_bitwise(make):
    """Products from the operators' structure in place of their dense factors
    change no bit of any moment on these states, whose tie picks
    perfbench/reference.json records: the entries of J_x rho and J_y rho that
    round differently reach the moments only through sums of exact zeros and
    through imaginary parts that Re drops."""
    state = make()
    m = moments(state)
    mean, second = _dense_factor_moments(state)
    assert np.array_equal(m.mean.view(np.uint64), mean.view(np.uint64))
    assert np.array_equal(m.second.view(np.uint64), second.view(np.uint64))


def test_moments_of_a_real_density_copy_no_payload():
    """The moments of a real full N = 10 density take the float64 payload as
    it is: NumPy-tracked memory holds a few 1 MB column blocks (10 MB here;
    12 MB with one dense 8 MB factor at a time), no 8 MB copy of rho."""
    import tracemalloc
    state = mix_white_noise(ghz(10, full_rep(10)), 0.6)
    tracemalloc.start()
    try:
        moments(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


def _symmetric_densities(rng, n):
    """Real and complex symmetric-sector densities of every coupled-index
    pattern: every index coupled, none (a diagonal), every third uncoupled,
    and 0.5 GHZ + 0.5 Dicke (the odd indices uncoupled)."""
    rep = symmetric_rep(n)
    g, dk = ghz(n, rep).data.real, dicke(n, n // 2, rep).data.real
    w = rng.random(rep.dim)
    cases = {"ghz+dicke": 0.5 * np.outer(g, g) + 0.5 * np.outer(dk, dk),
             "diagonal": np.diag(w / w.sum())}
    for kind in ("real", "complex"):
        rho = rand_density(rng, rep.dim, rank=max(rep.dim // 2, 1))
        rho = rho.real.copy() if kind == "real" else rho
        cases[f"dense-{kind}"] = rho.copy()
        off = np.arange(0, rep.dim, 3)
        diag = rho[off, off].copy()
        rho[off, :] = 0.0
        rho[:, off] = 0.0
        rho[off, off] = diag
        cases[f"third-uncoupled-{kind}"] = rho / np.trace(rho).real
    return {name: QuantumState(rep, rho) for name, rho in cases.items()}


@pytest.mark.parametrize("n,rows", [(7, 8), (200, 16), (200, 256)])
def test_symmetric_density_moments_and_fisher_match_dense_oracles(monkeypatch, rng, n, rows):
    """Moments and Fisher matrices of symmetric-sector densities, whose J_x and
    J_y meet them as bands, against dense matrices and a dense np.linalg.eigh,
    within 1e-12 relative, over several column blocks and one; the generators
    add a complex band and a real band with a diagonal."""
    from qmetro.config import QFI_PAIR_FLOOR
    from qmetro.fisher import fisher_matrix
    monkeypatch.setattr(qmetro.linalg, "_BLOCK_ENTRIES", (n + 1) * rows)
    rep = symmetric_rep(n)
    ops = [collective_op(a, rep) for a in "xyz"]
    ops += [direction_op(v / np.linalg.norm(v), rep) for v in (np.ones(3), np.array([3., 0, 4]))]
    J = [A.matrix for A in ops]
    for name, state in _symmetric_densities(rng, n).items():
        rho = state.data
        m = moments(state)
        mean = np.array([np.trace(M @ rho).real for M in J[:3]])
        G = np.array([[np.trace(a @ b @ rho) for b in J[:3]] for a in J[:3]])
        assert np.abs(m.mean - mean).max() <= 1e-12 * max(1.0, np.abs(mean).max()), name
        second = np.real(G + G.conj().T) / 2.0
        assert np.abs(m.second - second).max() <= 1e-12 * np.abs(second).max(), name
        lam, V = np.linalg.eigh(rho)
        total = lam[:, None] + lam
        keep = total >= QFI_PAIR_FLOOR
        W = np.where(keep, (lam[:, None] - lam) ** 2 / np.where(keep, total, 1.0), 0.0)
        T = [V.conj().T @ M @ V for M in J]
        want = np.array([[2.0 * np.sum(W * Tm * Tn.conj()).real for Tn in T] for Tm in T])
        got = fisher_matrix(state, ops).matrix
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


@pytest.mark.parametrize("rows", [5, 8, 64])
def test_blocked_moments_match_dense_products(monkeypatch, rng, rows):
    """Every second moment of a complex density from column blocks of 5, 8
    and 64 (one block) of its 64 columns, against dense complex products."""
    monkeypatch.setattr(qmetro.linalg, "_BLOCK_ENTRIES", 64 * rows)
    rep = full_rep(6)
    state = QuantumState(rep, rand_density(rng, rep.dim))
    J = [collective_op(a, rep).matrix for a in "xyz"]
    dense = np.array([[np.trace(a @ b @ state.data).real for b in J] for a in J])
    m = moments(state)
    assert np.abs(m.second - (dense + dense.T) / 2).max() <= 1e-12
    assert np.abs(m.mean - [np.trace(a @ state.data).real for a in J]).max() <= 1e-12


# ------------------------------------------------- xi_s

def test_moments_and_collective_fisher_kept_on_the_state(monkeypatch):
    import qmetro.witnesses
    st = singlet_pi(4)
    m = moments(st)
    assert moments(st) is m
    calls = []
    original = qmetro.witnesses.fisher_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qmetro.witnesses, "fisher_matrix", counted)
    g = to_full(ghz(4, axis="z"))
    report = avg_qfi(g)
    macro = macroscopicity(g)
    assert len(calls) == 1
    per_axis = [qfi(g, collective_op(a, g.rep)).value for a in "xyz"]
    assert np.allclose(report.per_axis, per_axis, atol=1e-9)
    assert macro.fq_max == pytest.approx(4 * max(per_axis), abs=1e-9)


def test_xi_s_polarized_boundary():
    rep = xi_squared_s(moments(polarized(6, "z")))
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert rep.verdict == "satisfied" and rep.boundary


def test_xi_s_squeezed_state_violates():
    st = squeezed_ground_state(SqueezingSpec(100, 100.0))
    rep = xi_squared_s(moments(st))
    assert rep.value < 1 and rep.violated


def test_xi_s_ghz_inapplicable():
    rep = xi_squared_s(moments(ghz(4)))
    assert rep.verdict == "inapplicable"
    assert rep.value is None


# ------------------------------------------------- optimal ssi

def test_ssi_singlet_violates_total_variance():
    reports = {r.criterion: r for r in optimal_ssi(moments(singlet_pi(4)))}
    assert reports["ssi_total_variance"].violated
    assert not reports["ssi_total_second_moment"].violated


def test_ssi_polarized_equality_case():
    n = 6
    reports = {r.criterion: r for r in optimal_ssi(moments(polarized(n, "z")))}
    rep = reports["ssi_variances_vs_second_moment"]
    assert rep.verdict == "satisfied" and rep.boundary
    assert rep.value == pytest.approx(n * (n - 1) / 2, abs=1e-9)


def test_ssi_dicke_violation():
    reports = {r.criterion: r for r in optimal_ssi(moments(dicke(6, 3)))}
    assert reports["ssi_second_moments_vs_variance"].violated


@pytest.mark.parametrize("n, s", [(4, 0.0), (4, 0.5), (7, 1.25)])
def test_ssi_exact_tie_reports_the_first_axis(n, s):
    """Isotropic second moments tie all three margins exactly: both
    axis-resolved inequalities report m = x, the first of x, y, z."""
    from qmetro.witnesses import MomentSet
    reports = {r.criterion: r for r in optimal_ssi(MomentSet(n, np.zeros(3), s * np.eye(3)))}
    for name in ("ssi_second_moments_vs_variance", "ssi_variances_vs_second_moment"):
        assert reports[name].detail == "tightest for m=x", name


def test_ssi_rejects_unphysical_moments():
    from qmetro.witnesses import MomentSet
    n = 4
    S = np.eye(3) * (n * (n + 2) / 4)  # each axis at the collective maximum
    with pytest.raises(ValueError):
        MomentSet(n, np.zeros(3), S)


# ------------------------------------------------- xi_os / xi_singlet

def test_xi_os_dicke_violates_at_zero():
    rep = xi_squared_os(moments(dicke(4, 2)), squeezed_axis="z")
    assert rep.value == pytest.approx(0.0, abs=1e-9)
    assert rep.violated


def test_xi_os_polarized_boundary():
    rep = xi_squared_os(moments(polarized(8, "z")))
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert not rep.violated


def test_xi_os_maximally_mixed_trivially_satisfied():
    rep = xi_squared_os(moments(maximally_mixed(full_rep(4))))
    assert rep.verdict == "satisfied"
    assert rep.value is None


def test_xi_singlet_values():
    assert xi_squared_singlet(moments(singlet_pi(4))).value == pytest.approx(0.0, abs=1e-9)
    pol = xi_squared_singlet(moments(polarized(6, "z")))
    assert pol.value == pytest.approx(1.0, abs=1e-9)
    mm = xi_squared_singlet(moments(maximally_mixed(full_rep(4))))
    assert mm.value == pytest.approx(1.5, abs=1e-9)
    assert not mm.violated


def test_xi_os_detects_whatever_xi_s_detects(rng):
    # sampled implication: xi_s < 1 => xi_os < 1
    for lam in (2.0, 10.0, 50.0, 300.0):
        m = moments(squeezed_ground_state(SqueezingSpec(40, lam)))
        s = xi_squared_s(m)
        os_ = xi_squared_os(m)
        if s.verdict != "inapplicable" and s.value < 1 - 1e-9:
            assert os_.value is not None and os_.value < 1 - 1e-9


# ------------------------------------------------- qfi-based criteria

def test_qfi_entanglement_verdicts():
    g = ghz(4)
    rep = qfi_entanglement(qfi(g, collective_op("x", g.rep)).value, 4)
    assert rep.violated and rep.value == pytest.approx(16.0, abs=1e-9)
    mm = maximally_mixed(symmetric_rep(4))
    rep2 = qfi_entanglement(qfi(mm, collective_op("x", mm.rep)).value, 4)
    assert not rep2.violated
    rep3 = qfi_entanglement(17.0 + 1e-3, 4)
    assert "unphysical" in rep3.detail


def test_chi_squared_values():
    g = ghz(5)
    rep = chi_squared(g, collective_op("x", g.rep))
    assert rep.value == pytest.approx(1 / 5, abs=1e-9)
    pol = polarized(6, "z")
    rep2 = chi_squared(pol, collective_op("y", pol.rep))
    assert rep2.value == pytest.approx(1.0, abs=1e-9)


def test_chi_bounded_by_xi_s(rng):
    # chi^2 <= xi_s^2 with the rotation axis matched to the mean-spin plane
    for lam in (1.0, 5.0, 25.0):
        st = squeezed_ground_state(SqueezingSpec(20, lam))
        m = moments(st)
        s = xi_squared_s(m)
        # mean spin along z: the matched in-plane rotation axis is y
        c = chi_squared(st, collective_op("y", st.rep))
        assert c.value <= s.value + 1e-8


# ------------------------------------------------- producibility depth

def _max_square_sum(n, k):
    # brute force: partitions of n with parts <= k, maximizing sum of squares
    best = 0
    def rec(remaining, largest, acc):
        nonlocal best
        if remaining == 0:
            best = max(best, acc)
            return
        for part in range(min(k, largest, remaining), 0, -1):
            rec(remaining - part, part, acc + part * part)
    rec(n, n, 0)
    return best


def test_producibility_bound_matches_brute_force():
    for n in range(2, 13):
        for k in range(1, n + 1):
            assert producibility_bound(n, k) == _max_square_sum(n, k)


def test_depth_certificate_examples():
    cert = depth_certificate(64.0, 8)
    assert cert.genuine_multipartite and cert.depth == 8
    cert2 = depth_certificate(12.0, 6)
    assert cert2.depth == 2
    cert3 = depth_certificate(6.0, 6)
    assert cert3.depth == 1
    with pytest.raises(ValueError, match="physical"):
        depth_certificate(70.0, 8)


def test_fisher_bounds_compare_within_the_slack_of_f():
    """GHZ-4096 turned about J_x by 1.3 has F_Q - N^2 = 1.2e-6, round-off of
    F_Q = 1.7e7: the depth certificate refused it and qfi_entanglement called
    it unphysical.  Values past the ceiling by more than 1e-9 F_Q still are."""
    F = 4096.0 ** 2 * (1 + 1e-13)
    cert = depth_certificate(F, 4096)
    assert cert.depth == 4096 and cert.genuine_multipartite and cert.fq == F
    assert qfi_entanglement(F, 4096).detail == ""
    with pytest.raises(ValueError, match="physical"):
        depth_certificate(4096.0 ** 2 * (1 + 1e-8), 4096)


def test_depth_monotone_in_fq():
    n = 10
    last = 0
    for F in np.linspace(0, n * n, 40):
        k = depth_certificate(float(F), n).depth
        assert k >= last
        last = k


def test_avg_qfi_saturation():
    for n in (4, 6):
        d = avg_qfi(dicke(n, n // 2))
        assert d.average == pytest.approx(n * (n + 2) / 3, abs=1e-8)
        g = avg_qfi(ghz(n))
        assert g.average == pytest.approx(n * (n + 2) / 3, abs=1e-8)
        assert g.genuine_multipartite
    mm = avg_qfi(maximally_mixed(symmetric_rep(4)))
    assert mm.average <= 1e-12
    assert mm.certified_depth == 1


def test_avg_qfi_spin_length_bound():
    for st in (polarized(5, "z"), ghz(5), dicke(6, 3)):
        rep = avg_qfi(st)
        assert 3 * rep.average <= 3 * rep.bound_spin_length + 1e-8


def test_avg_producibility_k1_matches_separable():
    assert avg_producibility_bound(9, 1) == pytest.approx(6.0)
    assert avg_producibility_bound(6, 6) == pytest.approx(16.0)
    # remainder-one branch
    assert avg_producibility_bound(7, 3) == pytest.approx((2 * 3 * 5 + 2) / 3)


@pytest.mark.parametrize("k", [0, -2, 7])
def test_avg_producibility_bound_refuses_k_outside_one_to_n(k):
    """k = 0 divided by zero and k = -2 gave -1/3; both bounds refuse k
    outside 1..N with one message."""
    for bound in (producibility_bound, avg_producibility_bound):
        with pytest.raises(ValueError, match=f"need 1 <= k <= N, got k={k}, N=6"):
            bound(6, k)


# ------------------------------------------------- macroscopicity

def test_macroscopicity_families():
    for n in (4, 7):
        assert macroscopicity(ghz(n)).n_eff == pytest.approx(n, abs=1e-9)
    assert macroscopicity(polarized(6, "z")).n_eff == pytest.approx(1.0, abs=1e-9)
    assert macroscopicity(maximally_mixed(symmetric_rep(4))).n_eff <= 1e-12


def test_macroscopicity_direction_sign_is_fixed(monkeypatch):
    import qmetro.witnesses
    state = mix_white_noise(ghz(4, full_rep(4)), 0.8)
    want = macroscopicity(state).direction
    assert want[int(np.argmax(np.abs(want)))] > 0
    eigh = np.linalg.eigh

    def flipped(M):
        w, v = eigh(M)
        return w, -v

    # eigh's arbitrary eigenvector sign does not reach the report
    monkeypatch.setattr(np.linalg, "eigh", flipped)
    assert macroscopicity(state).direction == want
    # an exact tie in magnitude goes to the first index
    s = 1.0 / np.sqrt(2.0)
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda M: (np.arange(3.0), np.array([[0, 0, -s], [1, 0, 0], [0, 1, s]])))
    monkeypatch.setattr(qmetro.witnesses, "_collective_fisher", lambda st: np.eye(3))
    assert macroscopicity(state).direction == (s, 0.0, -s)


def test_macroscopicity_bounded_and_convex(rng):
    n = 4
    rep = full_rep(n)
    g = to_full(ghz(n))
    pol = to_full(polarized(n, "z"))
    mix = QuantumState(rep, 0.5 * g.density() + 0.5 * pol.density())
    n_mix = macroscopicity(mix).n_eff
    assert n_mix <= max(macroscopicity(g).n_eff, macroscopicity(pol).n_eff) + 1e-6
    assert n_mix <= n + 1e-6
    for _ in range(10):
        st = QuantumState(rep, rand_pure(rng, 2 ** n))
        assert macroscopicity(st).n_eff <= n + 1e-6


def test_macroscopicity_matches_direction_scan():
    st = dicke(5, 2)
    best = macroscopicity(st)
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        Jn = direction_op(v, st.rep)
        assert 4 * qfi(st, Jn).value / (4 * st.n) <= best.n_eff + 1e-9


# ------------------------------------------------- two-particle reduction

def test_avg_two_particle_product_state():
    st = polarized(4, "z", full_rep(4))
    rho2 = avg_two_particle_dm(st)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.abs(rho2 - expected).max() <= 1e-12


def test_avg_two_particle_singlet_pair():
    rho2 = avg_two_particle_dm(singlet_pi(2))
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    assert np.abs(rho2 - np.outer(psi, psi.conj())).max() <= 1e-12


def test_moments_recoverable_from_pair_average(rng):
    # permutation-invariant state: symmetric-sector random vector embedded
    n = 5
    st = to_full(QuantumState(symmetric_rep(n), rand_pure(rng, n + 1)))
    direct = moments(st)
    rebuilt = moments_from_two_particle(avg_two_particle_dm(st), n)
    assert np.abs(direct.mean - rebuilt.mean).max() <= 1e-9
    assert np.abs(direct.second - rebuilt.second).max() <= 1e-9
    s_direct = xi_squared_s(direct, "x")
    s_rebuilt = xi_squared_s(rebuilt, "x")
    if s_direct.value is not None:
        assert s_rebuilt.value == pytest.approx(s_direct.value, abs=1e-9)


@pytest.mark.parametrize("name", ["mixed-10-0.5", "mixed-10-0.6", "mixed-10-0.7",
                                  "mixed-10-0.8", "mixed-10-0.9", "singlet-8"])
def test_moments_keep_their_bits_from_operands_written_by_index(monkeypatch, name):
    """The moments of a full density from the site sums' columns and square
    rows written by index equal, bit for bit, those from ``times`` of unit
    columns (the operands the moments took before), so that the axis
    optimal_ssi reports at an exact tie does not move."""
    from qmetro import spin
    from qmetro.witnesses import _evaluate_moments

    def state():
        if name == "singlet-8":
            return singlet_pi(8)
        return mix_white_noise(ghz(10, full_rep(10)), float(name.rsplit("-", 1)[1]))

    ours = _evaluate_moments(state())
    monkeypatch.setattr(spin._SiteSum, "columns", spin.CollectiveOperator.columns)
    monkeypatch.setattr(spin._SiteSum, "square_rows", spin.CollectiveOperator.square_rows)
    unit = _evaluate_moments(state())
    assert ours.mean.tobytes() == unit.mean.tobytes()
    assert ours.second.tobytes() == unit.second.tobytes()


# ------------------------------------------------- advertised sizes

@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("n", [1000, 3410, 4096])
def test_witness_all_certifies_nothing_on_a_polarized_state(tmp_path, n, axis):
    """A product state violates no criterion and has depth 1 at any size.
    At N = 1000 the axis-resolved inequalities read violated by round-off
    (2.3e-13 against -5.8e-8); at N = 3410 xi_os read -1745408; at N = 4096
    the total variance read 2048 - 2.3e-9 against 2048."""
    from qmetro.cli import main
    from qmetro.serialize import write_state
    path = tmp_path / "p.json"
    write_state(polarized(n, axis), path)
    for squeezed in "xyz":
        out = tmp_path / f"w{squeezed}.json"
        assert main(["witness", str(path), "--all", "--squeezed-axis", squeezed,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        violated = [w["criterion"] for w in doc["witnesses"] if w["verdict"] == "violated"]
        assert violated == [], (squeezed, violated)
        assert doc["depth_certificate"]["depth"] == 1
        assert doc["avg_qfi"]["certified_depth"] == 1


def test_witnesses_take_a_turned_squeezed_state_at_n_4096(tmp_path):
    """The squeezed N = 4096 state (lambda = 5) turned about J_x by 0.3 has
    sum_l <J_l^2> = N(N+2)/4 + 2.3e-8, which MomentSet admits: optimal_ssi
    refused it as unphysical and witness --all exited 1."""
    from qmetro.cli import main
    from qmetro.serialize import write_state
    st = squeezed_ground_state(SqueezingSpec(4096, 5.0))
    turned = rotate(st, collective_op("x", st.rep), 0.3)
    reports = optimal_ssi(moments(turned))
    assert reports[0].criterion == "ssi_total_second_moment" and not reports[0].violated
    path = tmp_path / "t.json"
    write_state(turned, path)
    assert main(["witness", str(path), "--all", "--out", str(tmp_path / "w.json")]) == 0
