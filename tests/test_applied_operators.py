"""Applied operators checked against the dense builders they replaced.

A ``CollectiveOperator`` acts on vectors through ``apply``, meets densities
through its ``times``, keeps a ``factor`` (A = 1j**k R, R a diagonal
or a matrix) and builds its dense ``matrix`` only on request.  The former dense builders
are kept here as oracles: the lazy matrix must equal them, and 1j**k R
must equal the matrix, bit for bit; ``apply`` must equal the dense
product to 1e-12 relative to the scale ||A||_inf ||v||_inf of the product.
"""

import tracemalloc

import numpy as np
import pytest

from qmetro import spin
from qmetro.cli import main
from qmetro.fisher import qfi
from qmetro.linalg import eigh_hermitian, row_blocks
from qmetro.serialize import write_state
from qmetro.spin import (AXES, PAULI, CollectiveOperator, Representation, as_operator,
                         collective_op, direction_op, full_rep, gradient_op,
                         ladder_amplitudes, parity_op, single_site_op, squared_op,
                         symmetric_rep)
from qmetro.states import SqueezingSpec, ghz, mix_white_noise, squeezed_ground_state
from conftest import dicke_isometry, ghz_dicke_density, rand_hermitian


# ------------------------------------------------- oracles: former builders

def _site_sum_oracle(op2, weights):
    """sum_s w_s op2 at site s, filled by bit flips into a dense matrix (equal
    in value to the Kronecker sums of test_dense_oracles)."""
    n = len(weights)
    cols = np.arange(2 ** n)
    M = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for s, w in enumerate(weights):
        bit = (cols >> (n - 1 - s)) & 1
        M[cols ^ (1 << (n - 1 - s)), cols] += w * op2[1 - bit, bit]
        M[cols, cols] += w * op2[bit, bit]
    return M


def _axis_oracle(rep, axis):
    """The dense J_axis: ladder matrices in the symmetric sector, site sums
    in the full space."""
    n = rep.n
    if rep.kind == "full":
        return _site_sum_oracle(PAULI[axis] / 2.0, np.ones(n))
    if axis == "z":
        return np.diag(np.arange(n + 1) - n / 2.0).astype(complex)
    jp = np.diag(ladder_amplitudes(n), k=-1).astype(complex)
    return (jp + jp.conj().T) / 2.0 if axis == "x" else (jp - jp.conj().T) / 2j


def _direction_oracle(rep, n_vec):
    return np.ascontiguousarray(sum(n_vec[i] * _axis_oracle(rep, a)
                                    for i, a in enumerate(AXES)))


def _parity_oracle(rep, axis):
    if rep.kind == "symmetric":
        return np.fliplr(np.eye(rep.n + 1)).astype(complex)
    P = PAULI[axis].copy()
    for _ in range(rep.n - 1):
        P = np.kron(P, PAULI[axis])
    return P.astype(complex)


def _squared_oracle(A):
    """The former squared_op: a product over stored nonzeros."""
    import scipy.sparse
    S = scipy.sparse.csr_array(A)
    return (S @ S).toarray()


def _site_oracle(rep, op2, site):
    return _site_sum_oracle(op2, np.eye(rep.n)[site])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# ------------------------------------------------- lazy matrix, bit for bit

_REPS = [symmetric_rep(n) for n in (1, 2, 3, 6, 7, 40)] + [full_rep(n) for n in range(1, 7)]
_DIRECTIONS = [np.array([0.6, 0.0, 0.8]), np.array([-1.0, 2.0, -2.0]) / 3.0,
               np.array([0.0, 0.0, 1.0])]


@pytest.mark.parametrize("rep", _REPS, ids=repr)
def test_lazy_matrix_equals_former_builders_bitwise(rng, rep):
    for axis in AXES:
        J = collective_op(axis, rep)
        assert np.array_equal(_bits(J.matrix), _bits(_axis_oracle(rep, axis))), axis
    for n_vec in _DIRECTIONS:
        got = direction_op(n_vec, rep).matrix
        assert np.array_equal(_bits(got), _bits(_direction_oracle(rep, n_vec))), n_vec
    Jz2 = squared_op(collective_op("z", rep)).matrix
    assert np.array_equal(_bits(Jz2), _bits(_squared_oracle(_axis_oracle(rep, "z"))))
    # the Kronecker products left negative zeros in the sigma_y and sigma_z
    # parities; the index flip writes +0, so these compare by value
    for axis in (AXES if rep.kind == "full" else "x"):
        assert np.array_equal(parity_op(axis, rep).matrix, _parity_oracle(rep, axis)), axis
    if rep.kind != "full":
        return
    sites = np.arange(1, rep.n + 1, dtype=float)
    for centered, weights in ((False, sites), (True, sites - sites.mean())):
        got = gradient_op(rep, centered=centered).matrix
        assert np.array_equal(_bits(got), _bits(_site_sum_oracle(PAULI["y"] / 2.0, weights)))
    for site in range(rep.n):
        op2 = rand_hermitian(rng, 2)
        got = single_site_op(op2, site, rep).matrix
        assert np.array_equal(_bits(got), _bits(_site_oracle(rep, op2, site))), site


@pytest.mark.parametrize("rep", _REPS, ids=repr)
def test_axis_and_unit_direction_are_one_builder(rep):
    """collective_op(a) and direction_op(e_a) are the same operator: J_z stays
    diagonal (a 1-D factor), J_x real and J_y purely imaginary."""
    for i, axis in enumerate(AXES):
        J, Jn = collective_op(axis, rep), direction_op(np.eye(3)[i], rep)
        assert type(J) is type(Jn), axis
        assert (J.diagonal() is None) == (Jn.diagonal() is None), axis
        (F, k), (Fn, kn) = J.factor, Jn.factor
        assert k == kn and F.dtype == Fn.dtype and F.shape == Fn.shape, axis
        assert np.array_equal(_bits(F), _bits(Fn)), axis
        assert np.array_equal(_bits(J.matrix), _bits(Jn.matrix)), axis


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_symmetric_direction_norm_bound_is_the_exact_one_norm(n):
    """A symmetric J_n is one band, so its bound is the band's largest row
    sum, the 1-norm itself (a sum of three term bounds gave 35.21 against
    20.49 at (1,1,1)/sqrt(3), N = 40)."""
    rep = symmetric_rep(n)
    for n_vec in _DIRECTIONS + [np.ones(3) / np.sqrt(3.0), np.array([1.0, 1.0, 0.0]) / np.sqrt(2)]:
        J = direction_op(n_vec, rep)
        exact = np.linalg.norm(J.matrix, 1)
        assert abs(J.norm_bound() - exact) <= 1e-12 * exact, n_vec
        assert J.apply(np.eye(rep.dim)) == pytest.approx(J.matrix, abs=1e-13), n_vec


def test_turn_about_a_symmetric_direction_at_the_largest_n_is_25743_steps():
    # unitary_apply takes ceil(|theta| b) Taylor steps; b <= sqrt(j(j+1)) for
    # a unit J_n, as the rows of the band are at most that long
    J = direction_op(np.ones(3) / np.sqrt(3.0), symmetric_rep(spin.SYMMETRIC_MAX))
    assert int(np.ceil(4 * np.pi * J.norm_bound())) <= 25_743


def test_lazy_matrix_is_built_once_and_read_only():
    J = collective_op("y", symmetric_rep(9))
    assert J.matrix is J.matrix
    assert not J.matrix.flags.writeable
    custom = np.diag([1.0, -1.0]).astype(complex)
    op = CollectiveOperator(custom, full_rep(1))
    assert op.matrix is custom and custom.flags.writeable


# ------------------------------------------------- real factors, bit for bit

def _factored_ops(rep):
    """Every structured operator that is real or purely imaginary."""
    axes = [collective_op(a, rep) for a in AXES]
    ops = axes + [squared_op(J) for J in axes]
    ops += [direction_op(sign * np.eye(3)[i], rep) for i in range(3) for sign in (1, -1)]
    ops += [parity_op(a, rep) for a in (AXES if rep.kind == "full" else "x")]
    if rep.kind == "full":
        ops += [gradient_op(rep), gradient_op(rep, centered=True)]
        ops += [single_site_op(PAULI[a] / 2.0, s, rep) for a in AXES for s in range(rep.n)]
    return ops


@pytest.mark.parametrize("rep", [symmetric_rep(n) for n in range(1, 9)]
                         + [full_rep(n) for n in range(1, 7)], ids=repr)
def test_real_factor_equals_matrix_bitwise(rep):
    for op in _factored_ops(rep):
        R, k = op.factor
        # diagonal operators (J_z, J_z^2, sigma_z sites) keep their diagonal,
        # kept and read-only like every factor: the cached J_z is shared
        assert R.dtype == np.float64 and not R.flags.writeable, op
        assert R.ndim == (1 if op.diagonal() is not None else 2), op
        assert op.factor is op.factor
        # 1j**k R, with +0 in the other part as the matrix is filled from zeros
        want = np.zeros((rep.dim, rep.dim), dtype=complex)
        target = want.imag if k else want.real
        if R.ndim == 1:
            np.fill_diagonal(target, R)
        else:
            target[...] = R
        assert np.array_equal(_bits(want), _bits(op.matrix)), op


def test_genuinely_complex_operators_have_no_factor(rng):
    rep = full_rep(3)
    for op in (direction_op(np.array([1.0, 1.0, 0.0]) / np.sqrt(2), rep),
               single_site_op(rand_hermitian(rng, 2), 1, rep),
               CollectiveOperator(rand_hermitian(rng, 8), rep)):
        F, k = op.factor
        assert np.iscomplexobj(F) and k == 0 and not F.flags.writeable, op
        assert np.array_equal(_bits(F), _bits(op.matrix)), op
    # a real custom matrix is its own factor, as a read-only view
    custom = np.diag(np.arange(8.0))
    R, k = CollectiveOperator(custom, rep).factor
    assert k == 0 and np.array_equal(R, custom) and not R.flags.writeable
    assert custom.flags.writeable


@pytest.mark.parametrize("rep", [full_rep(n) for n in range(1, 7)], ids=repr)
def test_spectrum_from_a_real_factor_equals_the_matrix_spectrum_bitwise(rep):
    """A real factor (J_x, J_z, directions in the x-z plane) is decomposed as
    it is, J_y and mixed directions through the complex matrix; LAPACK sees
    the same values either way."""
    # direction_op is uncached, so each operator is fresh: the cached axes of
    # collective_op may hold a spectrum already
    ops = [direction_op(n_vec, rep) for n_vec in
           list(np.eye(3)) + _DIRECTIONS + [np.ones(3) / np.sqrt(3)]]
    for op in ops:
        got, want = op.spectrum, eigh_hermitian(op.matrix)
        assert got.values.dtype == want.values.dtype, op
        assert got.columns().dtype == want.columns().dtype, op
        assert np.array_equal(_bits(got.values), _bits(want.values)), op
        assert np.array_equal(_bits(got.columns()), _bits(want.columns())), op


def test_spectrum_of_a_real_factor_holds_no_complex_copy():
    """Full J_x at N = 10: the eigenvectors (8 MB) and no complex 1024^2
    matrix (16 MB) in NumPy-tracked memory."""
    op = direction_op(np.eye(3)[0], full_rep(10))
    op.factor
    tracemalloc.start()
    try:
        op.spectrum
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


def test_non_diagonal_square_matches_sparse_product():
    for rep in (symmetric_rep(30), full_rep(5)):
        for axis in "xy":
            got = squared_op(collective_op(axis, rep)).matrix
            want = _squared_oracle(_axis_oracle(rep, axis))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (rep, axis)


def test_custom_and_site_operators_are_validated():
    with pytest.raises(ValueError, match="not Hermitian"):
        CollectiveOperator(np.array([[0, 1], [0, 0]], dtype=complex), full_rep(1))
    with pytest.raises(ValueError, match="does not match"):
        CollectiveOperator(np.eye(3), full_rep(1))
    with pytest.raises(ValueError, match="not Hermitian"):
        single_site_op(np.array([[0, 1], [0, 0]]), 0, full_rep(3))
    with pytest.raises(ValueError, match="does not match"):
        collective_op("x", full_rep(3)).apply(np.ones(7))


def test_every_builder_returns_the_operator_itself(rng):
    """Each builder returns a structured operator, a ``_Form`` subclass of
    CollectiveOperator with no separate form object, and keeps its rep,
    provenance (a direction or weights as a tuple of NumPy floats) and repr;
    a bare matrix is a plain CollectiveOperator."""
    sym, full = symmetric_rep(4), full_rep(3)
    cases = [(collective_op("x", sym), sym, "x"), (collective_op("z", full), full, "z"),
             (direction_op(np.array([0.6, 0.0, 0.8]), sym), sym, tuple(np.array([0.6, 0.0, 0.8]))),
             (gradient_op(full), full, tuple(np.arange(1.0, 4.0))),
             (gradient_op(full, centered=True), full, tuple(np.arange(-1.0, 2.0))),
             (parity_op("y", full), full, "parity_y"), (parity_op("x", sym), sym, "parity_x"),
             (single_site_op(PAULI["x"] / 2.0, 1, full), full, "site_1"),
             (squared_op(collective_op("z", sym)), sym, "(z)^2"),
             (squared_op(collective_op("y", full)), full, "(y)^2"),
             (squared_op(collective_op("x", sym), "Jx^2"), sym, "Jx^2")]
    for op, rep, provenance in cases:
        assert isinstance(op, spin._Form) and not hasattr(op, "form"), op
        assert op.rep == rep and op.provenance == provenance, op
        assert repr(op) == f"CollectiveOperator({provenance!r}, {rep})", op
    custom = as_operator(rand_hermitian(rng, 4))
    assert type(custom) is CollectiveOperator and not hasattr(custom, "form")
    assert custom.provenance == "custom" and repr(custom) == "CollectiveOperator('custom', None)"


def test_bare_matrices_become_custom_operators(rng):
    M = rand_hermitian(rng, 4)
    A = as_operator(M)
    assert A.rep is None and A.matrix is M and as_operator(A) is A
    with pytest.raises(ValueError, match="not Hermitian"):
        as_operator(np.triu(M))
    # no representation: a custom operator fits any state of its dimension,
    # while a structured one must share the state's representation
    st = ghz(2, full_rep(2))
    assert qfi(st, M).value == qfi(st, CollectiveOperator(M, full_rep(2))).value
    with pytest.raises(ValueError, match="mismatch"):
        qfi(st, collective_op("x", symmetric_rep(3)))


# ------------------------------------------------- times vs the factor product

def _times_cases(rng):
    """Every form: the axes, directions with and without a diagonal (a real
    and a complex band or site sum), parities, a square and, in the full
    space, both gradients and single sites; custom real, imaginary and
    complex matrices."""
    cases = {}
    for rep in (symmetric_rep(7), full_rep(5)):
        ops = {f"J{a}": collective_op(a, rep) for a in AXES}
        ops |= {name: direction_op(n, rep) for name, n in
                (("n(1,1,0)", np.array([1.0, 1.0, 0.0]) / np.sqrt(2)),
                 ("n(-1,2,-2)", np.array([-1.0, 2.0, -2.0]) / 3.0),
                 ("n(3,0,4)", np.array([0.6, 0.0, 0.8])))}
        ops |= {f"parity-{a}": parity_op(a, rep) for a in (AXES if rep.kind == "full" else "x")}
        ops |= {"Jy^2": squared_op(collective_op("y", rep)), "Jz^2": squared_op(ops["Jz"])}
        cases |= {f"{rep.kind}-{name}": op for name, op in ops.items()}
    rep = full_rep(5)
    cases |= {"gradient": gradient_op(rep), "gradient-centered": gradient_op(rep, True),
              "site-x": single_site_op(PAULI["x"] / 2.0, 3, rep),
              "site-complex": single_site_op(rand_hermitian(rng, 2), 1, rep)}
    S = rng.standard_normal((9, 9))
    cases |= {name: CollectiveOperator(M, None) for name, M in
              (("custom-real", S + S.T), ("custom-imaginary", 1j * (S - S.T)),
               ("custom-complex", rand_hermitian(rng, 9)))}
    return cases


def _factor_times(F, X):
    return F[:, None] * X if F.ndim == 1 else F @ X


def _dyadic_site_sum(op):
    """A real site sum whose entries are multiples of 1/4 (J_x, J_y, J_z, the
    gradients, a sigma_x site): on integer X every partial sum is exact."""
    F = op.factor[0]
    return (isinstance(op, spin._SiteSum) and not np.iscomplexobj(F)
            and np.array_equal(4.0 * F, np.round(4.0 * F)))


def test_times_is_the_factor_product(rng):
    """op.times(X) = (P, k) with 1j**k P equal to 1j**k' F X for the dense
    factor (F, k'), on real and complex X of one column and of six, within
    1e-14 ||F||_1 max|X|; a real or purely imaginary form keeps a real X real,
    a parity of phase i too.
    GEMM sums the N terms of a site sum's entry in an order of its own, so
    they agree to rounding; on integer X, where every partial sum of a
    dyadic site sum is exact, a real site sum must match the dense product
    bit for bit: each entry takes exactly its terms."""
    for name, op in _times_cases(rng).items():
        F, k = op._factor()
        d, norm = F.shape[0], np.abs(F).max() if F.ndim == 1 else np.linalg.norm(F, 1)
        for cols in (1, 6):
            for X in (rng.standard_normal((d, cols)),
                      rng.standard_normal((d, cols)) + 1j * rng.standard_normal((d, cols))):
                P, j = op.times(X)
                want = 1j ** k * _factor_times(F, X)
                assert np.abs(1j ** j * P - want).max() <= 1e-14 * norm * np.abs(X).max(), name
                if not (np.iscomplexobj(F) or np.iscomplexobj(X)):
                    assert P.dtype == np.float64, name
            if _dyadic_site_sum(op):
                X = rng.integers(-8, 9, size=(d, cols)).astype(float)
                P, j = op.times(X)
                assert j == k and np.array_equal(_bits(P), _bits(_factor_times(F, X))), name


# the kind of each factor (F, k): k, F's dtype and whether F is a 1-D diagonal
_FACTOR_KINDS = {
    "symmetric-Jx": (0, "float64", 2), "symmetric-Jy": (1, "float64", 2),
    "symmetric-Jz": (0, "float64", 1), "symmetric-n(1,1,0)": (0, "complex128", 2),
    "symmetric-n(-1,2,-2)": (0, "complex128", 2), "symmetric-n(3,0,4)": (0, "float64", 2),
    "symmetric-parity-x": (0, "float64", 2), "symmetric-Jy^2": (0, "float64", 2),
    "symmetric-Jz^2": (0, "float64", 1),
    "full-Jx": (0, "float64", 2), "full-Jy": (1, "float64", 2), "full-Jz": (0, "float64", 1),
    "full-n(1,1,0)": (0, "complex128", 2), "full-n(-1,2,-2)": (0, "complex128", 2),
    "full-n(3,0,4)": (0, "float64", 2), "full-parity-x": (0, "float64", 2),
    # sigma_y^5 has the phase i^5 (-1)^(5-k): real with k = 1
    "full-parity-y": (1, "float64", 2), "full-parity-z": (0, "float64", 2),
    "full-Jy^2": (0, "float64", 2), "full-Jz^2": (0, "float64", 1),
    "gradient": (1, "float64", 2), "gradient-centered": (1, "float64", 2),
    "site-x": (0, "float64", 2), "site-complex": (0, "complex128", 2),
    "custom-real": (0, "float64", 2), "custom-imaginary": (1, "float64", 2),
    "custom-complex": (0, "complex128", 2),
}


def test_factor_kind_of_every_form(rng):
    """_factor() is (F, k) of a fixed kind per form: a diagonal form's real
    diagonal, float64 where the matrix is real or purely imaginary (k = 1),
    else complex with k = 0."""
    cases = _times_cases(rng)
    assert set(cases) == set(_FACTOR_KINDS)
    for name, op in cases.items():
        F, k = op._factor()
        assert (k, str(F.dtype), F.ndim) == _FACTOR_KINDS[name], name


@pytest.mark.parametrize("n", range(4, 11))
def test_full_direction_diagonal_is_exactly_nz_m(n):
    """A full-space J_n adds its diagonal once, as n_z m, not site by site:
    the diagonal of ``apply`` and of ``times`` on unit vectors equals n_z m
    exactly (== lets +0 and -0 compare equal)."""
    rep = full_rep(n)
    m = (n - 2.0 * _popcount(n)) / 2.0
    for n_vec in (np.array([3.0, 0.0, 4.0]) / 5.0, np.array([1.0, 0.0, 1.0]) / np.sqrt(2)):
        op = direction_op(n_vec, rep)
        want = n_vec[2] * m
        assert (np.diagonal(op.apply(np.eye(rep.dim))) == want).all(), n_vec
        P, k = op.times(np.eye(rep.dim))
        assert k == 0 and (np.diagonal(P) == want).all(), n_vec


def _popcount(n):
    idx = np.arange(2 ** n)
    return sum((idx >> b) & 1 for b in range(n))


# ------------------------------------------------- apply vs dense product

def _assert_product(got, M, v, what):
    scale = np.abs(M).sum(axis=1).max() * max(np.abs(v).max(), 1e-300)
    err = np.abs(got - M @ v).max()
    assert err <= 1e-12 * scale, f"{what}: error {err:.3e} at scale {scale:.3e}"


def _unit(raw):
    raw = np.asarray(raw, dtype=float)
    norm = np.linalg.norm(raw)
    return raw / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])


def _operator_and_oracle(kind, rep, draw, st):
    """One operator of the requested kind and its dense oracle."""
    if kind == "axis":
        axis = draw(st.sampled_from(AXES))
        return collective_op(axis, rep), _axis_oracle(rep, axis)
    if kind == "direction":
        n_vec = _unit(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
        return direction_op(n_vec, rep), _direction_oracle(rep, n_vec)
    if kind == "squared":
        axis = draw(st.sampled_from(AXES))
        return squared_op(collective_op(axis, rep)), _squared_oracle(_axis_oracle(rep, axis))
    if kind == "parity":
        axis = draw(st.sampled_from(AXES if rep.kind == "full" else ("x",)))
        return parity_op(axis, rep), _parity_oracle(rep, axis)
    if kind == "gradient":
        centered = draw(st.booleans())
        sites = np.arange(1, rep.n + 1, dtype=float)
        weights = sites - sites.mean() if centered else sites
        return gradient_op(rep, centered), _site_sum_oracle(PAULI["y"] / 2.0, weights)
    site = draw(st.integers(0, rep.n - 1))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    op2 = rand_hermitian(np.random.default_rng(seed), 2)
    return single_site_op(op2, site, rep), _site_oracle(rep, op2, site)


def test_apply_matches_dense_product():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        draw = data.draw
        full = draw(st.booleans())
        rep = full_rep(draw(st.integers(1, 7))) if full else symmetric_rep(draw(st.integers(1, 60)))
        kinds = ["axis", "direction", "squared", "parity"]
        kinds += ["gradient", "site"] if full else []
        kind = draw(st.sampled_from(kinds))
        op, M = _operator_and_oracle(kind, rep, draw, st)
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        cols = draw(st.integers(0, 3))
        shape = (rep.dim,) if cols == 0 else (rep.dim, cols)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if draw(st.booleans()):
            v = v.real.copy()
        _assert_product(op.apply(v), M, v, f"{kind} {rep}")

    check()


def test_symmetric_and_full_agree_through_dicke_embedding():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(n=st.integers(1, 12), kind=st.sampled_from(
        ["x", "y", "z", "direction", "parity", "squared"]),
        raw=st.lists(st.floats(-1, 1), min_size=3, max_size=3))
    def check(n, kind, raw):
        build = {
            "direction": lambda rep: direction_op(_unit(raw), rep),
            "parity": lambda rep: parity_op("x", rep),
            "squared": lambda rep: squared_op(collective_op("z", rep)),
        }.get(kind, lambda rep: collective_op(kind, rep))
        sym, full = build(symmetric_rep(n)), build(full_rep(n))
        B = dicke_isometry(n)
        # the full operator maps the embedded sector onto itself, as the
        # symmetric operator maps the sector: J_full B = B J_sym
        want = B @ sym.apply(np.eye(n + 1))
        got = full.apply(B)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    check()


@pytest.mark.parametrize("rep", [symmetric_rep(12), full_rep(5)], ids=repr)
def test_norm_bound_holds_and_apply_equals_matrix(rep):
    ops = [collective_op(a, rep) for a in AXES]
    ops += [direction_op(_DIRECTIONS[1], rep), parity_op("x", rep),
            squared_op(collective_op("z", rep)), squared_op(collective_op("x", rep))]
    for op in ops:
        assert np.linalg.norm(op.matrix, 2) <= op.norm_bound() * (1 + 1e-12), op
        assert np.abs(op.apply(np.eye(rep.dim)) - op.matrix).max() <= 1e-13, op


# ------------------------------------------------- no dense operator at N = 1000

def test_symmetric_1000_commands_build_no_dense_operator(tmp_path, monkeypatch):
    """witness --all, the Dicke scenario and the frontier rows at symmetric
    N = 1000 read no structured operator's dense matrix."""
    read = []
    lazy = CollectiveOperator.matrix

    def recorded(op):
        if isinstance(op, spin._Form):
            read.append(op)
        return lazy.fget(op)

    monkeypatch.setattr(CollectiveOperator, "matrix", property(recorded))
    state = tmp_path / "sq.json"
    write_state(squeezed_ground_state(SqueezingSpec(1000, 100.0)), str(state))
    assert main(["witness", str(state), "--all", "--out", str(tmp_path / "w.json")]) == 0
    assert main(["scenario", "--family", "dicke", "--n", "1000", "--theta0", "0.01",
                 "--out", str(tmp_path / "d.json")]) == 0
    assert main(["sweep", "--kind", "frontier", "--n", "1000", "--points", "4",
                 "--out", str(tmp_path / "f.csv")]) == 0
    assert read == []
    # the recorder sees a dense read when one happens
    collective_op("z", Representation("symmetric", 4)).matrix
    assert len(read) == 1


def test_witness_on_a_real_full_density_builds_no_dense_operator(tmp_path, monkeypatch):
    """witness --all and qfi --wy --sld --zeno on white-noise GHZ-8 meet J
    through the operators' ``times`` only: no dense matrix and no dense
    factor is built."""
    read = []
    lazy = CollectiveOperator.matrix

    def recorded(op):
        if isinstance(op, spin._Form):
            read.append(op)
        return lazy.fget(op)

    monkeypatch.setattr(CollectiveOperator, "matrix", property(recorded))
    for cls in (CollectiveOperator, spin._Form, spin._Square):
        monkeypatch.setattr(cls, "_factor", lambda self, built=cls._factor: (
            read.append(self), built(self))[1])
    state = tmp_path / "mixed.json"
    write_state(mix_white_noise(ghz(8, full_rep(8)), 0.6), str(state))
    assert main(["witness", str(state), "--all", "--out", str(tmp_path / "w.json")]) == 0
    assert main(["qfi", str(state), "--wy", "--sld", "--zeno",
                 "--out", str(tmp_path / "q.json")]) == 0
    assert read == []


def _counted_times(A, calls):
    """A with its ``times`` calls recorded, on this instance only."""
    times = A.times
    A.times = lambda X: calls.append(X.shape) or times(X)
    return A


def test_operator_moments_are_one_chain_with_the_bits_of_two_brakets():
    """<A> and <A^2> of a density come from one trace chain (A, A), 2 ``times``
    per column block, and of a vector from one ``apply`` (1 ``times``); both
    bit for bit the two ``braket`` values: white-noise GHZ-10 and the
    symmetric N = 200 density with J_x, J_y and J_z^2, pure GHZ and squeezed
    vectors."""
    from qmetro.linalg import row_blocks
    from qmetro.states import braket, operator_moments
    states = [mix_white_noise(ghz(10, full_rep(10)), 0.6), ghz_dicke_density(200),
              ghz(10, full_rep(10)), ghz(200, symmetric_rep(200)),
              squeezed_ground_state(SqueezingSpec(200, 2.0))]
    for state in states:
        data = state.data
        # direction_op is uncached: the recorder stays on these instances
        ops = [direction_op(np.eye(3)[0], state.rep), direction_op(np.eye(3)[1], state.rep),
               squared_op(direction_op(np.eye(3)[2], state.rep))]
        for A in ops:
            want = (float(np.real(braket(data, (), (A,)))),
                    float(np.real(braket(data, (A,), (A,)))))
            calls = []
            got = operator_moments(_counted_times(A, calls), data)
            assert np.array_equal(np.array(got).view(np.uint64),
                                  np.array(want).view(np.uint64)), (state.label, A)
            blocks = 1 if data.ndim == 1 else 2 * len(row_blocks(state.rep.dim))
            assert len(calls) == blocks, (state.label, A)
            calls.clear()
            assert np.array(state.expectation(A)).view(np.uint64) == \
                np.array(want[0]).view(np.uint64), (state.label, A)
            assert len(calls) == blocks // (1 if data.ndim == 1 else 2)


def _bits(a):
    return a.view(np.uint64) if a.dtype == np.float64 else a.view(np.float64).view(np.uint64)


@pytest.mark.parametrize("rep", [full_rep(n) for n in range(1, 11)]
                         + [symmetric_rep(n) for n in (1, 2, 7, 40)], ids=repr)
def test_columns_and_square_rows_by_index_are_the_unit_column_products(rep):
    """A site sum writes its columns blk, and the rows blk of its square, by
    index, and a band its columns: bit for bit (signed zeros too) the
    ``times`` of unit columns and ``times`` of those columns conjugate-
    transposed, with the same power of 1j, for x, y, z, real, imaginary and
    complex directions and the plain and centred gradients."""
    ops = [collective_op(a, rep) for a in AXES]
    ops += [direction_op(np.array(v) / np.linalg.norm(v), rep)
            for v in ((1.0, 1.0, 0.0), (1.0, -2.0, 3.0), (0.0, 1.0, 1.0))]
    if rep.kind == "full":
        ops += [gradient_op(rep), gradient_op(rep, centered=True)]
    blocks = row_blocks(rep.dim)[:3] + (slice(min(3, rep.dim - 1), 9),)
    for A in ops:
        for blk in blocks:
            unit_columns = CollectiveOperator.columns(A, blk)
            unit_square = A.times(unit_columns[0])
            unit_square = (np.ascontiguousarray(unit_square[0].T.conj()),
                           unit_columns[1] + unit_square[1])
            for ours, unit in ((A.columns(blk), unit_columns), (A.square_rows(blk), unit_square)):
                assert ours[1] == unit[1] and ours[0].dtype == unit[0].dtype, A
                assert ours[0].shape == unit[0].shape, A
                assert np.array_equal(_bits(ours[0]), _bits(unit[0])), (A, blk)
            assert A.square_rows(blk)[0].flags.c_contiguous
