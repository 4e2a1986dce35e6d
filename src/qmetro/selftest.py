"""Randomised property battery for the Fisher-information machinery.

Each check draws seeded random instances and verifies an identity or
inequality at a fixed tolerance.  The battery doubles as the acceptance
surface: the CLI ``selftest`` command and the test suite both run it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fisher import (Povm, classical_fisher, qfi, qfi_alternative, sld,
                     white_noise_qfi)
from .linalg import eigh_hermitian
from .spin import collective_op, full_rep
from .states import QuantumState
from .witnesses import (avg_qfi, moments, optimal_ssi, qfi_entanglement,
                        xi_squared_os, xi_squared_s, xi_squared_singlet)


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: worst={self.worst:.3e} {self.detail}"


def _rand_density(rng, dim, rank=None):
    rank = rank or dim
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def _rand_hermitian(rng, dim):
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (X + X.conj().T) / 2.0


def _rand_unitary(rng, dim):
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(X)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _rand_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def qfi_property_battery(samples: int = 100, seed: int = 2024) -> list[CheckResult]:
    """Checks (a)-(g): convexity, basis invariances, additivities,
    monotonicity and the white-noise closed form, plus the alternative-form
    and SLD consistency identities."""
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 9))
        A = _rand_hermitian(rng, dim)
        r1, r2 = _rand_density(rng, dim), _rand_density(rng, dim)
        p = rng.uniform()
        lhs = qfi(p * r1 + (1 - p) * r2, A).value
        rhs = p * qfi(r1, A).value + (1 - p) * qfi(r2, A).value
        worst = max(worst, lhs - rhs)
    results.append(CheckResult("(a) convexity in the state", worst <= 1e-8, worst))

    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 9))
        rho = _rand_density(rng, dim)
        A = _rand_hermitian(rng, dim)
        D = eigh_hermitian(rho).sandwich(rng.standard_normal(dim))
        dev = abs(qfi(rho, A + D).value - qfi(rho, A).value)
        worst = max(worst, dev)
    results.append(CheckResult("(b) invariance under commuting diagonal shifts",
                               worst <= 1e-9, worst))

    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 9))
        rho = _rand_density(rng, dim)
        A = _rand_hermitian(rng, dim)
        U = _rand_unitary(rng, dim)
        dev = abs(qfi(U @ rho @ U.conj().T, A).value -
                  qfi(rho, U.conj().T @ A @ U).value)
        worst = max(worst, dev)
    results.append(CheckResult("(c) unitary covariance", worst <= 1e-9, worst))

    worst = 0.0
    for _ in range(samples):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        r1, r2 = _rand_density(rng, d1), _rand_density(rng, d2)
        A, B = _rand_hermitian(rng, d1), _rand_hermitian(rng, d2)
        big = np.kron(A, np.eye(d2)) + np.kron(np.eye(d1), B)
        dev = abs(qfi(np.kron(r1, r2), big).value -
                  qfi(r1, A).value - qfi(r2, B).value)
        worst = max(worst, dev)
    results.append(CheckResult("(d) additivity under tensoring", worst <= 1e-8, worst))

    worst = 0.0
    for _ in range(samples):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        r1, r2 = _rand_density(rng, d1), _rand_density(rng, d2)
        A, B = _rand_hermitian(rng, d1), _rand_hermitian(rng, d2)
        p = rng.uniform(0.1, 0.9)
        rho = np.block([[p * r1, np.zeros((d1, d2))],
                        [np.zeros((d2, d1)), (1 - p) * r2]])
        big = np.block([[A, np.zeros((d1, d2))], [np.zeros((d2, d1)), B]])
        dev = abs(qfi(rho, big).value -
                  (p * qfi(r1, A).value + (1 - p) * qfi(r2, B).value))
        worst = max(worst, dev)
    results.append(CheckResult("(e) additivity under direct sums", worst <= 1e-8, worst))

    worst = 0.0
    worst_eq = 0.0
    for _ in range(samples):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        A = _rand_hermitian(rng, d1)
        rho = _rand_density(rng, d1 * d2)
        marg = rho.reshape(d1, d2, d1, d2).trace(axis1=1, axis2=3)
        gap = qfi(rho, np.kron(A, np.eye(d2))).value - qfi(marg, A).value
        worst = max(worst, -gap)
        r1, r2 = _rand_density(rng, d1), _rand_density(rng, d2)
        dev = abs(qfi(np.kron(r1, r2), np.kron(A, np.eye(d2))).value -
                  qfi(r1, A).value)
        worst_eq = max(worst_eq, dev)
    results.append(CheckResult("(f) monotonicity under partial trace",
                               worst <= 1e-8 and worst_eq <= 1e-8,
                               max(worst, worst_eq),
                               "(incl. equality on products)"))

    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 17))
        psi = _rand_pure(rng, dim)
        A = _rand_hermitian(rng, dim)
        p = rng.uniform()
        rho = p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(dim) / dim
        dev = abs(qfi(rho, A).value - white_noise_qfi(psi, A, p))
        worst = max(worst, dev)
    results.append(CheckResult("(g) white-noise closed form", worst <= 1e-9, worst))

    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 17))
        rho = _rand_density(rng, dim)
        A = _rand_hermitian(rng, dim)
        dev = abs(qfi(rho, A).value - qfi_alternative(rho, A))
        worst = max(worst, dev)
    results.append(CheckResult("alternative form agrees", worst <= 1e-9, worst))

    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 13))
        rho = _rand_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        A = _rand_hermitian(rng, dim)
        L = sld(rho, A)
        dev = abs(np.einsum("ij,ji->", rho, L @ L).real - qfi(rho, A).value)
        worst = max(worst, dev)
    results.append(CheckResult("Tr(rho L^2) = F_Q", worst <= 1e-8, worst))

    worst = -np.inf
    for _ in range(samples // 2):
        dim = int(rng.integers(2, 7))
        rho = _rand_density(rng, dim)
        A = _rand_hermitian(rng, dim)
        F = classical_fisher(rho, A, Povm.projective(_rand_unitary(rng, dim)))
        worst = max(worst, F.value - qfi(rho, A).value)
    results.append(CheckResult("classical Fisher <= quantum Fisher",
                               worst <= 1e-6, worst))
    return results


def witness_soundness_battery(samples: int = 200, seed: int = 99) -> list[CheckResult]:
    """No witness may report a violation on random fully product states."""
    rng = np.random.default_rng(seed)
    violations = 0
    checked = 0
    for _ in range(samples):
        n = int(rng.integers(2, 9))
        v = np.array([1.0 + 0j])
        for _ in range(n):
            v = np.kron(v, _rand_pure(rng, 2))
        state = QuantumState(full_rep(n), v, label="product")
        mset = moments(state)
        reports = [xi_squared_s(mset), xi_squared_os(mset), xi_squared_singlet(mset)]
        reports += optimal_ssi(mset)
        for axis in "xyz":
            reports.append(qfi_entanglement(qfi(state, collective_op(axis, state.rep)).value, n))
        violations += avg_qfi(state).certified_depth > 1
        violations += sum(r.violated for r in reports)
        checked += len(reports) + 1
    return [CheckResult("witness soundness on product states",
                        violations == 0, float(violations),
                        f"({checked} verdicts over {samples} states)")]


def run_all(samples: int = 100, seed: int = 2024) -> bool:
    results = qfi_property_battery(samples, seed)
    results += witness_soundness_battery(2 * samples, seed + 1)
    ok = True
    for r in results:
        ok &= r.passed
        print(r.line())
    return ok
