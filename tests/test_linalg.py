"""Spectral decomposition and the RK4 master-equation integrator, checked
against closed forms and a vectorized-propagator oracle."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from qnet import (
    DEFAULT_TOLS,
    IntegrationInstabilityError,
    SymmetryError,
    hermitian_eig,
    integrate_master_equation,
    lindblad_rhs,
    linalg,
)
from qnet.linalg import _group_starts, hermitian_eigenvalues

from _helpers import random_density, random_hermitian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_pauli_x_spectrum():
    dec = hermitian_eig(PAULI_X)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    assert len(dec.projectors) == 2
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.allclose(dec.projectors[0], np.outer(minus, minus), atol=1e-12)


def test_identity_collapses_to_single_projector():
    dec = hermitian_eig(np.eye(3))
    assert len(dec.projectors) == 1
    assert np.allclose(dec.projectors[0], np.eye(3), atol=1e-14)
    assert dec.ground_degeneracy == 3
    assert np.allclose(dec.group_values, [1.0])


def test_path3_laplacian_eigenvalues():
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    dec = hermitian_eig(lap)
    assert np.allclose(dec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)


def test_non_hermitian_rejected_with_report():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SymmetryError, match="not hermitian"):
        hermitian_eig(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_non_finite_matrix_rejected_before_decomposing(bad, where):
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    m[where] = m[where[::-1]] = bad
    with pytest.raises(SymmetryError, match="non-finite"):
        hermitian_eig(m)


def test_random_hermitian_reconstruction_and_orthogonality():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 65))
        m = random_hermitian(rng, n)
        dec = hermitian_eig(m)
        rebuilt = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
        scale = max(np.abs(m).max(), 1.0)
        assert np.abs(rebuilt - m).max() <= 1e-9 * scale
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-10


def test_projectors_resolve_identity_and_are_idempotent():
    rng = np.random.default_rng(12)
    for _ in range(6):
        n = int(rng.integers(3, 33))
        dec = hermitian_eig(random_hermitian(rng, n))
        total = sum(dec.projectors)
        assert np.abs(total - np.eye(n)).max() <= 1e-10
        for j, pj in enumerate(dec.projectors):
            for k, pk in enumerate(dec.projectors):
                expect = pj if j == k else np.zeros_like(pj)
                assert np.abs(pj @ pk - expect).max() <= 1e-9


def test_degenerate_eigenvalues_grouped():
    # complete-graph laplacian on 3 nodes has spectrum {0, 3, 3}
    lap = 3.0 * np.eye(3) - np.ones((3, 3))
    dec = hermitian_eig(lap)
    assert len(dec.projectors) == 2
    assert np.allclose(dec.group_values, [0.0, 3.0], atol=1e-12)
    assert int(round(np.trace(dec.projectors[1]).real)) == 2


def test_phase_free_input_decomposes_in_real_arithmetic():
    rng = np.random.default_rng(13)
    a = np.abs(random_hermitian(rng, 9))
    a = 0.5 * (a + a.T)
    real = hermitian_eig(a)
    typed = hermitian_eig(a.astype(complex))   # complex dtype, zero imaginary part
    phased = hermitian_eig(random_hermitian(rng, 9))
    assert not np.iscomplexobj(real.vectors) and not np.iscomplexobj(typed.vectors)
    assert np.iscomplexobj(phased.vectors)
    assert np.array_equal(real.vectors, typed.vectors)
    assert np.array_equal(real.eigenvalues, typed.eigenvalues)
    # the complex driver spans the same eigenspaces
    complex_path = np.linalg.eigh(a + 0j)[1]
    assert np.abs(real.vectors @ real.vectors.T
                  - complex_path @ complex_path.conj().T).max() <= 1e-12


def test_eigenvalues_alone_match_the_decomposition_under_its_checks(monkeypatch):
    rng = np.random.default_rng(14)
    a = np.abs(random_hermitian(rng, 9))
    a = 0.5 * (a + a.T)
    phased = random_hermitian(rng, 9)
    for m in (a, a.astype(complex), phased):
        assert np.abs(hermitian_eigenvalues(m) - hermitian_eig(m).eigenvalues).max() <= 1e-12
    with pytest.raises(SymmetryError, match="not hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(SymmetryError, match="non-finite"):
        hermitian_eigenvalues(np.array([[np.nan, 1.0], [1.0, 0.0]]))
    seen = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.dtype) or real(m))
    hermitian_eigenvalues(a.astype(complex))   # complex dtype, zero imaginary part
    hermitian_eigenvalues(phased)
    assert seen == [np.dtype(float), np.dtype(complex)]


def test_stacked_grouping_matches_hermitian_eig_per_matrix():
    # the break rule on the last axis of a stack is the rule of hermitian_eig
    rng = np.random.default_rng(14)
    mats = [3.0 * np.eye(4) - np.ones((4, 4)), np.eye(4),
            np.diag([0.0, 1e-12, 1.0, 1.0 + 1e-10]), np.real(random_hermitian(rng, 4))]
    w = np.stack([np.linalg.eigh(m)[0] for m in mats])
    starts = _group_starts(w)
    for row, m in zip(starts, mats):
        sizes = hermitian_eig(m).group_sizes
        assert np.array_equal(np.flatnonzero(row), np.cumsum(sizes) - sizes)
    assert starts[:, 0].all()


def test_is_unitary_on_spectral_propagators():
    rng = np.random.default_rng(14)
    for _ in range(8):
        n = int(rng.integers(2, 20))
        dec = hermitian_eig(random_hermitian(rng, n))
        phases = np.exp(-1j * rng.uniform(0.1, 5.0) * dec.eigenvalues)
        u = (dec.vectors * phases) @ dec.vectors.conj().T
        for scale, unitary in ((1.0, True), (1.001, False)):
            v = scale * u
            assert (np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10) == unitary


def _liouvillian_matrix(rhs, n: int) -> np.ndarray:
    """Apply rhs to every basis matrix E_ij to build the column-stacked
    generator, so scipy.linalg.expm gives the exact propagator."""
    cols = []
    for j in range(n):
        for i in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            cols.append(rhs(e).reshape(-1, order="F"))
    return np.stack(cols, axis=1)


def _exact_state(rhs, rho0: np.ndarray, t: float) -> np.ndarray:
    n = rho0.shape[0]
    lmat = _liouvillian_matrix(rhs, n)
    vec = scipy.linalg.expm(lmat * t) @ rho0.reshape(-1, order="F")
    return vec.reshape((n, n), order="F")


def test_zero_rhs_keeps_state_constant():
    rho0 = np.diag([0.25, 0.75]).astype(complex)
    traj = integrate_master_equation(lambda r: np.zeros_like(r), rho0, 1.0, 0.1)
    assert np.abs(traj.final - rho0).max() <= 1e-14
    assert traj.times[-1] == pytest.approx(1.0)


def test_qubit_dephasing_closed_form():
    gamma = 0.4
    jump = np.sqrt(gamma) * np.diag([1.0, -1.0]).astype(complex)
    rhs = lindblad_rhs(np.zeros((2, 2)), [jump])
    rho0 = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    traj = integrate_master_equation(rhs, rho0, 2.0, 0.002)
    for t, rho in zip(traj.times, traj.states):
        assert rho[0, 1] == pytest.approx(0.3 * np.exp(-2.0 * gamma * t), abs=1e-7)
        assert rho[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_rk4_fourth_order_convergence():
    rng = np.random.default_rng(16)
    h = random_hermitian(rng, 3)
    jump = 0.3 * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    rhs = lindblad_rhs(h, [jump])
    rho0 = random_density(rng, 3)
    exact = _exact_state(rhs, rho0, 1.0)
    errors = []
    for dt in (0.05, 0.025):
        traj = integrate_master_equation(rhs, rho0, 1.0, dt)
        errors.append(np.abs(traj.final - exact).max())
    # classical RK4: halving dt should cut the global error about 16x
    assert errors[0] / errors[1] >= 8.0


def test_lindblad_preserves_trace_and_positivity():
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 4)
    jumps = [0.5 * rng.standard_normal((4, 4)) for _ in range(2)]
    rhs = lindblad_rhs(h, jumps)
    traj = integrate_master_equation(rhs, random_density(rng, 4), 3.0, 0.01)
    for rho in traj.states:
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho)[0] >= -1e-8


def test_huge_step_triggers_instability_error():
    h = 5.0 * PAULI_X
    jump = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    rhs = lindblad_rhs(h, [jump])
    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(IntegrationInstabilityError):
        integrate_master_equation(rhs, rho0, 100.0, 5.0)


def test_trace_leaking_rhs_rejected():
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="annihilate the trace"):
        integrate_master_equation(lambda r: np.eye(2, dtype=complex), rho0, 1.0, 0.1)


def test_initial_state_validation():
    rhs = lambda r: np.zeros_like(r)
    with pytest.raises(ValueError, match="trace"):
        integrate_master_equation(rhs, 2.0 * np.eye(2, dtype=complex), 1.0, 0.1)
    with pytest.raises(SymmetryError):
        integrate_master_equation(rhs, np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex), 1.0, 0.1)
    with pytest.raises(ValueError, match="dt"):
        integrate_master_equation(rhs, np.diag([0.5, 0.5]).astype(complex), 1.0, 0.0)


@pytest.mark.parametrize("t_final", [0.0, 1.0])
def test_non_psd_start_is_refused_before_any_step(t_final, monkeypatch):
    steps = []
    monkeypatch.setattr(linalg, "rk4_step", lambda *a: steps.append(1))
    with pytest.raises(ValueError, match="negative eigenvalue") as info:
        integrate_master_equation(lindblad_rhs(PAULI_X), np.diag([1.5, -0.5]), t_final, 0.1)
    assert not isinstance(info.value, IntegrationInstabilityError)
    assert steps == []
