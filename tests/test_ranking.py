"""Ranking variants: power iteration, spectral ground-state ranking, the
two-register edge-space walk, and dissipative interpolation."""
from __future__ import annotations

import numpy as np
import pytest

from qnet import (
    ConvergenceError,
    adiabatic_rank,
    adjacency_matrix,
    build_graph,
    classical_pagerank,
    google_matrix,
    integrate_master_equation,
    interpolated_rank,
    lindblad_rhs,
    qsw_activity,
    rank_hamiltonian,
    szegedy_rank,
    szegedy_state_prep,
    szegedy_step_matrix,
    toys,
)
from qnet.ranking import _symmetrized_hamiltonian, szegedy_step_operator

from _helpers import random_connected_graph, random_directed_graph

# two-node chain 0 -> 1 at damping 0.85: the stationary point of
# p0 = 0.15/2 + 0.85 p1 / 2, p1 = 0.15/2 + 0.85 (p0 + p1/2) in closed form
CHAIN2_SCORES = (0.35087719298245607, 0.6491228070175439)

# cumulative two-register occupations for the 3-chain at 512 steps, pinned
# once so regressions in the step operator or the measurement register show
SZEGEDY_CHAIN3 = (0.25823932727522253, 0.2921190696726222, 0.44964160305215534)

# alpha = 0.5 splits the classically exact tie p1 = p2 on the fork
# 0 -> {1, 2}, 1 -> 3 (teleport makes the dangling columns identical, the
# coherent term feeds the longer branch); pinned from the exact Liouvillian
# kernel (_liouvillian_kernel_scores; alpha = 0.5 has the qsw weights)
FORK4_ALPHA_HALF_GAP = 0.022027300842486885

# L1 bound between the closed-form steady state and both the exact
# Liouvillian kernel and the settled RK4 state: only rounding separates them
QSW_KERNEL_L1 = 1e-12


def test_classical_cycle_is_uniform():
    r = classical_pagerank(google_matrix(toys.directed_cycle(3), 0.85))
    assert np.allclose(r.scores, 1.0 / 3.0, atol=1e-12)
    assert r.variant == "classical"
    assert r.iterations is not None and r.iterations >= 1


def test_classical_two_chain_closed_form():
    r = classical_pagerank(google_matrix(toys.directed_chain(2), 0.85))
    assert np.allclose(r.scores, CHAIN2_SCORES, atol=1e-10)


def test_classical_star_concentrates_on_hub():
    g = build_graph(5, [(i, 0) for i in range(1, 5)], directed=True)
    r = classical_pagerank(google_matrix(g, 0.85))
    assert r.scores[0] == max(r.scores)
    assert r.scores[0] > 0.5


def test_classical_iteration_budget():
    gm = google_matrix(toys.directed_chain(5), 0.85)
    with pytest.raises(ConvergenceError):
        classical_pagerank(gm, max_iter=2)


# ---------------------------------------------------------------------------
# ground-state ranking


def test_adiabatic_matches_classical():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_directed_graph(rng, int(rng.integers(2, 16)))
        gm = google_matrix(g, 0.85)
        ad = adiabatic_rank(gm)
        cl = classical_pagerank(gm)
        assert np.abs(ad.scores - cl.scores).sum() <= 1e-7
        assert ad.ground_eigenvalue <= 1e-10
        assert ad.variant == "adiabatic"


def test_rank_hamiltonian_positive_semidefinite():
    gm = google_matrix(toys.directed_chain(4), 0.85)
    h = rank_hamiltonian(gm)
    assert np.abs(h - h.T).max() <= 1e-12
    assert np.linalg.eigvalsh(h)[0] >= -1e-12


def test_adiabatic_flags_degenerate_ground_space():
    r = adiabatic_rank(np.eye(3))
    assert r.degenerate
    assert np.allclose(r.scores, 1.0 / 3.0, atol=1e-12)


# ---------------------------------------------------------------------------
# edge-space walk


def test_szegedy_step_is_unitary():
    rng = np.random.default_rng(42)
    for _ in range(5):
        g = random_directed_graph(rng, int(rng.integers(2, 8)))
        gm = google_matrix(g, 0.85)
        u = szegedy_step_matrix(gm)
        n2 = u.shape[0]
        assert np.abs(u.conj().T @ u - np.eye(n2)).max() <= 1e-10
        # operator form agrees with the dense matrix
        apply, _ = szegedy_step_operator(gm)
        x = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
        assert np.abs(apply(x) - u @ x).max() <= 1e-10


def test_szegedy_two_cycle_symmetric():
    r = szegedy_rank(google_matrix(toys.directed_cycle(2), 0.85), steps=64)
    assert np.allclose(r.scores, [0.5, 0.5], atol=1e-12)


def test_szegedy_three_chain_pinned_scores():
    r = szegedy_rank(google_matrix(toys.directed_chain(3), 0.85), steps=512)
    assert np.allclose(r.scores, SZEGEDY_CHAIN3, atol=1e-12)
    cl = classical_pagerank(google_matrix(toys.directed_chain(3), 0.85))
    assert list(np.argsort(r.scores)) == list(np.argsort(cl.scores))
    assert r.variance is not None and np.all(r.variance >= 0.0)


def test_szegedy_state_prep_columns_normalized():
    gm = google_matrix(toys.directed_chain(3), 0.85)
    prep = szegedy_state_prep(gm)
    assert np.allclose(np.linalg.norm(prep, axis=0), 1.0, atol=1e-12)


def test_szegedy_edge_space_cap():
    with pytest.raises(ValueError, match="cap"):
        szegedy_rank(google_matrix(toys.directed_cycle(70), 0.85))


# ---------------------------------------------------------------------------
# dissipative interpolation


def test_interpolated_classical_limit():
    g = toys.directed_chain(2)
    r = interpolated_rank(g, alpha=1.0, damping=0.85)
    cl = classical_pagerank(google_matrix(g, 0.85))
    assert np.abs(r.scores - cl.scores).max() <= 1e-6
    assert r.converged


def test_interpolated_cycle_uniform():
    r = interpolated_rank(toys.directed_cycle(3), alpha=0.5)
    assert np.allclose(r.scores, 1.0 / 3.0, atol=1e-6)


def test_interpolated_alpha_validation():
    g = toys.directed_chain(2)
    with pytest.raises(ValueError, match="alpha"):
        interpolated_rank(g, alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        interpolated_rank(g, alpha=1.2)


def test_interpolation_splits_classical_tie():
    g = build_graph(4, [(0, 1), (0, 2), (1, 3)], directed=True)
    cl = classical_pagerank(google_matrix(g, 0.85))
    assert cl.scores[1] == pytest.approx(cl.scores[2], abs=1e-13)
    r = interpolated_rank(g, alpha=0.5, damping=0.85)
    assert r.converged
    gap = float(r.scores[1] - r.scores[2])
    assert gap == pytest.approx(FORK4_ALPHA_HALF_GAP, abs=1e-12)
    assert gap > 1e-3


def test_interpolation_continuous_near_classical_limit():
    g = toys.directed_chain(3)
    near = interpolated_rank(g, alpha=0.999)
    full = interpolated_rank(g, alpha=1.0)
    assert np.abs(near.scores - full.scores).sum() <= 0.05


def test_dephasing_jump_form_preserves_populations():
    g = build_graph(2, [(0, 1)], directed=True)
    r = interpolated_rank(g, alpha=1.0, jump_form="dephasing")
    assert np.allclose(r.scores, [0.5, 0.5], atol=1e-9)
    with pytest.raises(ValueError, match="jump_form"):
        interpolated_rank(g, alpha=0.5, jump_form="bogus")


def test_qsw_activity_flows_downstream():
    g = build_graph(2, [(0, 1)], directed=True)
    r = qsw_activity(g)
    assert r.scores[1] > r.scores[0]
    assert r.scores.sum() == pytest.approx(1.0, abs=1e-8)
    assert r.variant == "qsw"


def _explicit_jumps(g, jump_form, damping=0.85):
    """Every jump operator sqrt(G_ij)|i><j| (transport) or sqrt(G_ij)|i><i|
    (dephasing) written out as a dense matrix."""
    gm = google_matrix(g, damping).matrix
    jumps = []
    for i in range(g.n):
        for j in range(g.n):
            jump = np.zeros((g.n, g.n))
            jump[i, j if jump_form == "transport" else i] = np.sqrt(gm[i, j])
            jumps.append(jump)
    return jumps


def _liouvillian_kernel_scores(g, jump_form, damping=0.85):
    """Diagonal of the trace-one kernel of the dense Liouvillian of
    -i[H, rho] + sum_ij (L_ij rho L_ij^H - {L_ij^H L_ij, rho}/2), with every
    jump operator written out (row-major vec: vec(X rho Y) = (X kron Y^T) vec(rho))."""
    n = g.n
    a = np.abs(adjacency_matrix(g))
    h = 0.5 * (a + a.T)
    eye = np.eye(n)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for jump in _explicit_jumps(g, jump_form, damping):
        ldl = jump.T @ jump
        sup += np.kron(jump, jump) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    _, sing, vh = np.linalg.svd(sup)
    assert sing[-2] > 1e-3  # one-dimensional kernel
    rho = vh[-1].conj().reshape(n, n)
    p = np.real(np.diag(rho / np.trace(rho)))
    return p / p.sum()


def _kernel_test_graphs():
    rng = np.random.default_rng(23)
    graphs = [toys.directed_chain(3), toys.directed_cycle(3), toys.star(5)]
    for n in (5, 8):
        tree = random_connected_graph(rng, n)
        graphs.append(build_graph(n, [(e.src, e.dst) if rng.random() < 0.5 else (e.dst, e.src)
                                      for e in tree.edges], directed=True))
    return graphs


@pytest.mark.parametrize("jump_form", ["transport", "dephasing"])
def test_qsw_matches_liouvillian_kernel(jump_form):
    for g in _kernel_test_graphs():
        r = qsw_activity(g, jump_form=jump_form)
        assert r.converged
        want = _liouvillian_kernel_scores(g, jump_form)
        assert np.abs(r.scores - want).sum() <= QSW_KERNEL_L1


@pytest.mark.parametrize("jump_form", ["transport", "dephasing"])
def test_qsw_matches_integrated_master_equation(jump_form):
    # RK4 from I/n with every jump written out, run in chunks of t = 10 until
    # a chunk changes rho by at most 1e-13: its fixed point is the exact
    # kernel, so only the stopping error separates it from the closed form
    for g in _kernel_test_graphs():
        rhs = lindblad_rhs(_symmetrized_hamiltonian(g), _explicit_jumps(g, jump_form))
        rho = np.eye(g.n, dtype=complex) / g.n
        for _ in range(20):
            prev, rho = rho, integrate_master_equation(rhs, rho, 10.0, 0.1).final
            if np.abs(rho - prev).max() <= 1e-13:
                break
        else:
            pytest.fail(f"RK4 did not settle on n = {g.n}")
        p = np.real(np.diag(rho))
        r = qsw_activity(g, jump_form=jump_form)
        assert np.abs(r.scores - p / p.sum()).sum() <= QSW_KERNEL_L1


def test_reducible_chain_is_flagged_degenerate():
    # damping 1 on two disjoint directed cycles: the steady state is any
    # mixture of the two cycles' states, which must not come back as one answer
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], directed=True)
    for r in (interpolated_rank(g, alpha=0.5, damping=1.0), qsw_activity(g, damping=1.0)):
        assert r.degenerate is True
        assert np.allclose(r.scores, 1.0 / 6.0, atol=1e-12)
    assert interpolated_rank(g, alpha=0.5, damping=0.85).degenerate is False
