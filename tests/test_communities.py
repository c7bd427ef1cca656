"""Closeness matrices, agglomerative partitioning, and directed community
detection through the phase-marked Laplacian."""
from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

from qnet import (
    ClosenessMatrix,
    adjacency_matrix,
    agglomerate,
    build_graph,
    closeness_fidelity,
    closeness_link_failure,
    closeness_long_time_transport,
    closeness_short_time_transport,
    communities,
    linalg,
    magnetic_laplacian,
    magnetic_partition,
    toys,
    walks,
)
from qnet.linalg import _group_starts
from qnet.walks import WalkSpec, long_time_average

from _helpers import random_connected_graph, random_hermitian, random_nonbipartite_phased

# windowed long-time transport closeness on the 7-node barbell at horizon
# t = 2.0, three representative entries pinned from a quadrature oracle
BARBELL_T2_C01 = 0.23634341896127523
BARBELL_T2_C24 = 0.06111899622709122
BARBELL_T2_C34 = 0.1313039098287383

# link-failure affinities on the barbell: weakest intra-clique pair still
# beats the strongest cross-clique pair (brute-force N=7 oracle)
BARBELL_LF_INTRA_MIN = 0.9849027703151569
BARBELL_LF_INTER_MAX = 0.9353733691667234


def _two_cycles_graph():
    """Two directed 4-cycles joined by a single edge (3 -> 4)."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (3, 4)]
    return build_graph(8, edges, directed=True)


def _communities_as_sets(part):
    return {frozenset(c) for c in part.communities}


# ---------------------------------------------------------------------------
# short-time transport


def test_short_time_tracks_hamiltonian_weights():
    rng = np.random.default_rng(61)
    for _ in range(6):
        n = int(rng.integers(4, 13))
        h = random_hermitian(rng, n)
        t = 0.01 / np.abs(h).max()
        c = closeness_short_time_transport(h, t=t)
        iu = np.triu_indices(n, 1)
        rho, _ = scipy.stats.spearmanr(c.matrix[iu], np.abs(h)[iu])
        assert rho >= 0.999


def test_short_time_diagonal_hamiltonian_is_silent():
    c = closeness_short_time_transport(np.diag([1.0, 2.0, 3.0]), t=0.005)
    assert np.abs(c.matrix).max() <= 1e-15


def test_short_time_pair_positive():
    c = closeness_short_time_transport(adjacency_matrix(toys.pair()))
    assert c.matrix[0, 1] > 0.0
    assert c.measure == "short-time-transport"


def test_short_time_warns_on_long_horizon():
    h = adjacency_matrix(toys.cycle(4))
    with pytest.warns(UserWarning, match="horizon"):
        closeness_short_time_transport(h, t=1.0)


# ---------------------------------------------------------------------------
# long-time transport


def test_long_time_blocks_stay_separate():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    c = closeness_long_time_transport(adjacency_matrix(g))
    assert np.abs(c.matrix[:3, 3:]).max() <= 1e-14
    assert c.matrix[0, 1] > 0.0


def test_long_time_pair_is_half():
    c = closeness_long_time_transport(adjacency_matrix(toys.pair()))
    assert c.matrix[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_long_time_automorphic_pairs_match():
    c = closeness_long_time_transport(adjacency_matrix(toys.cycle(5))).matrix
    # rotation symmetry: closeness depends only on the ring distance
    assert c[0, 1] == pytest.approx(c[1, 2], abs=1e-12)
    assert c[0, 2] == pytest.approx(c[1, 3], abs=1e-12)


def test_windowed_average_matches_quadrature():
    rng = np.random.default_rng(62)
    g = random_connected_graph(rng, 6)
    h = adjacency_matrix(g)
    t = 1.7
    c = closeness_long_time_transport(h, t=t)
    dec = np.linalg.eigh(h)
    w, v = dec
    ts = np.linspace(0.0, t, 4001)
    acc = np.zeros((6, 6))
    for s in ts:
        u = (v * np.exp(-1j * w * s)) @ v.conj().T
        acc += np.abs(u) ** 2
    quad = acc / len(ts)
    np.fill_diagonal(quad, 0.0)
    quad = 0.5 * (quad + quad.T)
    assert np.abs(c.matrix - quad).max() <= 5e-4


def test_windowed_horizon_validation():
    h = adjacency_matrix(toys.pair())
    with pytest.raises(ValueError, match="positive"):
        closeness_long_time_transport(h, t=-1.0)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("closeness", [closeness_long_time_transport,
                                       closeness_short_time_transport])
def test_non_finite_horizon_is_rejected(closeness, t):
    h = adjacency_matrix(toys.barbell7())
    with pytest.raises(ValueError, match="finite"):
        closeness(h, t=t)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("closeness", [closeness_long_time_transport,
                                       closeness_short_time_transport,
                                       closeness_fidelity, closeness_link_failure])
def test_non_finite_hamiltonian_is_rejected(closeness, bad):
    with pytest.raises(ValueError, match="non-finite"):
        closeness(np.array([[0.0, bad], [bad, 0.0]]))


def test_overflowing_horizon_takes_the_infinite_limit():
    h = adjacency_matrix(toys.barbell7())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = closeness_long_time_transport(h, t=1.7e308)
    assert np.isfinite(c.matrix).all()
    assert np.abs(c.matrix - closeness_long_time_transport(h).matrix).max() <= 1e-12


@pytest.mark.parametrize("t", [0.01, 2.0, 1e3, 1e300])
def test_finite_horizon_kernel_is_the_plain_window_average(t):
    h = adjacency_matrix(toys.barbell7())
    dec = linalg.hermitian_eig(h)
    x = 0.5 * np.subtract.outer(dec.group_values, dec.group_values) * t
    want = communities._finalize(
        linalg._kernel_transport(dec, np.exp(-1j * x) * np.sinc(x / np.pi)), "w")
    assert np.array_equal(closeness_long_time_transport(h, t=t).matrix, want.matrix)


def test_barbell_windowed_entries_pinned():
    c = closeness_long_time_transport(adjacency_matrix(toys.barbell7()), t=2.0)
    assert c.matrix[0, 1] == pytest.approx(BARBELL_T2_C01, abs=1e-12)
    assert c.matrix[2, 4] == pytest.approx(BARBELL_T2_C24, abs=1e-12)
    assert c.matrix[3, 4] == pytest.approx(BARBELL_T2_C34, abs=1e-12)
    assert c.time == 2.0


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_diagonal_hamiltonian_stationary():
    h = np.diag([0.3, 1.1, 2.2, 4.0])
    mixed = closeness_fidelity(h, policy="mixed")
    iu = np.triu_indices(4, 1)
    assert np.abs(mixed.matrix[iu] - 1.0).max() <= 1e-12
    sup = closeness_fidelity(h, policy="superposition")
    # distinct energies: cross terms average out, half the overlap survives
    assert np.abs(sup.matrix[iu] - 0.5).max() <= 1e-12


def test_fidelity_prefers_intra_block_pairs():
    h = np.zeros((4, 4))
    h[0, 1] = h[1, 0] = 1.0
    h[2, 3] = h[3, 2] = 1.0
    for policy in ("superposition", "mixed"):
        c = closeness_fidelity(h, policy=policy).matrix
        assert c[0, 1] > c[0, 2]
        assert c[2, 3] > c[1, 3]


def test_fidelity_bounds_and_policy_validation():
    rng = np.random.default_rng(63)
    h = random_hermitian(rng, 7)
    for policy in ("superposition", "mixed"):
        c = closeness_fidelity(h, policy=policy).matrix
        iu = np.triu_indices(7, 1)
        assert c[iu].min() >= -1e-12
        assert c[iu].max() <= 1.0 + 1e-12
    with pytest.raises(ValueError, match="policy"):
        closeness_fidelity(h, policy="bogus")


# ---------------------------------------------------------------------------
# link failure


def test_link_failure_twins_have_unit_affinity():
    c = closeness_link_failure(adjacency_matrix(toys.star(4))).matrix
    for u, v in ((1, 2), (1, 3), (2, 3)):
        assert c[u, v] == pytest.approx(1.0, abs=1e-9)
    # twins hanging off one node of an otherwise asymmetric graph
    g = build_graph(5, [(0, 1), (1, 2), (1, 3), (1, 4)])
    c2 = closeness_link_failure(adjacency_matrix(g)).matrix
    assert c2[3, 4] == pytest.approx(1.0, abs=1e-9)


def test_link_failure_barbell_cliques_cohere():
    c = closeness_link_failure(adjacency_matrix(toys.barbell7())).matrix
    intra = [c[i, j] for block in ((0, 1, 2), (4, 5, 6))
             for i in block for j in block if i < j]
    inter = [c[i, j] for i in (0, 1, 2) for j in (4, 5, 6)]
    assert min(intra) == pytest.approx(BARBELL_LF_INTRA_MIN, abs=1e-12)
    assert max(inter) == pytest.approx(BARBELL_LF_INTER_MAX, abs=1e-12)
    assert min(intra) > max(inter)


def test_link_failure_flags_components():
    g = build_graph(4, [(0, 1), (2, 3)])
    c = closeness_link_failure(adjacency_matrix(g))
    assert c.notes["components"] == [[0, 1], [2, 3]]
    assert c.notes["zero_response_nodes"] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="links"):
        closeness_link_failure(np.zeros((3, 3)))


def test_link_failure_decomposes_no_matrix_one_by_one(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for module in (linalg, walks, communities):
        monkeypatch.setattr(module, "hermitian_eig", counting(module.hermitian_eig))
    monkeypatch.setattr(walks, "long_time_average", counting(walks.long_time_average))
    monkeypatch.setattr(walks, "_long_time", counting(walks._long_time))
    closeness_link_failure(adjacency_matrix(toys.barbell7()))
    assert calls == []


def test_link_failure_matches_per_link_long_time_average():
    # every response against its own decomposition, on a graph with
    # degenerate spectra (torus) and on a phased one (complex stack)
    rng = np.random.default_rng(66)
    for h in (adjacency_matrix(toys.torus(4, 4)),
              adjacency_matrix(random_nonbipartite_phased(rng, 10))):
        n = h.shape[0]
        psi = np.full(n, 1.0 / np.sqrt(n))
        links = [(i, j) for i in range(n) for j in range(i + 1, n) if h[i, j] != 0]
        base = long_time_average(WalkSpec(h, psi)).long_time
        want = np.empty((n, len(links)))
        for k, (i, j) in enumerate(links):
            cut = h.copy()
            cut[i, j] = cut[j, i] = 0.0
            want[:, k] = long_time_average(WalkSpec(cut, psi)).long_time - base
        rows, cols = np.array(links).T
        w, v = np.linalg.eigh(communities._trimmed_stack(h, rows, cols, 0, len(links) + 1))
        y = v.conj().transpose(0, 2, 1) @ psi[:, None]
        occ = linalg._dephased(v, _group_starts(w), y)[..., 0]
        assert np.abs((occ[1:] - occ[0]).T - want).max() <= 1e-12


def test_link_failure_chunks_bound_memory_and_keep_values(monkeypatch):
    # one chunk holds at most MAX_LINK_FAILURE_ENTRIES matrix entries; its
    # Hamiltonians, eigenvectors, block terms and amplitudes are each at
    # most one chunk of float64, so the traced peak stays within 8 chunks
    # plus the node x link response arrays. Unchunked, the same steps on
    # all m + 1 = 282 Hamiltonians of this graph would peak near 40 MB.
    n = 64
    h = adjacency_matrix(random_connected_graph(np.random.default_rng(3), n, extra_edge_prob=0.1))
    m = int(np.count_nonzero(np.triu(h, 1)))
    results = []
    for entries in (communities.MAX_LINK_FAILURE_ENTRIES, 4 * n * n):
        monkeypatch.setattr(communities, "MAX_LINK_FAILURE_ENTRIES", entries)
        tracemalloc.start()
        try:
            results.append(closeness_link_failure(h))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * entries * 8 + 8 * n * (m + 1) * 8
    assert np.array_equal(results[0].matrix, results[1].matrix)
    assert results[0].notes == results[1].notes


def test_link_failure_rejects_oversized_graph_before_allocating():
    n = int(np.sqrt(communities.MAX_LINK_FAILURE_ENTRIES)) + 1
    h = np.zeros((n, n))
    h[0, 1] = h[1, 0] = 1.0
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the chunk limit"):
            closeness_link_failure(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# ---------------------------------------------------------------------------
# shared properties


def test_closeness_permutation_equivariance():
    rng = np.random.default_rng(64)
    g = random_connected_graph(rng, 7)
    h = adjacency_matrix(g)
    perm = rng.permutation(7)
    pm = np.eye(7)[perm]
    hp = pm @ h @ pm.T

    builders = [
        lambda m: closeness_short_time_transport(m, t=0.002),
        lambda m: closeness_long_time_transport(m),
        lambda m: closeness_long_time_transport(m, t=2.0),
        lambda m: closeness_fidelity(m, policy="superposition"),
        lambda m: closeness_fidelity(m, policy="mixed"),
        lambda m: closeness_link_failure(m),
    ]
    for build in builders:
        c = build(h).matrix
        cp = build(hp).matrix
        assert np.abs(cp - pm @ c @ pm.T).max() <= 1e-9


def test_closeness_symmetric_zero_diagonal():
    rng = np.random.default_rng(65)
    h = np.abs(random_hermitian(rng, 6))
    h = 0.5 * (h + h.T)
    for c in (closeness_short_time_transport(h, t=0.001),
              closeness_long_time_transport(h),
              closeness_fidelity(h),
              closeness_link_failure(h)):
        assert np.abs(c.matrix - c.matrix.T).max() <= 1e-10
        assert np.abs(np.diag(c.matrix)).max() == 0.0
        assert c.matrix.min() >= -1e-12


# ---------------------------------------------------------------------------
# agglomeration


def test_agglomerate_two_block_constant_closeness():
    c = np.full((6, 6), 0.1)
    c[:3, :3] = 0.9
    c[3:, 3:] = 0.9
    np.fill_diagonal(c, 0.0)
    part = agglomerate(ClosenessMatrix(matrix=c, measure="external"))
    assert _communities_as_sets(part) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    assert part.quality is not None and part.quality > 0.0


def test_agglomerate_flat_closeness_ties():
    c = np.full((4, 4), 0.5)
    np.fill_diagonal(c, 0.0)
    part = agglomerate(ClosenessMatrix(matrix=c, measure="external"))
    assert part.tie
    assert len(part.communities) == 1
    assert part.communities[0] == (0, 1, 2, 3)


def test_agglomerate_barbell_long_time_window():
    h = adjacency_matrix(toys.barbell7())
    part = agglomerate(closeness_long_time_transport(h, t=2.0))
    sets = _communities_as_sets(part)
    assert len(sets) == 2
    # each triangle stays whole and the triangles end up apart
    for clique in (frozenset({0, 1, 2}), frozenset({4, 5, 6})):
        assert sum(clique <= s for s in sets) == 1
    assert not any({0, 1, 2} <= s and {4, 5, 6} <= s for s in sets)


def test_agglomerate_output_is_valid_partition():
    rng = np.random.default_rng(66)
    g = random_connected_graph(rng, 9)
    part = agglomerate(closeness_long_time_transport(adjacency_matrix(g), t=1.5))
    seen = sorted(x for c in part.communities for x in c)
    assert seen == list(range(9))
    assert all(len(c) > 0 for c in part.communities)
    assert part.labels.shape == (9,)
    for idx, comm in enumerate(sorted(part.communities, key=min)):
        for node in comm:
            assert part.labels[node] == part.labels[comm[0]]
    assert len(part.merges) == 8
    assert len(part.level_qualities) == 9
    assert 0 <= part.best_level < 9
    assert part.quality == pytest.approx(part.level_qualities[part.best_level])


def test_agglomerate_singleton():
    part = agglomerate(ClosenessMatrix(matrix=np.zeros((1, 1)), measure="external"))
    assert part.communities == ((0,),)


# ---------------------------------------------------------------------------
# magnetic partitioning


def test_magnetic_laplacian_three_cycle_closed_form():
    g = toys.directed_cycle(3)
    for theta in (0.3, np.pi / 4, np.pi / 3):
        w = np.sort(np.linalg.eigvalsh(magnetic_laplacian(g, theta)))
        expect = np.sort([1.0 - np.cos(theta + 2.0 * np.pi * k / 3.0) for k in range(3)])
        assert np.abs(w - expect).max() <= 1e-12


def test_magnetic_laplacian_reversal_conjugates():
    fwd = magnetic_laplacian(toys.directed_cycle(3), np.pi / 3)
    rev_graph = build_graph(3, [(1, 0), (2, 1), (0, 2)], directed=True)
    rev = magnetic_laplacian(rev_graph, np.pi / 3)
    assert np.abs(rev - fwd.conj()).max() <= 1e-12
    # same spectrum, conjugate eigenvector phases
    assert np.abs(np.linalg.eigvalsh(rev) - np.linalg.eigvalsh(fwd)).max() <= 1e-12


def test_magnetic_laplacian_bidirectional_is_real():
    g = build_graph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)], directed=True)
    lap = magnetic_laplacian(g, 0.7)
    assert np.abs(lap.imag).max() <= 1e-14


def test_magnetic_partition_recovers_joined_cycles():
    g = _two_cycles_graph()
    for theta in (np.pi / 4, np.pi / 3):
        part = magnetic_partition(g, theta=theta, k=2)
        assert _communities_as_sets(part) == {
            frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})}


def test_magnetic_partition_small_theta_matches_undirected_split():
    # two triangles joined by one edge; any spectral split puts the
    # triangles apart, regardless of direction marks at vanishing theta
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    g = build_graph(6, edges, directed=True)
    part = magnetic_partition(g, theta=1e-8, k=2)
    assert _communities_as_sets(part) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}


def test_magnetic_partition_seed_stability():
    g = _two_cycles_graph()
    base = magnetic_partition(g, theta=np.pi / 4, k=2, seed=0)
    for seed in (1, 7):
        again = magnetic_partition(g, theta=np.pi / 4, k=2, seed=seed)
        assert _communities_as_sets(again) == _communities_as_sets(base)


def test_magnetic_partition_k_validation():
    g = _two_cycles_graph()
    with pytest.raises(ValueError, match="k must"):
        magnetic_partition(g, theta=np.pi / 4, k=9)
    with pytest.raises(ValueError, match="k must"):
        magnetic_partition(g, theta=np.pi / 4, k=0)
