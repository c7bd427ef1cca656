"""The array kernels of qnet.communities against the pure-Python loops they
replaced (tests/_agglomerate_reference.py): agglomeration must reproduce the
merges, partitions, best levels and tie flags exactly and the level
qualities to 1e-12, and the link-failure affinity must agree to 1e-12."""
from __future__ import annotations

import numpy as np
import pytest

import qnet
from qnet import ClosenessMatrix, toys

import _agglomerate_reference as ref
from _helpers import random_connected_graph

QUALITY_TOL = 1e-12
AFFINITY_TOL = 1e-12

MEASURES = {
    "long-time": lambda h: qnet.closeness_long_time_transport(h),
    "windowed": lambda h: qnet.closeness_long_time_transport(h, t=2.0),
    "fidelity-superposition": lambda h: qnet.closeness_fidelity(h),
    "fidelity-mixed": lambda h: qnet.closeness_fidelity(h, policy="mixed"),
    "short-time": lambda h: qnet.closeness_short_time_transport(h),
    "link-failure": lambda h: qnet.closeness_link_failure(h),
}

TOY_GRAPHS = {
    "C6": lambda: toys.cycle(6),
    "K5": lambda: toys.complete(5),
    "torus4x4": lambda: toys.torus(4, 4),
    "barbell": toys.barbell7,
}

# 20 sizes spread geometrically over 8..192
RANDOM_SIZES = [int(round(8 * 24 ** (k / 19))) for k in range(20)]


def weighted_random_hamiltonian(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edge_prob=min(0.15, 3.0 / n))
    weighted = qnet.build_graph(n, [(e.src, e.dst, float(rng.uniform(0.2, 2.0)))
                                    for e in g.edges])
    return qnet.adjacency_matrix(weighted)


def assert_same_partition(closeness: ClosenessMatrix) -> None:
    got = qnet.agglomerate(closeness)
    want = ref.agglomerate(closeness)
    assert got.merges == want.merges
    assert got.communities == want.communities
    assert np.array_equal(got.labels, want.labels)
    assert got.best_level == want.best_level
    assert got.tie == want.tie
    assert got.method == want.method
    assert len(got.level_qualities) == len(want.level_qualities)
    diff = np.abs(np.subtract(got.level_qualities, want.level_qualities)).max()
    assert diff <= QUALITY_TOL
    assert got.quality == got.level_qualities[got.best_level]


@pytest.mark.parametrize("measure", sorted(MEASURES))
@pytest.mark.parametrize("graph", sorted(TOY_GRAPHS))
def test_toy_graphs_match_reference(graph, measure):
    h = qnet.adjacency_matrix(TOY_GRAPHS[graph]())
    assert_same_partition(MEASURES[measure](h))


def test_two_block_constant_matrix_matches_reference():
    c = np.full((6, 6), 0.1)
    c[:3, :3] = 0.9
    c[3:, 3:] = 0.9
    np.fill_diagonal(c, 0.0)
    assert_same_partition(ClosenessMatrix(matrix=c, measure="external"))


def test_chained_near_tie_picks_first_pair_within_atol_of_largest():
    # (0, 5), (1, 3), (2, 4) sit 1.4e-15, 0.6e-15 and 0 below the largest
    # linkage, in row-major order: (0, 5) is too far below, (1, 3) is the first
    # within merge_pick_atol = 1e-15 of the largest. A running best that moves
    # only on a gain above 1e-15 would stay on (0, 5) past (1, 3), then jump
    # to (2, 4) and merge that pair instead.
    top = 0.9
    c = np.full((6, 6), 0.1)
    c[0, 5] = c[5, 0] = top - 1.4e-15
    c[1, 3] = c[3, 1] = top - 0.6e-15
    c[2, 4] = c[4, 2] = top
    np.fill_diagonal(c, 0.0)
    closeness = ClosenessMatrix(matrix=c, measure="external")
    for part in (qnet.agglomerate(closeness), ref.agglomerate(closeness)):
        assert part.merges[0] == (1, 3, top - 0.6e-15)
        assert part.tie
    assert_same_partition(closeness)


@pytest.mark.parametrize("n", [2, 4, 9])
def test_flat_all_ties_matrix_matches_reference(n):
    c = np.full((n, n), 0.5)
    np.fill_diagonal(c, 0.0)
    part = qnet.agglomerate(ClosenessMatrix(matrix=c, measure="external"))
    assert part.tie == (n > 2)
    assert_same_partition(ClosenessMatrix(matrix=c, measure="external"))


@pytest.mark.parametrize("n", [1, 3])
def test_degenerate_inputs_match_reference(n):
    for c in (np.zeros((n, n)), np.full((n, n), -1.0)):
        assert_same_partition(ClosenessMatrix(matrix=c, measure="external"))


def test_acceptance_9_inputs_match_reference():
    barbell = qnet.adjacency_matrix(toys.barbell7())
    assert_same_partition(qnet.closeness_long_time_transport(barbell, t=2.0))
    rng = np.random.default_rng(109)
    for _ in range(10):
        n = int(rng.integers(4, 13))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (m + m.conj().T)
        assert_same_partition(qnet.closeness_short_time_transport(h, t=0.01 / np.abs(h).max()))


# link failure runs m + 1 eigendecompositions (about 5 s at n = 192), so it
# takes part only up to n = 64
@pytest.mark.parametrize("seed,measure", [
    (seed, measure) for seed in range(20) for measure in sorted(MEASURES)
    if measure != "link-failure" or RANDOM_SIZES[seed] <= 64])
def test_weighted_random_graphs_match_reference(seed, measure):
    n = RANDOM_SIZES[seed]
    assert_same_partition(MEASURES[measure](weighted_random_hamiltonian(seed, n)))


def test_nonfinite_closeness_is_rejected():
    c = np.full((3, 3), 0.5)
    c[0, 1] = c[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        qnet.agglomerate(ClosenessMatrix(matrix=c, measure="external"))


@pytest.mark.parametrize("graph", ["star5", "barbell", "torus4x4", "disconnected", "random"])
def test_link_failure_matches_reference_pair_loop(graph):
    if graph == "random":
        h = weighted_random_hamiltonian(7, 24)
    elif graph == "disconnected":
        h = qnet.adjacency_matrix(qnet.build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]))
    else:
        h = qnet.adjacency_matrix({"star5": lambda: toys.star(5), **TOY_GRAPHS}[graph]())
    got = qnet.closeness_link_failure(h)
    want = ref.closeness_link_failure(h)
    assert np.abs(got.matrix - want).max() <= AFFINITY_TOL
