"""Graph parsing, operator construction, and google matrices."""
from __future__ import annotations

import numpy as np
import pytest

from qnet import (
    DisconnectedGraphError,
    GraphFormatError,
    SymmetryError,
    adiabatic_rank,
    adjacency_matrix,
    build_graph,
    build_operators,
    classical_pagerank,
    density_propagator,
    google_matrix,
    graph_entropy,
    load_edge_list,
    quantumness,
    stochastic_eigenmodes,
    szegedy_rank,
    to_edge_list,
    toys,
)

from _helpers import random_connected_graph, random_directed_graph


# ---------------------------------------------------------------------------
# parsing


def test_parse_two_column_lines():
    g = load_edge_list("0 1\n1 2\n")
    assert g.n == 3
    assert not g.directed
    assert [(e.src, e.dst, e.weight, e.phase) for e in g.edges] == [
        (0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0)]


def test_parse_weight_column():
    g = load_edge_list("0 1 2.5\n")
    assert g.edges[0].weight == 2.5


def test_parse_phase_column_builds_complex_coupling():
    g = load_edge_list("0 1 1.0 1.5707963267948966\n")
    a = adjacency_matrix(g)
    assert a[0, 1] == pytest.approx(1j, abs=1e-12)
    assert a[1, 0] == pytest.approx(-1j, abs=1e-12)


def test_parse_directives_and_comments():
    text = "# a comment\nnodes 4\ndirected\n0 1  # trailing comment\n2 3\n"
    g = load_edge_list(text)
    assert g.n == 4 and g.directed
    assert len(g.src) == 2


def test_directed_override_argument():
    g = load_edge_list("0 1\n", directed=True)
    assert g.directed


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_edge_list("0 1\n0 1 2 3 4\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        load_edge_list("a b\n")
    with pytest.raises(GraphFormatError, match="after edges"):
        load_edge_list("0 1\nnodes 5\n")
    with pytest.raises(GraphFormatError, match="declared node count"):
        load_edge_list("nodes 2\n0 3\n")
    with pytest.raises(GraphFormatError, match="negative"):
        load_edge_list("0 1 -2.0\n")


def test_edge_list_round_trip_exact():
    rng = np.random.default_rng(21)
    edges = [(0, 1, 0.1 + rng.random(), float(rng.uniform(-3, 3))),
             (1, 2, 1.0, 0.0),
             (2, 3, float(np.pi), float(1 / 3))]
    g = build_graph(4, edges)
    again = load_edge_list(to_edge_list(g))
    assert again.n == g.n and again.directed == g.directed
    assert again.edges == g.edges


def test_build_graph_validation():
    with pytest.raises(GraphFormatError, match="outside node range"):
        build_graph(2, [(0, 5)])
    with pytest.raises(GraphFormatError, match="self-loop"):
        build_graph(2, [(1, 1)])
    with pytest.raises(GraphFormatError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError, match="negative weight"):
        build_graph(2, [(0, 1, -1.0)])
    # same pair is two distinct edges when directed
    g = build_graph(2, [(0, 1), (1, 0)], directed=True)
    assert len(g.src) == 2


NON_FINITE = [(float("nan"), 0.0), (float("inf"), 0.0), (1.0, float("nan")),
              (1.0, float("inf")), (1.0, float("-inf"))]


@pytest.mark.parametrize("weight,phase", NON_FINITE)
def test_build_graph_rejects_non_finite_weight_and_phase(weight, phase):
    with pytest.raises(GraphFormatError, match="non-finite"):
        build_graph(3, [(0, 1, weight, phase), (1, 2)])


@pytest.mark.parametrize("weight,phase", NON_FINITE)
def test_edge_list_rejects_non_finite_weight_and_phase(weight, phase):
    with pytest.raises(GraphFormatError, match="line 2: non-finite"):
        load_edge_list(f"1 2\n0 1 {weight} {phase}\n")


# ---------------------------------------------------------------------------
# operator bundle


def test_pair_operators():
    ops = build_operators(toys.pair())
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(ops.laplacian, lap, atol=1e-14)
    assert np.allclose(ops.stochastic_generator, lap, atol=1e-14)
    assert np.allclose(ops.quantum_generator, lap, atol=1e-14)


def test_star_degrees():
    ops = build_operators(toys.star(4))
    assert np.allclose(ops.strength, [3.0, 1.0, 1.0, 1.0])


def test_path3_generators_share_spectrum():
    ops = build_operators(toys.path(3))
    ws = np.sort(np.linalg.eigvals(ops.stochastic_generator).real)
    wq = np.linalg.eigvalsh(ops.quantum_generator)
    assert np.allclose(ws, [0.0, 1.0, 2.0], atol=1e-12)
    assert np.allclose(wq, [0.0, 1.0, 2.0], atol=1e-12)


def test_random_graphs_share_spectrum():
    rng = np.random.default_rng(22)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 24)))
        ops = build_operators(g)
        ws = np.sort(np.linalg.eigvals(ops.stochastic_generator).real)
        wq = np.linalg.eigvalsh(ops.quantum_generator)
        assert np.abs(ws - wq).max() <= 1e-9
        # columns of the stochastic generator sum to zero
        assert np.abs(ops.stochastic_generator.sum(axis=0)).max() <= 1e-11


def test_stochastic_eigenmodes_residuals():
    rng = np.random.default_rng(23)
    g = random_connected_graph(rng, 12)
    ops = build_operators(g)
    w, right, left = stochastic_eigenmodes(ops)
    ls = ops.stochastic_generator
    for k in range(g.n):
        assert np.abs(ls @ right[:, k] - w[k] * right[:, k]).max() <= 1e-8
        assert np.abs(ls.T @ left[:, k] - w[k] * left[:, k]).max() <= 1e-8


def test_directed_graph_needs_symmetrize():
    g = toys.directed_chain(3)
    with pytest.raises(SymmetryError):
        build_operators(g)
    ops = build_operators(g, symmetrize=True)
    assert np.allclose(ops.adjacency, ops.adjacency.T)


def test_isolated_node_policies():
    g = build_graph(3, [(0, 1)])
    ops = build_operators(g, isolated_policy="exclude")
    assert ops.isolated == (2,)
    # the isolated row and column stay zero rather than dividing by zero
    assert np.abs(ops.stochastic_generator[:, 2]).max() == 0.0
    assert np.abs(ops.quantum_generator[2, :]).max() == 0.0
    with pytest.raises(DisconnectedGraphError):
        build_operators(g, isolated_policy="error")


def test_generators_are_built_on_their_first_read():
    ops = build_operators(toys.path(3))
    generators = {"laplacian", "stochastic_generator", "quantum_generator"}
    assert not generators & set(vars(ops))
    lap = ops.laplacian
    assert ops.laplacian is lap
    assert generators & set(vars(ops)) == {"laplacian"}


def test_phased_adjacency_is_hermitian():
    rng = np.random.default_rng(24)
    g = build_graph(4, [(0, 1, 1.0, 0.7), (1, 2, 2.0, -1.1), (2, 3, 1.0, 2.2), (0, 3)])
    a = adjacency_matrix(g)
    assert np.abs(a - a.conj().T).max() <= 1e-14


# ---------------------------------------------------------------------------
# google matrix


def test_two_cycle_undamped_google_matrix():
    g = toys.directed_cycle(2)
    gm = google_matrix(g, damping=1.0)
    assert np.allclose(gm.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    assert gm.dangling == ()


def test_dangling_column_spreads_uniformly():
    g = toys.directed_chain(2)   # node 1 has no outgoing edge
    gm = google_matrix(g, damping=1.0)
    assert gm.dangling == (1,)
    assert np.allclose(gm.matrix[:, 1], [0.5, 0.5], atol=1e-14)


def test_google_columns_stochastic_property():
    rng = np.random.default_rng(25)
    for _ in range(12):
        g = random_directed_graph(rng, int(rng.integers(2, 20)))
        gm = google_matrix(g, damping=float(rng.uniform(0.05, 1.0)))
        assert np.abs(gm.matrix.sum(axis=0) - 1.0).max() <= 1e-12
        assert gm.matrix.min() >= 0.0


def test_google_matrix_validation():
    with pytest.raises(GraphFormatError, match="empty"):
        google_matrix(build_graph(0, []))
    with pytest.raises(ValueError, match="damping"):
        google_matrix(toys.pair(), damping=1.5)


@pytest.mark.parametrize("call,error,match", [
    (lambda: quantumness(build_graph(0, [])), GraphFormatError, "empty graph"),
    (lambda: density_propagator(build_graph(0, []), 1.0), GraphFormatError, "empty graph"),
    (lambda: graph_entropy(build_graph(0, []), "propagator"), GraphFormatError, "empty graph"),
    (lambda: classical_pagerank(np.zeros((0, 0))), ValueError, "non-empty"),
    (lambda: adiabatic_rank(np.zeros((0, 0))), ValueError, "non-empty"),
    (lambda: szegedy_rank(np.zeros((0, 0))), ValueError, "non-empty"),
], ids=["quantumness", "density_propagator", "graph_entropy", "classical_pagerank",
        "adiabatic_rank", "szegedy_rank"])
def test_empty_input_is_refused_at_entry(call, error, match):
    with pytest.raises(error, match=match):
        call()
