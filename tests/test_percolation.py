"""Entanglement links, random-graph sampling, subgraph emergence thresholds,
and lattice bond percolation."""
from __future__ import annotations

import subprocess
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms import isomorphism

from qnet import (
    LinkState,
    QubitState,
    bond_percolation,
    bond_percolation_curve,
    build_graph,
    cep_lattice,
    contains_subgraph,
    estimate_spanning_crossing,
    sample_quantum_random_graph,
    singlet_conversion_probability,
    subgraph_emergence,
    toys,
)
from qnet import percolation
from qnet.errors import GraphFormatError
from qnet.percolation import ClusterStats

import _percolation_reference as reference


# ---------------------------------------------------------------------------
# link states


def test_qubit_state_normalization():
    s = QubitState(alpha=np.sqrt(0.3), beta=np.sqrt(0.7) * 1j)
    assert s.probabilities[0] == pytest.approx(0.3, abs=1e-12)
    assert s.probabilities[1] == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(ValueError, match="normalized"):
        QubitState(alpha=1.0, beta=1.0)


def test_link_state_amplitudes_normalized():
    for p in (0.0, 0.25, 0.5, 1.0):
        a, b = LinkState(p).amplitudes
        assert a * a + b * b == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="p must"):
        LinkState(1.5)


def test_conversion_probability_equals_p():
    assert singlet_conversion_probability(LinkState(1.0)) == pytest.approx(1.0, abs=1e-15)
    assert singlet_conversion_probability(LinkState(0.0)) == 0.0
    assert singlet_conversion_probability(LinkState(0.3)) == pytest.approx(0.3, abs=1e-15)
    rng = np.random.default_rng(71)
    for p in rng.uniform(0.0, 1.0, size=25):
        # the maximally entangled component is exactly recoverable with
        # probability p: twice the smaller Schmidt coefficient
        assert singlet_conversion_probability(LinkState(float(p))) == pytest.approx(p, abs=1e-14)


# ---------------------------------------------------------------------------
# quantum random graphs


def test_sampling_edge_cases():
    g0 = sample_quantum_random_graph(10, LinkState(0.0), seed=3)
    assert g0.edge_count == 0
    g1 = sample_quantum_random_graph(10, LinkState(1.0), seed=3)
    assert g1.edge_count == 45


def test_sampling_mean_edge_count():
    n, p, trials = 64, 0.1, 500
    expect = p * n * (n - 1) / 2
    rng = np.random.default_rng(72)
    counts = [sample_quantum_random_graph(n, p, seed=rng).edge_count
              for _ in range(trials)]
    sigma_mean = np.sqrt(expect * (1 - p)) / np.sqrt(trials)
    assert abs(np.mean(counts) - expect) <= 3.0 * sigma_mean


def test_sampling_is_seed_deterministic():
    a = sample_quantum_random_graph(12, 0.3, seed=9)
    b = sample_quantum_random_graph(12, 0.3, seed=9)
    assert a.edges == b.edges


def test_sampling_validates_probability():
    with pytest.raises(ValueError, match="probability"):
        sample_quantum_random_graph(5, 1.7)


@pytest.mark.parametrize("n,match", [(30_000, "exceeds the limit"), (-1, "must be >= 0")])
def test_sampling_rejects_node_count_before_allocation(n, match):
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match=match):
            sample_quantum_random_graph(n, 0.5, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# subgraph containment


def test_containment_basics():
    assert contains_subgraph(toys.cycle(3), "triangle")
    assert not contains_subgraph(toys.path(4), "triangle")
    assert contains_subgraph(toys.path(4), "path3")
    assert contains_subgraph(toys.complete(5), "clique4")
    assert not contains_subgraph(toys.complete(4), "clique5")
    assert contains_subgraph(toys.cycle(4), "square")
    assert not contains_subgraph(toys.pair(), "path3")


def test_triangle_fast_path_matches_generic_matcher():
    rng = np.random.default_rng(73)
    for _ in range(30):
        n = int(rng.integers(4, 16))
        g = sample_quantum_random_graph(n, float(rng.uniform(0.05, 0.5)), seed=rng)
        fast = contains_subgraph(g, "triangle")
        host = nx.Graph([(e.src, e.dst) for e in g.edges])
        pattern = nx.Graph([(0, 1), (1, 2), (0, 2)])
        slow = isomorphism.GraphMatcher(host, pattern).subgraph_is_monomorphic()
        assert fast == slow


def test_target_validation():
    with pytest.raises(ValueError, match="unknown target"):
        contains_subgraph(toys.pair(), "heptagon")
    with pytest.raises(ValueError, match="capped"):
        contains_subgraph(toys.pair(), toys.cycle(6))


# square with a roof: 5 nodes, 6 links
HOUSE = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
# disconnected: a triangle and a separate link
TRIANGLE_AND_LINK = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])


@st.composite
def _targets(draw):
    """A named target, or up to 5 nodes with a random set of links, which may
    leave the pattern disconnected or some of its nodes without a link."""
    if draw(st.booleans()):
        return draw(st.sampled_from(sorted(percolation._NAMED_TARGETS)))
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    links = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs),
                          unique=True))
    return build_graph(n, [(j, i) if draw(st.booleans()) else (i, j) for i, j in links])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(target=_targets(), n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       density=st.floats(0.05, 1.0))
def test_first_link_matches_networkx_on_random_insertion_orders(target, n, seed, density):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    keep = np.flatnonzero(rng.random(len(iu)) < density)
    keep = keep[rng.permutation(len(keep))]
    flip = rng.random(len(keep)) < 0.5
    src = np.where(flip, ju[keep], iu[keep])
    dst = np.where(flip, iu[keep], ju[keep])
    tg = percolation._target(target)
    expected = reference.first_link(tg.edges, src, dst)
    assert percolation._first_link(tg, src, dst) == expected
    host = build_graph(n, list(zip(src.tolist(), dst.tolist())))
    assert contains_subgraph(host, target) == (expected >= 0)


def test_self_loop_target_is_never_contained():
    # networkx maps a pattern self-loop only onto a host self-loop, and host
    # self-loops are ignored
    for n, links in ((2, [(0, 0)]), (2, [(0, 0), (0, 1)]), (3, [(0, 1), (1, 2), (2, 2)])):
        target = build_graph(n, links, allow_self_loops=True)
        host = toys.complete(5)
        assert not contains_subgraph(host, target)
        assert not reference.contains_subgraph(host, target)


def test_emergence_runs_without_networkx():
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import qnet\n"
        "from qnet import toys\n"
        "for target in sorted(qnet.percolation._NAMED_TARGETS):\n"
        "    qnet.subgraph_emergence(target, z=0.5, n_values=[12], c_values=[0.5, 2.0],\n"
        "                            trials=5, seed=3)\n"
        "assert qnet.contains_subgraph(toys.complete(5), 'clique5')\n"
        "assert not qnet.contains_subgraph(toys.cycle(5), 'square')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# emergence


def test_triangle_emergence_at_critical_exponent():
    res = subgraph_emergence("triangle", z=1.0, n_values=[64, 128],
                             c_values=[0.1, 4.0], trials=60, seed=5)
    assert res.regime == "critical"
    assert res.z_critical == pytest.approx(1.0)
    # far below the transition triangles are rare, far above near-certain
    assert res.fractions[-1, 0] < 0.3
    assert res.fractions[-1, -1] > 0.7
    assert np.all(np.diff(res.fractions, axis=1) >= 0.0)


def test_subcritical_exponent_suppresses_target():
    res = subgraph_emergence("triangle", z=2.0, n_values=[32, 64, 128],
                             c_values=[1.0], trials=60, seed=6)
    assert res.regime == "subcritical"
    assert res.fractions[-1, 0] <= res.fractions[0, 0] + 0.05
    assert res.fractions[-1, 0] < 0.1


def test_supercritical_regime_tag():
    res = subgraph_emergence("edge", z=1.0, n_values=[16], c_values=[1.0],
                             trials=10, seed=7)
    assert res.regime == "supercritical"  # z_c = 2 for a single link
    assert res.z_critical == pytest.approx(2.0)


def test_emergence_validation():
    with pytest.raises(ValueError, match="ascending"):
        subgraph_emergence("triangle", z=1.0, n_values=[16], c_values=[2.0, 1.0])
    with pytest.raises(ValueError, match="z must"):
        subgraph_emergence("triangle", z=-1.0, n_values=[16], c_values=[1.0])
    with pytest.raises(ValueError, match="empty"):
        subgraph_emergence("triangle", z=1.0, n_values=[16], c_values=[])


@pytest.mark.parametrize("bad,match", [
    ({"trials": 0}, "trials"),
    ({"trials": -2}, "trials"),
    ({"n_values": [0]}, "every n"),
    ({"n_values": [16, -4]}, "every n"),
    ({"c_values": [0.5, np.inf]}, "finite"),
    ({"c_values": [np.nan]}, "finite"),
    ({"c_values": [-1.0, 2.0]}, ">= 0"),
    ({"n_values": []}, "n_values must not be empty"),
])
def test_emergence_rejects_bad_counts_and_densities(bad, match):
    kwargs = {"n_values": [16], "c_values": [0.5, 3.0], "trials": 4, **bad}
    with pytest.raises(ValueError, match=match):
        subgraph_emergence("triangle", z=1.0, **kwargs)


def test_empty_bond_probability_grid_is_rejected():
    with pytest.raises(ValueError, match="p_values must not be empty"):
        bond_percolation_curve(8, 8, [], trials=2)


def test_oversized_emergence_is_rejected_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="node pairs"):
            subgraph_emergence("triangle", z=1.0, n_values=[100_000_000],
                               c_values=[0.5, 3.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("target,z,n_values,c_values,trials", [
    ("edge", 2.0, [8, 24], [0.05, 0.3, 1.0, 3.0], 30),
    ("path3", 1.5, [12, 30], [0.2, 0.6, 1.5], 25),
    ("triangle", 1.0, [16, 48, 96], [0.3, 1.0, 2.0, 4.0], 40),
    ("triangle", 0.8, [20], [0.05, 0.2, 0.5, 50.0], 30),
    ("square", 1.0, [14, 28], [0.5, 1.5, 4.0], 15),
    ("clique4", 2.0 / 3.0, [18, 30], [0.5, 1.5, 3.0], 12),
    ("clique5", 0.5, [10, 16], [0.8, 1.6, 2.4, 4.0], 12),
    pytest.param(HOUSE, 5.0 / 6.0, [12, 20], [0.5, 1.0, 2.0, 4.0], 15, id="house"),
    pytest.param(TRIANGLE_AND_LINK, 1.25, [10, 16], [0.5, 2.0, 6.0, 15.0], 15,
                 id="triangle-and-link"),
])
def test_emergence_equals_per_c_rebuild_reference(target, z, n_values, c_values, trials):
    for seed in (1, 2):
        res = subgraph_emergence(target, z=z, n_values=n_values, c_values=c_values,
                                 trials=trials, seed=seed)
        expected = reference.emergence_fractions(target, z, n_values, c_values, trials, seed)
        assert np.array_equal(res.fractions, expected)


def test_containment_equals_reference_on_random_graphs():
    rng = np.random.default_rng(74)
    for _ in range(40):
        n = int(rng.integers(4, 14))
        g = sample_quantum_random_graph(n, float(rng.uniform(0.05, 0.6)), seed=rng)
        for target in ("edge", "path3", "triangle", "square", "clique4"):
            assert contains_subgraph(g, target) == reference.contains_subgraph(g, target)


def test_containment_ignores_host_self_loops():
    g = build_graph(3, [(0, 0), (0, 1), (1, 2)], allow_self_loops=True)
    assert not contains_subgraph(g, "triangle")
    assert contains_subgraph(g, "path3")
    assert not contains_subgraph(build_graph(2, [(1, 1)], allow_self_loops=True), "edge")


# ---------------------------------------------------------------------------
# lattice bond percolation


def test_extreme_bond_probabilities():
    full = bond_percolation(8, 8, 1.0, trials=5, seed=1)
    assert full.spanning_prob == 1.0
    assert full.largest_fraction_mean == pytest.approx(1.0, abs=1e-12)
    empty = bond_percolation(8, 8, 0.0, trials=5, seed=1)
    assert empty.spanning_prob == 0.0
    assert empty.largest_fraction_mean == pytest.approx(1.0 / 64.0, abs=1e-12)


def test_histogram_accounts_for_every_site():
    stats = bond_percolation(6, 5, 0.4, trials=7, seed=2)
    total_sites = sum(size * count for size, count in stats.histogram.items())
    assert total_sites == 6 * 5 * 7


def test_spanning_monotone_in_p_with_shared_randomness():
    ps = [0.2, 0.35, 0.5, 0.65, 0.8]
    curve = bond_percolation_curve(10, 10, ps, trials=40, seed=3)
    probs = [s.spanning_prob for s in curve]
    assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))
    assert all(s.trials == 40 for s in curve)


def test_curve_is_seed_deterministic():
    a = bond_percolation_curve(8, 8, [0.5], trials=20, seed=4)[0]
    b = bond_percolation_curve(8, 8, [0.5], trials=20, seed=4)[0]
    assert a.spanning_prob == b.spanning_prob
    assert a.histogram == b.histogram
    assert [r.spanning for r in a.records] == [r.spanning for r in b.records]


def test_batched_kernel_matches_reference_union_find():
    ps = [0.4, 0.6]
    curve = bond_percolation_curve(8, 8, ps, trials=16, seed=5)
    _assert_matches_reference(curve, 8, 8, ps, trials=16, seed=5)


def _assert_matches_reference(curve, width, height, ps, trials, seed):
    expected = reference.bond_percolation_curve(width, height, ps, trials, seed)
    assert [s.p for s in curve] == [float(p) for p in ps]
    for stats, (prob, largest_mean, hist, records) in zip(curve, expected):
        assert [(r.spanning, r.largest_fraction) for r in stats.records] == records
        assert stats.histogram == hist
        assert stats.spanning_prob == prob
        assert stats.largest_fraction_mean == largest_mean


@pytest.mark.parametrize("case", range(12))
def test_lattice_kernel_equals_reference_on_random_shapes(case):
    rng = np.random.default_rng(300 + case)
    width, height = int(rng.integers(2, 13)), int(rng.integers(1, 13))
    grid = sorted(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 6))).tolist())
    ps = [0.0] + grid + [1.0] if case % 2 else grid
    trials = int(rng.integers(1, 9))
    curve = bond_percolation_curve(width, height, ps, trials=trials, seed=case)
    _assert_matches_reference(curve, width, height, ps, trials, case)


@pytest.mark.parametrize("width,height,ps", [
    (2, 1, [0.0, 0.5, 1.0]),
    (9, 1, [0.3, 0.7, 0.95]),
    (2, 7, [0.0, 1.0]),
    (16, 16, [0.44, 0.47, 0.5, 0.53, 0.56]),
    (13, 5, list(np.linspace(0.3, 0.7, 9))),
])
def test_lattice_kernel_equals_reference_on_edge_shapes(width, height, ps):
    curve = bond_percolation_curve(width, height, ps, trials=6, seed=11)
    _assert_matches_reference(curve, width, height, ps, 6, 11)


def test_lattice_kernel_splits_large_grids_into_batches(monkeypatch):
    # 40 sites per batch holds one 6 x 6 copy at a time
    monkeypatch.setattr(percolation, "_BATCH_SITES", 40)
    ps = [0.2, 0.45, 0.5, 0.55, 0.8]
    curve = bond_percolation_curve(6, 6, ps, trials=5, seed=12)
    _assert_matches_reference(curve, 6, 6, ps, 5, 12)


@pytest.mark.parametrize("width,height,ps,trials,budget", [
    # 15 copies per call hold three whole trials; the last call holds one
    (6, 6, [0.2, 0.45, 0.5, 0.55, 0.8], 7, 3 * 5 * 36),
    (6, 6, [0.2, 0.45, 0.5, 0.55, 0.8], 7, 4 * 5 * 36 - 1),
    # two of a trial's five copies per call: chunks of 2, 2 and 1
    (6, 6, [0.2, 0.45, 0.5, 0.55, 0.8], 4, 2 * 36),
    (2, 5, [0.0, 0.3, 0.6, 1.0], 9, 2 * 4 * 10),
    (2, 5, [0.0, 0.3, 0.6, 1.0], 3, 3 * 10),
    (7, 1, [0.1, 0.5, 0.9], 8, 3 * 3 * 7),
    (7, 1, [0.1, 0.5, 0.9], 3, 2 * 7),
    (2, 1, [0.0, 0.5, 1.0], 11, 2 * 3 * 2),
])
def test_lattice_kernel_batch_boundaries(monkeypatch, width, height, ps, trials, budget):
    monkeypatch.setattr(percolation, "_BATCH_SITES", budget)
    curve = bond_percolation_curve(width, height, ps, trials=trials, seed=13)
    _assert_matches_reference(curve, width, height, ps, trials, 13)


def test_largest_lattice_memory():
    side = 2048
    assert side * side == percolation.MAX_LATTICE_SITES
    tracemalloc.start()
    try:
        stats = bond_percolation(side, side, 0.5, trials=1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(size * count for size, count in stats.histogram.items()) == side * side
    assert peak < 256 << 20


def test_oversized_lattice_rejected_before_allocation():
    side = 100_000
    assert side * side > percolation.MAX_LATTICE_SITES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the limit"):
            bond_percolation_curve(side, side, [0.5], trials=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lattice_validation():
    with pytest.raises(ValueError, match="lattice"):
        bond_percolation(1, 5, 0.5)
    with pytest.raises(ValueError, match="probabilities"):
        bond_percolation(4, 4, 1.5)
    with pytest.raises(ValueError, match="trials"):
        bond_percolation(4, 4, 0.5, trials=0)


def test_crossing_estimate_interpolates():
    def fake(p, prob):
        return ClusterStats(p=p, width=8, height=8, trials=10, spanning_prob=prob,
                            spanning_ci=0.1, largest_fraction_mean=0.5,
                            histogram={}, records=())

    curve = [fake(0.3, 0.1), fake(0.5, 0.4), fake(0.7, 0.7)]
    # linear interpolation between 0.5 and 0.7 hits one half at 0.5667
    assert estimate_spanning_crossing(curve) == pytest.approx(0.5 + 0.2 / 3.0, abs=1e-12)
    assert estimate_spanning_crossing([fake(0.2, 0.1), fake(0.4, 0.2)]) is None


# ---------------------------------------------------------------------------
# entanglement percolation on lattices


def test_cep_extremes():
    never = cep_lattice(6, 6, LinkState(0.0), trials=10, seed=8)
    assert never.stats.spanning_prob == 0.0
    assert not never.percolates
    always = cep_lattice(6, 6, LinkState(1.0), trials=10, seed=8)
    assert always.stats.spanning_prob == 1.0
    assert always.percolates
    assert always.conversion_probability == pytest.approx(1.0)


def test_cep_above_threshold_spans():
    res = cep_lattice(16, 16, LinkState(0.6), trials=60, seed=9)
    assert res.conversion_probability == pytest.approx(0.6, abs=1e-14)
    assert res.stats.spanning_prob > 0.5
    assert res.percolates


def test_cep_accepts_bare_probability():
    res = cep_lattice(6, 6, 0.55, trials=10, seed=10)
    assert res.link_p == pytest.approx(0.55)
    d = res.as_dict()
    assert set(d) >= {"p", "spanning_prob", "link_p", "conversion_probability", "percolates"}
