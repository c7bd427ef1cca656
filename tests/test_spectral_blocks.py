"""Long-time consumers on grouped eigenvector blocks: each must equal its
explicit sum over eigenspace projectors, and none may hold the n^3 projector
stack. Also the node-count guard and the single decomposition per walk call."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.cluster.vq
from hypothesis import given, settings
from hypothesis import strategies as st

import qnet
import qnet.walks
from qnet import toys
from qnet.cli import main
from qnet.graphs import MAX_NODES
from qnet.linalg import _kernel_transport

from _helpers import random_density, random_unit_vector

TOL = 1e-12


def hypercube(dim: int) -> qnet.Graph:
    n = 1 << dim
    return qnet.build_graph(n, [(i, i ^ (1 << b)) for i in range(n)
                                for b in range(dim) if i < i ^ (1 << b)])


def weighted_random(n: int, extra: int, seed: int) -> qnet.Graph:
    """Connected graph with random weights: its spectrum is simple."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(k)), k) for k in range(1, n)}
    while len(edges) < n - 1 + extra:
        a, b = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges.add((a, b))
    return qnet.build_graph(n, [(a, b, float(rng.uniform(0.5, 2.0)))
                                for a, b in sorted(edges)])


def gauged_complete(n: int, seed: int) -> qnet.Graph:
    """K_n conjugated by random diagonal phases, D A D^H: the spectrum of K_n,
    degenerate, with complex eigenvectors, so sum_a P_a o P_a differs from
    sum_a |P_a|^2."""
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n)
    return qnet.build_graph(n, [(i, j, 1.0, float(phase[i] - phase[j]))
                                for i in range(n) for j in range(i + 1, n)])


GRAPHS = {
    "cycle6": toys.cycle(6),
    "complete5": toys.complete(5),
    "complete5-gauged": gauged_complete(5, seed=3),
    "cube4": hypercube(4),
    "weighted30": weighted_random(30, 30, seed=7),
}


@pytest.fixture(params=sorted(GRAPHS))
def hamiltonian(request) -> np.ndarray:
    return np.asarray(qnet.adjacency_matrix(GRAPHS[request.param]), dtype=complex)


def finalize(c: np.ndarray) -> np.ndarray:
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 0.0)
    return c


def test_graph_spectra_cover_degenerate_and_simple():
    sizes = {k: qnet.hermitian_eig(qnet.adjacency_matrix(g)).group_sizes
             for k, g in GRAPHS.items()}
    assert sizes["cycle6"].max() == 2
    assert sizes["complete5"].max() == 4
    assert sizes["complete5-gauged"].max() == 4
    assert np.abs(qnet.adjacency_matrix(GRAPHS["complete5-gauged"]).imag).max() > 0.1
    assert sizes["cube4"].max() == 6
    assert sizes["weighted30"].max() == 1


def test_blocks_partition_the_eigenvectors(hamiltonian):
    dec = qnet.hermitian_eig(hamiltonian)
    assert np.array_equal(np.hstack(dec.blocks), dec.vectors)
    assert [b.shape[1] for b in dec.blocks] == list(dec.group_sizes)
    assert dec.ground_degeneracy == dec.blocks[0].shape[1]
    assert len(dec.projectors) == len(dec.group_values)


def test_long_time_average_pure_matches_projector_sum(hamiltonian):
    n = hamiltonian.shape[0]
    psi = random_unit_vector(np.random.default_rng(1), n)
    dec = qnet.hermitian_eig(hamiltonian)
    want = sum(np.abs(p @ psi) ** 2 for p in dec.projectors)
    got = qnet.long_time_average(qnet.WalkSpec(hamiltonian, psi)).long_time
    assert np.abs(got - want).max() <= TOL


def test_long_time_average_mixed_matches_projector_sum(hamiltonian):
    n = hamiltonian.shape[0]
    rho = random_density(np.random.default_rng(2), n)
    dec = qnet.hermitian_eig(hamiltonian)
    want = sum(np.real(np.diag(p @ rho @ p)) for p in dec.projectors)
    got = qnet.long_time_average(qnet.WalkSpec(hamiltonian, rho)).long_time
    assert np.abs(got - want).max() <= TOL


def test_evolve_reports_the_same_long_time_average(hamiltonian):
    spec = qnet.WalkSpec(hamiltonian, 0, np.linspace(0.0, 1.0, 3))
    assert np.array_equal(qnet.evolve(spec).long_time,
                          qnet.long_time_average(spec).long_time)


def test_infinite_closeness_matches_projector_sum(hamiltonian):
    dec = qnet.hermitian_eig(hamiltonian)
    want = finalize(sum(np.abs(p) ** 2 for p in dec.projectors))
    got = qnet.closeness_long_time_transport(hamiltonian).matrix
    assert np.abs(got - want).max() <= TOL


@pytest.mark.parametrize("t", [0.3, 2.0, 25.0])
def test_windowed_closeness_matches_projector_einsum(hamiltonian, t):
    dec = qnet.hermitian_eig(hamiltonian)
    stack = np.stack(list(dec.projectors))
    x = 0.5 * t * (dec.group_values[:, None] - dec.group_values[None, :])
    kernel = np.exp(-1j * x) * np.sinc(x / np.pi)
    want = finalize(np.real(np.einsum("aij,ab,bij->ij", stack, kernel, stack.conj())))
    got = qnet.closeness_long_time_transport(hamiltonian, t=t).matrix
    assert np.abs(got - want).max() <= TOL


def test_fidelity_matches_projector_sum(hamiltonian):
    dec = qnet.hermitian_eig(hamiltonian)
    sup = mixed = 0.0
    for p in dec.projectors:
        d = np.real(np.diag(p))
        sup = sup + (0.5 * (d[:, None] + d[None, :] + 2.0 * np.real(p))) ** 2
        mixed = mixed + 0.5 * (d[:, None] ** 2 + d[None, :] ** 2 + 2.0 * np.abs(p) ** 2)
    for policy, want in (("superposition", sup), ("mixed", mixed)):
        got = qnet.closeness_fidelity(hamiltonian, policy=policy).matrix
        assert np.abs(got - finalize(want)).max() <= TOL, policy


def test_short_time_is_windowed_closeness(hamiltonian):
    short = qnet.closeness_short_time_transport(hamiltonian, t=0.02)
    windowed = qnet.closeness_long_time_transport(hamiltonian, t=0.02)
    assert np.array_equal(short.matrix, windowed.matrix)
    assert short.time == windowed.time == 0.02
    assert (short.measure, windowed.measure) == ("short-time-transport", "long-time-transport")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_magnetic_features_match_projector_sum(monkeypatch, k):
    g = qnet.build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                             (6, 7), (7, 4), (3, 4)], directed=True)
    seen = []
    real_kmeans = scipy.cluster.vq.kmeans2

    def spy(features, *args, **kwargs):
        seen.append(features)
        return real_kmeans(features, *args, **kwargs)

    monkeypatch.setattr(scipy.cluster.vq, "kmeans2", spy)
    qnet.magnetic_partition(g, theta=np.pi / 4, k=k)
    dec = qnet.hermitian_eig(qnet.magnetic_laplacian(g, np.pi / 4))
    want = np.abs(sum(dec.projectors[a] for a in range(k)))
    assert np.abs(seen[0] - want).max() <= TOL


def test_adiabatic_degenerate_scores_are_ground_projector_diagonal():
    g = qnet.build_graph(5, [(0, 1), (1, 2), (3, 4)])
    gm = qnet.google_matrix(g, damping=1.0)
    res = qnet.adiabatic_rank(gm)
    dec = qnet.hermitian_eig(qnet.rank_hamiltonian(gm))
    assert res.degenerate and dec.ground_degeneracy == 2
    diag = np.real(np.diag(dec.projectors[0]))
    assert np.abs(res.scores - diag / diag.sum()).max() <= TOL


@pytest.mark.parametrize("consumer", ["infinite", "windowed", "fidelity", "short-time", "walk"])
def test_long_time_consumers_stay_quadratic_in_memory(consumer):
    n = 400
    g = weighted_random(n, n, seed=11)
    h = np.asarray(qnet.adjacency_matrix(g), dtype=complex)
    call = {
        "infinite": lambda: qnet.closeness_long_time_transport(h),
        "windowed": lambda: qnet.closeness_long_time_transport(h, t=2.0),
        "fidelity": lambda: qnet.closeness_fidelity(h),
        "short-time": lambda: qnet.closeness_short_time_transport(h),
        "walk": lambda: qnet.long_time_average(qnet.WalkSpec(h, 0)),
    }[consumer]
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a stack of n projectors alone would take 16 n^3 bytes
    assert peak < 40 * 16 * n * n


def test_node_count_guard():
    with pytest.raises(qnet.GraphFormatError, match=str(MAX_NODES)):
        qnet.build_graph(MAX_NODES + 1, [])
    with pytest.raises(qnet.GraphFormatError, match=str(MAX_NODES)):
        qnet.load_edge_list(f"nodes {MAX_NODES + 1}\n0 1\n")
    with pytest.raises(qnet.GraphFormatError, match=str(MAX_NODES)):
        qnet.load_edge_list(f"0 {MAX_NODES}\n")


def test_cli_rejects_oversized_header(tmp_path, capsys):
    path = tmp_path / "huge.edges"
    path.write_text("nodes 10000000\n0 1\n")
    assert main(["entropy", "--input", str(path)]) == 1
    assert "qnet: error:" in capsys.readouterr().err


def test_walk_with_times_decomposes_once(monkeypatch, capsys):
    calls = []
    real_eig = qnet.walks.hermitian_eig

    def counting(*args, **kwargs):
        calls.append(1)
        return real_eig(*args, **kwargs)

    monkeypatch.setattr(qnet.walks, "hermitian_eig", counting)
    assert main(["walk", "--toy", "barbell7", "--times", "0:2:5"]) == 0
    assert len(calls) == 1
    assert len(capsys.readouterr().out.strip()) > 0


def forced_degenerate_hermitian(rng: np.random.Generator, sizes: list[int]) -> np.ndarray:
    """A random unitary conjugate of a diagonal whose k-th eigenvalue repeats
    sizes[k] times; neighbouring eigenvalues are at least 0.5 apart."""
    n = sum(sizes)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = np.repeat(np.cumsum(rng.uniform(0.5, 2.0, len(sizes))), sizes)
    return (q * w) @ q.conj().T


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=6),
       rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_kernel_transport_matches_explicit_sum(sizes, rank, seed):
    rng = np.random.default_rng(seed)
    dec = qnet.hermitian_eig(forced_degenerate_hermitian(rng, sizes))
    assert dec.group_sizes.tolist() == sizes
    proj = [b @ b.conj().T for b in dec.blocks]
    groups = range(len(proj))
    # a PSD kernel of the drawn rank (full when rank >= groups) with eigenvalues
    # spread over eight decades below 1, so no mode may be dropped that counts
    u, _ = np.linalg.qr(rng.standard_normal((len(proj),) * 2)
                        + 1j * rng.standard_normal((len(proj),) * 2))
    mu = np.where(np.arange(len(proj)) < rank, 10.0 ** -rng.uniform(0.0, 8.0, len(proj)), 0.0)
    kernel = (u * mu) @ u.conj().T
    expected = sum(kernel[a, c] * proj[a] * proj[c].conj() for a in groups for c in groups)
    assert np.abs(_kernel_transport(dec, kernel) - expected).max() <= TOL
    identity = sum(p * p.conj() for p in proj)
    assert np.abs(_kernel_transport(dec) - identity).max() <= TOL
    square = sum(p * p for p in proj)
    assert np.abs(_kernel_transport(dec, conjugate=False) - square).max() <= TOL
