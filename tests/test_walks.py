"""Unitary walk dynamics, long-time averages, quantumness, and chirality.

The long-time projector average is cross-checked here against plain time
quadrature of the instantaneous series; the module itself never integrates.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from qnet import (
    DisconnectedGraphError,
    DistributionError,
    WalkSpec,
    adjacency_matrix,
    build_graph,
    build_operators,
    chiral_transport_report,
    evolve,
    long_time_average,
    quantumness,
    toys,
    uniform_superposition,
    walks,
)

from _helpers import (
    random_bipartite_phased,
    random_connected_graph,
    random_density,
    random_hermitian,
    random_nonbipartite_phased,
    random_unit_vector,
)

# value pinned from an independent closed form: for the 4-node star the
# uniform superposition overlaps the degree-weighted ground state with
# probability (1 + sqrt(3))^2 / 8
STAR4_QUANTUMNESS = 0.06698729810778081

# maximum forward/reversed transport bias on the 3-cycle with a pi/2 phase
# on one edge, times in [0, 6]; pinned after matching a direct
# scipy.linalg.expm evaluation of both orientations to 1e-15
TRIANGLE_CHIRAL_BIAS = 0.9997468980419767


def _amps(g):
    return adjacency_matrix(g)


def test_pair_full_transfer_at_quarter_period():
    a = _amps(toys.pair())
    res = evolve(WalkSpec(generator=a, initial=0, times=np.array([0.0, np.pi / 2])))
    assert np.allclose(res.series[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(res.series[1], [0.0, 1.0], atol=1e-12)


def test_time_zero_returns_initial_diagonal():
    rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
    a = _amps(toys.cycle(3))
    res = evolve(WalkSpec(generator=a, initial=rho0, times=np.array([0.0])))
    assert np.allclose(res.series[0], [0.2, 0.3, 0.5], atol=1e-12)


def test_triangle_automorphism_symmetry():
    a = _amps(toys.cycle(3))
    times = np.linspace(0.0, 5.0, 40)
    res = evolve(WalkSpec(generator=a, initial=0, times=times))
    # nodes 1 and 2 are exchanged by an automorphism fixing the start node
    assert np.abs(res.series[:, 1] - res.series[:, 2]).max() <= 1e-12


def test_probability_conserved_along_series():
    rng = np.random.default_rng(31)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(2, 16)))
        ops = build_operators(g)
        gen = [ops.adjacency, ops.laplacian, ops.quantum_generator][int(rng.integers(3))]
        times = np.sort(rng.uniform(0.0, 20.0, size=12))
        res = evolve(WalkSpec(generator=gen, initial=int(rng.integers(g.n)), times=times))
        assert np.abs(res.series.sum(axis=1) - 1.0).max() <= 1e-10
        assert res.series.min() >= 0.0


def test_pair_long_time_average_is_half_half():
    res = long_time_average(WalkSpec(generator=_amps(toys.pair()), initial=0))
    assert np.allclose(res.long_time, [0.5, 0.5], atol=1e-12)


def test_maximally_mixed_state_is_stationary_uniform():
    g = toys.path(4)
    rho0 = np.eye(4) / 4.0
    res = long_time_average(WalkSpec(generator=_amps(g), initial=rho0))
    assert np.allclose(res.long_time, 0.25, atol=1e-12)
    inst = evolve(WalkSpec(generator=_amps(g), initial=rho0, times=np.array([0.7, 3.1])))
    assert np.abs(inst.series - 0.25).max() <= 1e-12


def test_projector_average_matches_time_quadrature():
    a = _amps(toys.path(3))
    spec = WalkSpec(generator=a, initial=0)
    proj = long_time_average(spec).long_time
    times = np.arange(0.0, 2000.0, 0.05)
    quad = evolve(WalkSpec(generator=a, initial=0, times=times)).series.mean(axis=0)
    assert np.abs(proj - quad).max() <= 2e-3


def test_quadrature_error_shrinks_with_horizon():
    rng = np.random.default_rng(32)
    g = random_connected_graph(rng, 6)
    a = _amps(g)
    proj = long_time_average(WalkSpec(generator=a, initial=2)).long_time

    def quad_err(t_final):
        times = np.arange(0.0, t_final, 0.05)
        series = evolve(WalkSpec(generator=a, initial=2, times=times)).series
        return np.abs(series.mean(axis=0) - proj).max()

    assert quad_err(4000.0) < quad_err(1000.0)


def test_ground_state_occupations_follow_degrees():
    rng = np.random.default_rng(33)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(4, 20)))
        ops = build_operators(g)
        dec_ground = np.linalg.eigh(ops.quantum_generator)
        phi0 = dec_ground[1][:, 0]
        deg = np.diag(ops.degree_matrix)
        expect = deg / deg.sum()
        times = np.array([0.0, 1.3, 7.7])
        res = evolve(WalkSpec(generator=ops.quantum_generator, initial=phi0, times=times))
        for row in res.series:
            assert np.abs(row - expect).max() <= 1e-9


def test_tree_phases_are_gauge_irrelevant():
    # phases on tree edges can be absorbed by node gauges, so occupations match
    rng = np.random.default_rng(34)
    plain = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    phased = build_graph(5, [(0, 1, 1.0, 0.9), (1, 2, 1.0, -2.2),
                             (1, 3, 1.0, 0.4), (3, 4, 1.0, 1.8)])
    times = np.linspace(0.0, 8.0, 30)
    p0 = evolve(WalkSpec(generator=_amps(plain), initial=0, times=times)).series
    p1 = evolve(WalkSpec(generator=_amps(phased), initial=0, times=times)).series
    assert np.abs(p0 - p1).max() <= 1e-10


def test_initial_state_validation():
    a = _amps(toys.pair())
    with pytest.raises(ValueError, match="outside"):
        evolve(WalkSpec(generator=a, initial=5, times=np.array([0.0])))
    with pytest.raises(ValueError, match="length"):
        evolve(WalkSpec(generator=a, initial=np.ones(3), times=np.array([0.0])))
    with pytest.raises(ValueError, match="trace"):
        evolve(WalkSpec(generator=a, initial=np.eye(2), times=np.array([0.0])))
    with pytest.raises(ValueError, match="time grid"):
        evolve(WalkSpec(generator=a, initial=0))
    with pytest.raises(ValueError, match="at least one time"):
        evolve(WalkSpec(generator=a, initial=0, times=np.array([])))


def _real_low_rank_density(rng, n, rank):
    m = rng.standard_normal((n, rank))
    rho = m @ m.T
    return rho / np.trace(rho)


@pytest.mark.parametrize("generator", [
    lambda rng: random_hermitian(rng, 9),
    lambda rng: adjacency_matrix(random_nonbipartite_phased(rng, 8)),
    lambda rng: adjacency_matrix(toys.torus(4, 4)),
    lambda rng: build_operators(toys.cycle(6)).laplacian,
], ids=["hermitian", "phased", "torus", "cycle-laplacian"])
def test_mixed_start_series_matches_explicit_conjugation(generator):
    # every series row against diag(U_t rho U_t^H) with U_t from scipy's expm,
    # for full-rank complex, low-rank real and pure density starts
    rng = np.random.default_rng(39)
    h = generator(rng)
    n = h.shape[0]
    psi = random_unit_vector(rng, n)
    times = np.linspace(0.0, 5.0, 7)
    for rho in (random_density(rng, n), _real_low_rank_density(rng, n, 3),
                np.outer(psi, psi.conj())):
        got = evolve(WalkSpec(h, rho, times)).series
        for t, row in zip(times, got):
            u = scipy.linalg.expm(-1j * t * h)
            assert np.abs(row - np.real(np.diag(u @ rho @ u.conj().T))).max() <= 1e-12


def test_rank_one_density_start_is_one_column(monkeypatch):
    # the eigenvalues of |psi><psi| that are rounding fall below the
    # numerical-rank cut, so the series costs one |.|^2 product, as a vector does
    rng = np.random.default_rng(41)
    n = 64
    h = random_hermitian(rng, n)
    psi = random_unit_vector(rng, n)
    times = np.linspace(0.0, 5.0, 20)
    vector = evolve(WalkSpec(h, psi, times))
    real, calls = walks._abs2_matmul, []
    monkeypatch.setattr(walks, "_abs2_matmul", lambda x, y: calls.append(x.shape) or real(x, y))
    density = evolve(WalkSpec(h, np.outer(psi, psi.conj()), times))
    assert len(calls) == 1
    assert np.abs(density.series - vector.series).max() <= 1e-12
    assert np.abs(density.long_time - vector.long_time).max() <= 1e-12
    mixed = long_time_average(WalkSpec(h, np.outer(psi, psi.conj())))
    assert np.abs(mixed.long_time - vector.long_time).max() <= 1e-12


# ---------------------------------------------------------------------------
# quantumness


def test_regular_graphs_have_zero_quantumness():
    for g in (toys.cycle(6), toys.complete(4), toys.torus(4, 4)):
        assert quantumness(g) <= 1e-12


def test_star_quantumness_pinned_value():
    assert quantumness(toys.star(4)) == pytest.approx(STAR4_QUANTUMNESS, abs=1e-12)


def test_ground_state_start_has_zero_quantumness():
    rng = np.random.default_rng(35)
    g = random_connected_graph(rng, 9)
    ops = build_operators(g)
    deg = np.diag(ops.degree_matrix)
    phi0 = np.sqrt(deg / deg.sum())
    assert quantumness(g, initial=phi0) <= 1e-12


def test_density_start_quantumness_is_its_ground_deficit():
    rng = np.random.default_rng(40)
    g = random_connected_graph(rng, 7)
    phi0 = np.linalg.eigh(build_operators(g).quantum_generator)[1][:, 0]
    rho = random_density(rng, 7)
    want = 1.0 - np.real(np.vdot(phi0, rho @ phi0))
    assert quantumness(g, initial=rho) == pytest.approx(want, abs=1e-12)
    assert quantumness(g, initial=np.outer(phi0, phi0)) <= 1e-12


def test_maximally_mixed_quantumness():
    for n in (3, 5, 8):
        g = toys.cycle(n)
        assert quantumness(g, initial="maximally-mixed") == pytest.approx(1.0 - 1.0 / n, abs=1e-12)


def test_quantumness_requires_connected_graph():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        quantumness(g)


def test_quantumness_bounds_random():
    rng = np.random.default_rng(36)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 16)))
        eps = quantumness(g)
        assert -1e-12 <= eps < 1.0


# ---------------------------------------------------------------------------
# chirality


def test_bipartite_phases_do_not_bias_transport():
    rng = np.random.default_rng(37)
    times = np.linspace(0.0, 6.0, 25)
    for _ in range(6):
        g = random_bipartite_phased(rng, int(rng.integers(4, 12)))
        rep = chiral_transport_report(g, 0, g.n - 1, times)
        assert rep.max_bias <= 1e-9
        assert not rep.symmetry_broken


def test_zero_phases_do_not_bias_transport():
    times = np.linspace(0.0, 6.0, 25)
    rep = chiral_transport_report(toys.cycle(5), 0, 2, times)
    assert rep.max_bias <= 1e-12
    assert not rep.symmetry_broken


def test_triangle_with_quarter_phase_breaks_symmetry():
    g = build_graph(3, [(0, 1, 1.0, np.pi / 2), (1, 2), (0, 2)])
    times = np.linspace(0.0, 6.0, 61)
    rep = chiral_transport_report(g, 0, 2, times)
    assert rep.symmetry_broken
    assert rep.max_bias == pytest.approx(TRIANGLE_CHIRAL_BIAS, abs=1e-10)
    assert rep.forward.shape == rep.time_reversed.shape == times.shape


def test_odd_cycles_with_phases_usually_bias():
    rng = np.random.default_rng(38)
    hits = 0
    for _ in range(6):
        g = random_nonbipartite_phased(rng, int(rng.integers(3, 10)))
        rep = chiral_transport_report(g, 0, g.n - 1, np.linspace(0.0, 8.0, 33))
        hits += rep.max_bias > 1e-3
    assert hits >= 1


# ---------------------------------------------------------------------------
# non-finite values


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evolve_rejects_non_finite_times(bad):
    spec = WalkSpec(adjacency_matrix(toys.pair()), 0, np.array([0.0, bad, 1.0]))
    with pytest.raises(ValueError, match="finite times"):
        evolve(spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_occupations_are_distribution_errors(bad):
    with pytest.raises(DistributionError, match="non-finite"):
        walks._check_distributions(np.array([[0.5, 0.5], [bad, 0.5]]))
