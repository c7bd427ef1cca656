"""Network density matrices, entropies, divergences, and layer clustering."""
from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from qnet import (
    GraphFormatError,
    LayerStack,
    SupportViolationWarning,
    WalkSpec,
    build_graph,
    build_operators,
    cli,
    density_propagator,
    density_rescaled,
    graph_entropy,
    integrate_master_equation,
    js_distance,
    js_divergence,
    kl_divergence,
    layer_cluster,
    lindblad_rhs,
    long_time_average,
    make_density,
    toys,
    vn_entropy,
)

from _helpers import random_connected_graph, random_density

# relative entropy in bits between the 3-path and 3-clique propagator states
# at tau = 1, pinned from a high-precision eigenvalue evaluation
KL_P3_K3_TAU1 = 0.382175197082409


def _er_graph(rng, n, p):
    u = rng.random((n, n))
    mask = np.triu(u < p, 1)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# density constructions


def test_rescaled_pair_matrix_and_spectrum():
    d = density_rescaled(toys.pair())
    assert np.allclose(d.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
    assert np.allclose(np.linalg.eigvalsh(d.matrix), [0.0, 1.0], atol=1e-14)


def test_rescaled_clique_spectrum_and_entropy():
    for n in range(3, 9):
        d = density_rescaled(toys.complete(n))
        w = np.sort(np.linalg.eigvalsh(d.matrix))
        expect = np.concatenate([[0.0], np.full(n - 1, 1.0 / (n - 1))])
        assert np.abs(w - expect).max() <= 1e-12
        assert vn_entropy(d) == pytest.approx(np.log2(n - 1), abs=1e-10)


def test_density_trace_one_property():
    rng = np.random.default_rng(51)
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(2, 20)))
        for d in (density_rescaled(g), density_propagator(g, float(rng.uniform(0.1, 5)))):
            assert np.trace(d.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(d.matrix)[0] >= -1e-12


def test_rescaled_needs_edges():
    with pytest.raises(GraphFormatError, match="edges"):
        density_rescaled(build_graph(3, []))


def test_propagator_zero_time_is_uniform():
    d = density_propagator(toys.path(4), tau=0.0)
    assert np.allclose(d.matrix, np.eye(4) / 4.0, atol=1e-14)
    with pytest.raises(ValueError, match="tau"):
        density_propagator(toys.path(4), tau=-1.0)


def test_propagator_long_time_purifies():
    d = density_propagator(toys.path(3), tau=50.0)
    assert vn_entropy(d) <= 1e-6


def test_propagator_pair_pinned_spectrum():
    d = density_propagator(toys.pair(), tau=1.0)
    z = 1.0 + np.exp(-2.0)
    expect = np.sort([np.exp(-2.0) / z, 1.0 / z])
    assert np.abs(np.sort(np.linalg.eigvalsh(d.matrix)) - expect).max() <= 1e-14


def test_propagator_entropy_decreases_with_tau():
    rng = np.random.default_rng(52)
    g = random_connected_graph(rng, 10)
    taus = np.array([0.1, 0.3, 1.0, 3.0, 10.0])
    ent = [vn_entropy(density_propagator(g, float(t))) for t in taus]
    assert all(a >= b - 1e-10 for a, b in zip(ent, ent[1:]))


def test_propagator_past_underflow_is_the_ground_state():
    # exp(-tau * lambda) is 0 or inf for every eigenvalue at this tau; the
    # weights relative to the smallest eigenvalue are not
    d = density_propagator(toys.path(3), tau=1e19)
    ground = np.full(3, 1.0 / np.sqrt(3.0))
    assert np.abs(d.matrix - np.outer(ground, ground)).max() <= 1e-12
    assert vn_entropy(d) == 0.0


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, -50.0, -1e-300])
def test_propagator_rejects_non_finite_or_negative_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        density_propagator(toys.path(3), tau=tau)


def _random_states(rng):
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(2, 24)))
        rho = random_density(rng, g.n)
        yield from (density_rescaled(g), density_propagator(g, float(rng.uniform(0.0, 8.0))),
                    make_density(rho))


def test_stored_spectrum_rebuilds_the_state():
    for d in _random_states(np.random.default_rng(58)):
        v, w = d.vectors, d.eigenvalues
        assert np.abs((v * w) @ v.conj().T - d.matrix).max() <= 1e-13
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        assert vn_entropy(d) == pytest.approx(vn_entropy(d.matrix), abs=1e-12)


def test_self_divergence_of_stored_spectra_is_zero():
    for d in _random_states(np.random.default_rng(59)):
        assert 0.0 <= kl_divergence(d, d) <= 1e-10
        assert js_divergence(d, d) <= 1e-12


@pytest.fixture
def decompositions(monkeypatch):
    """Counts np.linalg.eigh and eigvalsh calls made while the test runs."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    return calls


@pytest.mark.parametrize("argv, count", [
    (["compare", "--toy", "p3", "--other-toy", "triangle"], 3),
    (["compare", "--toy", "p3", "--other-toy", "triangle", "--measure", "kl"], 2),
    (["entropy", "--toy", "p3", "--density", "propagator"], 1),
    (["entropy", "--toy", "star-s4"], 1),
], ids=["js", "kl", "propagator-entropy", "rescaled-entropy"])
def test_cli_decomposes_each_laplacian_once_and_the_js_mixture(
        capsys, decompositions, argv, count):
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(decompositions) == count


def test_layer_cluster_decomposes_layers_and_pair_mixtures_once(decompositions):
    rng = np.random.default_rng(60)
    k = 5
    layers = tuple(random_connected_graph(rng, 12) for _ in range(k))
    layer_cluster(LayerStack(layers=layers, labels=tuple("abcde")), tau=1.0)
    assert len(decompositions) == k + k * (k - 1) // 2


def test_make_density_decomposes_once(decompositions):
    rho = make_density(random_density(np.random.default_rng(61), 6))
    assert len(decompositions) == 1
    assert vn_entropy(rho) >= 0.0
    assert len(decompositions) == 1


def _walk_initial(m):
    return long_time_average(WalkSpec(np.zeros((2, 2)), m))


def _integrator_start(m):
    return integrate_master_equation(lindblad_rhs(np.zeros((2, 2))), m, 1.0, 0.1)


@pytest.mark.parametrize("validate", [make_density, _walk_initial, _integrator_start],
                         ids=["make_density", "walk_initial", "integrator_start"])
def test_make_density_validation(validate):
    with pytest.raises(ValueError, match="square"):
        validate(np.ones((2, 3)))
    with pytest.raises(ValueError, match="hermitian"):
        validate(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate(np.eye(2))
    with pytest.raises(ValueError, match="negative"):
        validate(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="non-finite"):
        validate(np.array([[np.nan, 0.0], [0.0, 0.5]]))


# ---------------------------------------------------------------------------
# entropy and divergences


@pytest.mark.parametrize("density, tau", [("rescaled", 1.0), ("propagator", 0.0),
                                          ("propagator", 1.0), ("propagator", 1e19)])
def test_graph_entropy_is_the_entropy_of_the_state(density, tau):
    rng = np.random.default_rng(62)
    for n in (2, 7, 40):
        g = random_connected_graph(rng, n)
        rho = density_rescaled(g) if density == "rescaled" else density_propagator(g, tau)
        assert graph_entropy(g, density, tau) == pytest.approx(vn_entropy(rho), rel=0.0,
                                                               abs=1e-12)


def test_graph_entropy_checks_like_the_states():
    with pytest.raises(GraphFormatError):
        graph_entropy(build_graph(3, []))
    with pytest.raises(ValueError, match="tau"):
        graph_entropy(toys.path(3), "propagator", -1.0)
    with pytest.raises(ValueError, match="unknown density"):
        graph_entropy(toys.path(3), "mixed")


def test_entropy_of_pure_state_is_zero():
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    assert vn_entropy(np.outer(psi, psi)) <= 1e-12


def test_entropy_of_uniform_mixture():
    for n in (2, 5, 16):
        assert vn_entropy(np.eye(n) / n) == pytest.approx(np.log2(n), abs=1e-12)


def test_self_divergence_is_zero():
    rng = np.random.default_rng(53)
    rho = random_density(rng, 6)
    assert kl_divergence(rho, rho) <= 1e-10
    assert js_divergence(rho, rho) <= 1e-10


def test_kl_nonnegative_on_full_support_pairs():
    rng = np.random.default_rng(54)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        assert kl_divergence(random_density(rng, n), random_density(rng, n)) >= -1e-12


def test_kl_path_versus_clique_pinned():
    rho = density_propagator(toys.path(3), tau=1.0)
    sigma = density_propagator(toys.cycle(3), tau=1.0)
    assert kl_divergence(rho, sigma) == pytest.approx(KL_P3_K3_TAU1, abs=1e-12)


def test_kl_support_violation_warns_and_returns_inf():
    rho = np.diag([0.5, 0.5, 0.0])
    sigma = np.diag([1.0, 0.0, 0.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = kl_divergence(rho, sigma)
    assert out == np.inf
    assert any(issubclass(w.category, SupportViolationWarning) for w in caught)


def _weighted_er_graph(rng, n, p):
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < p
    weights = rng.uniform(0.5, 2.0, int(keep.sum()))
    return build_graph(n, list(zip(iu[keep].tolist(), ju[keep].tolist(), weights.tolist())))


def test_kl_against_a_propagator_state_is_finite_and_exact():
    # sigma's smallest weights e^{-tau (lambda - lambda_min)} / Z fall near 1e-24,
    # below the clip floor, yet are positive; the cross entropy against the trace
    # form -tr(rho log sigma) = tau tr(rho L) + ln Z, ln Z = -tau lambda_min + ln sum
    rng = np.random.default_rng(0)
    g_rho, g_sigma = _weighted_er_graph(rng, 256, 0.1), _weighted_er_graph(rng, 256, 0.1)
    rho, sigma = density_propagator(g_rho, tau=1.0), density_propagator(g_sigma, tau=1.0)
    assert sigma.eigenvalues.min() < 1e-20
    lap = build_operators(g_sigma).laplacian
    lam = np.linalg.eigvalsh(lap)
    log_z = -lam[0] + np.log(np.exp(-(lam - lam[0])).sum())
    cross_bits = (np.trace(rho.matrix @ lap).real + log_z) / np.log(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SupportViolationWarning)
        kl = kl_divergence(rho, sigma)
    assert kl == pytest.approx(-vn_entropy(rho) + cross_bits, abs=1e-12)


@pytest.mark.parametrize("tau", [1e19, 1.7e308])
def test_self_divergence_of_a_frozen_propagator_state_is_zero(tau):
    # weights that rounding leaves near 1e-17 meet log-weights near -1e19 * gap,
    # or -inf where tau * gap overflows; both must leave the cross term alone
    d = density_propagator(toys.barbell7(), tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SupportViolationWarning)
        assert abs(kl_divergence(d, d)) <= 1e-12


@pytest.mark.parametrize("tau", ["1e19", "1.7e308"])
def test_cli_self_divergence_of_a_frozen_propagator_state_is_zero(capsys, tau):
    assert cli.main(["compare", "--toy", "barbell7", "--other-toy", "barbell7",
                     "--measure", "kl", "--density", "propagator", "--tau", tau]) == 0
    assert abs(json.loads(capsys.readouterr().out)["kl_bits"]) <= 1e-12


@pytest.mark.parametrize("sigma", [
    lambda: density_rescaled(toys.path(3)),
    lambda: make_density(np.diag([0.5, 0.5, 0.0])),
    lambda: np.diag([0.5, 0.5, 0.0]),
    lambda: density_propagator(toys.path(3), tau=1.7e308),  # tau * 3 overflows
], ids=["rescaled-laplacian", "external", "plain-array", "overflowed-propagator"])
def test_singular_references_keep_the_support_test(sigma):
    rho = density_propagator(toys.path(3), tau=1.0)
    with pytest.warns(SupportViolationWarning):
        assert kl_divergence(rho, sigma()) == np.inf


def test_js_identical_and_orthogonal():
    rho = np.diag([1.0, 0.0])
    sigma = np.diag([0.0, 1.0])
    assert js_divergence(rho, rho) <= 1e-12
    assert js_divergence(rho, sigma) == pytest.approx(1.0, abs=1e-12)
    assert js_distance(rho, sigma) == pytest.approx(1.0, abs=1e-12)


def test_js_distance_metric_axioms():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(2, 17))
        a, b, c = (random_density(rng, n) for _ in range(3))
        dab = js_distance(a, b)
        dba = js_distance(b, a)
        assert abs(dab - dba) <= 1e-12
        assert dab >= -1e-12
        assert js_distance(a, a) <= 1e-7
        assert dab <= js_distance(a, c) + js_distance(c, b) + 1e-12


UPPER = [[0.5, 0.9], [0.0, 0.5]]  # unit trace, not Hermitian


@pytest.mark.parametrize("call", [
    lambda: vn_entropy([[np.nan, 0.0], [0.0, 1.0]]),
    lambda: vn_entropy(np.eye(3)),
    lambda: vn_entropy(UPPER),
    lambda: kl_divergence(np.eye(2) / 2, UPPER),
    lambda: js_divergence(UPPER, np.eye(2) / 2),
], ids=["vn-nan", "vn-trace-3", "vn-not-hermitian", "kl-not-hermitian",
        "js-not-hermitian"])
def test_plain_array_that_is_no_state_is_refused(call):
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# layers


def test_layer_stack_validation():
    with pytest.raises(ValueError, match="label"):
        LayerStack(layers=(toys.pair(),), labels=("a", "b"))
    with pytest.raises(ValueError, match="node set"):
        LayerStack(layers=(toys.pair(), toys.path(3)), labels=("a", "b"))


def test_duplicate_layers_merge_first_at_zero_distance():
    g1 = toys.path(6)
    g2 = toys.cycle(6)
    stack = LayerStack(layers=(g1, g1, g2), labels=("a", "a-copy", "b"))
    out = layer_cluster(stack, tau=1.0)
    first = out.merges[0]
    assert {first[0], first[1]} == {0, 1}
    assert first[2] <= 1e-7
    dm = out.distance_matrix
    assert np.abs(dm - dm.T).max() <= 1e-14
    assert np.abs(np.diag(dm)).max() == 0.0


def test_layer_cluster_separates_sparse_from_dense():
    wins = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        layers = tuple(_er_graph(rng, 32, p) for p in (0.1, 0.1, 0.6, 0.6))
        stack = LayerStack(layers=layers, labels=("s1", "s2", "d1", "d2"))
        dm = layer_cluster(stack, tau=1.0).distance_matrix
        within = max(dm[0, 1], dm[2, 3])
        across = min(dm[0, 2], dm[0, 3], dm[1, 2], dm[1, 3])
        wins += within < across
    assert wins >= 3


def test_entropy_comparison_harness_aggregate_versus_layers():
    # no universal ordering is asserted here; the layers' mean entropy just
    # has to be finite and inside [0, log2 n]
    rng = np.random.default_rng(57)
    for _ in range(5):
        layers = [_er_graph(rng, 12, 0.3), _er_graph(rng, 12, 0.3)]
        if any(len(g.src) == 0 for g in layers):
            continue
        s_layers = np.mean([vn_entropy(density_propagator(g, 1.0)) for g in layers])
        assert 0.0 <= s_layers <= np.log2(12) + 1e-12
