"""Network density matrices, spectral entropies, divergences, and layer clustering.

A DensityMatrix keeps its spectrum. A plain array passed for a state is checked
and decomposed by make_density; a JS mixture of two states is a state, and only
its eigenvalues are computed. The entropy of a graph's own state, graph_entropy,
reads only the eigenvalues of its Laplacian and forms neither eigenvectors nor
the density matrix; it shares the propagator weights (_propagator_weights) and
the entropy sum (_entropy_bits) with the states that keep their matrix."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .errors import GraphFormatError, SupportViolationWarning
from .graphs import Graph, build_operators
from .linalg import _density_spectrum, hermitian_eig, hermitian_eigenvalues


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace PSD matrix and its spectrum (V * w) @ V^H."""

    matrix: np.ndarray
    eigenvalues: np.ndarray      # (n,) real, summing to 1
    vectors: np.ndarray | None   # (n, n), column k pairs with eigenvalues[k]; None for a JS mixture
    log_eigenvalues: np.ndarray | None = None  # (n,) exact ln eigenvalues (propagator)


def make_density(matrix: np.ndarray) -> DensityMatrix:
    m = np.asarray(matrix)
    return DensityMatrix(m, *_density_spectrum(m))


def _state(rho) -> DensityMatrix:
    """rho, or a plain array checked and decomposed by make_density."""
    return rho if isinstance(rho, DensityMatrix) else make_density(rho)


def _rescaled_laplacian(g: Graph) -> tuple[np.ndarray, float]:
    """The Laplacian of g and its trace, which the rescaled density divides by."""
    lap = build_operators(g).laplacian
    tr = float(np.trace(lap).real)
    if tr <= 0:
        raise GraphFormatError("rescaled-laplacian density needs a graph with edges")
    return lap, tr


def density_rescaled(g: Graph) -> DensityMatrix:
    """Laplacian divided by its trace. Needs at least one edge."""
    lap, tr = _rescaled_laplacian(g)
    dec = hermitian_eig(lap)
    return DensityMatrix(lap / tr, dec.eigenvalues / tr, dec.vectors)


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tau must be finite and >= 0, got {tau}")


def _propagator_weights(eigenvalues: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The weights of exp(-tau L) / tr exp(-tau L) on the ascending eigenvalues of
    L, and their exact natural logs, from exp(-tau (lambda - lambda_min)) so that
    no finite tau underflows every weight."""
    with np.errstate(over="ignore"):  # -inf marks a direction out of the support
        logs = -tau * (eigenvalues - eigenvalues[0])
    total = np.exp(logs).sum()
    return np.exp(logs) / total, logs - np.log(total)


def _propagator(lap: np.ndarray, tau: float) -> DensityMatrix:
    """exp(-tau L) / tr exp(-tau L) from the spectrum of L."""
    _check_tau(tau)
    dec = hermitian_eig(lap)
    w, logs = _propagator_weights(dec.eigenvalues, tau)
    v = dec.vectors
    return DensityMatrix((v * w) @ v.conj().T, w, v, logs)


def density_propagator(g: Graph, tau: float) -> DensityMatrix:
    """exp(-tau * Laplacian) normalized by its trace; tau = 0 gives I/n."""
    return _propagator(build_operators(g).laplacian, tau)


def _entropy_bits(w: np.ndarray) -> float:
    """-sum w log2 w over the weights w above the clip floor, which count as zero."""
    w = w[w > DEFAULT_TOLS.eig_clip_floor]
    return float(-(w * np.log2(w)).sum() + 0.0)


def vn_entropy(rho) -> float:
    """Spectral entropy in bits; eigenvalues below the clip floor count as zero."""
    return _entropy_bits(_state(rho).eigenvalues)


def graph_entropy(g: Graph, density: str = "rescaled", tau: float = 1.0) -> float:
    """vn_entropy of density_rescaled(g) (density="rescaled") or of
    density_propagator(g, tau) (density="propagator"), from one values-only
    decomposition of the Laplacian: no eigenvector and no density matrix is
    formed."""
    if density == "rescaled":
        lap, tr = _rescaled_laplacian(g)
        return _entropy_bits(hermitian_eigenvalues(lap) / tr)
    if density != "propagator":
        raise ValueError(f"unknown density {density!r}")
    lap = build_operators(g).laplacian
    _check_tau(tau)
    return _entropy_bits(_propagator_weights(hermitian_eigenvalues(lap), tau)[0])


def _cross_entropy(r: np.ndarray, sigma: DensityMatrix) -> float:
    """tr[r log2 sigma] in bits, or -inf with a SupportViolationWarning when r has
    mass above Tolerances.support_mass_atol outside the support of sigma.

    A propagator state's support is where its exact log-weights are finite, and
    there weights of r at or below support_mass_atol are rounding, which a large
    log-weight would magnify, so they count as zero. For any other sigma,
    eigenvalues at or below Tolerances.eig_clip_floor span its null space.
    """
    ws, vs, logs = sigma.eigenvalues, sigma.vectors, sigma.log_eigenvalues
    weights = np.real((vs.conj() * (r @ vs)).sum(axis=0))  # <v_k| r |v_k>
    if logs is None:
        null = ws <= DEFAULT_TOLS.eig_clip_floor
        cross_term = float((weights[~null] * np.log2(ws[~null])).sum())
    else:
        weights[np.abs(weights) <= DEFAULT_TOLS.support_mass_atol] = 0.0
        null = np.isneginf(logs)  # tau (lambda - lambda_min) overflowed
        cross_term = float(weights[~null] @ logs[~null]) / np.log(2.0)
    leaked = float(weights[null].sum())
    if leaked > DEFAULT_TOLS.support_mass_atol:
        warnings.warn(f"support violation: {leaked:.3e} of the state lies outside "
                      "the reference support", SupportViolationWarning)
        return float("-inf")
    return cross_term


def kl_divergence(rho, sigma) -> float:
    """Relative entropy tr[rho (log2 rho - log2 sigma)] in bits.

    When rho carries mass outside sigma's support the divergence is infinite;
    math.inf is returned and a SupportViolationWarning explains the overlap.
    """
    rho = _state(rho)
    cross_term = _cross_entropy(rho.matrix, _state(sigma))
    if cross_term == -np.inf:
        return float("inf")
    return max(-vn_entropy(rho) - cross_term, 0.0)  # clamps rounding; keeps a NaN and -0.0


def js_divergence(rho, sigma) -> float:
    """S(mix) - [S(rho) + S(sigma)]/2 in bits, bounded by [0, 1]."""
    rho, sigma = _state(rho), _state(sigma)
    mix = 0.5 * (rho.matrix + sigma.matrix)
    mixture = DensityMatrix(mix, np.linalg.eigvalsh(mix), None)
    return max(0.0, vn_entropy(mixture) - 0.5 * (vn_entropy(rho) + vn_entropy(sigma)))


def js_distance(rho, sigma) -> float:
    return float(np.sqrt(js_divergence(rho, sigma)))


# ---------------------------------------------------------------------------
# multiplex layers


@dataclass(frozen=True)
class LayerStack:
    layers: tuple[Graph, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.layers) != len(self.labels):
            raise ValueError("one label per layer required")
        if len({g.n for g in self.layers}) > 1:
            raise ValueError("layers must share the node set")


@dataclass(frozen=True)
class LayerClustering:
    labels: tuple[str, ...]
    distance_matrix: np.ndarray            # pairwise js_distance
    merges: tuple[tuple[int, int, float], ...]  # scipy linkage ids, ascending distance
    order: tuple[int, ...]                 # dendrogram leaf order


def layer_cluster(stack: LayerStack, tau: float = 1.0) -> LayerClustering:
    """Average-linkage dendrogram of layers under the propagator js_distance."""
    k = len(stack.layers)
    if k < 2:
        raise ValueError("need at least two layers to cluster")
    densities = [density_propagator(g, tau) for g in stack.layers]
    dist = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            dist[i, j] = dist[j, i] = js_distance(densities[i], densities[j])
    from scipy.cluster import hierarchy  # scipy.cluster costs most of the package import

    condensed = dist[np.triu_indices(k, 1)]
    z = hierarchy.linkage(condensed, method="average")
    merges = tuple((int(a), int(b), float(d)) for a, b, d, _ in z)
    order = tuple(int(i) for i in hierarchy.leaves_list(z))
    return LayerClustering(labels=stack.labels, distance_matrix=dist,
                           merges=merges, order=order)
