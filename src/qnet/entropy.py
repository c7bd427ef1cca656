"""Network density matrices, spectral entropies, divergences, and layer clustering.

A DensityMatrix keeps its spectrum: only plain arrays and JS mixtures are decomposed."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .errors import GraphFormatError, SupportViolationWarning
from .graphs import Graph, _graph, build_operators
from .linalg import _density_spectrum, hermitian_eig


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace PSD matrix, how it was built, and its spectrum (V * w) @ V^H."""

    matrix: np.ndarray
    construction: str            # "rescaled-laplacian" | "propagator" | "external"
    eigenvalues: np.ndarray      # (n,) real, summing to 1
    vectors: np.ndarray          # (n, n), column k pairs with eigenvalues[k]
    tau: float | None = None
    log_eigenvalues: np.ndarray | None = None  # (n,) exact ln eigenvalues (propagator)


def make_density(matrix: np.ndarray, construction: str = "external",
                 tau: float | None = None) -> DensityMatrix:
    m = np.asarray(matrix)
    return DensityMatrix(m, construction, *_density_spectrum(m), tau)


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)


def density_rescaled(g: Graph) -> DensityMatrix:
    """Laplacian divided by its trace. Needs at least one edge."""
    lap = build_operators(g).laplacian
    tr = float(np.trace(lap).real)
    if tr <= 0:
        raise GraphFormatError("rescaled-laplacian density needs a graph with edges")
    dec = hermitian_eig(lap)
    return DensityMatrix(lap / tr, "rescaled-laplacian", dec.eigenvalues / tr, dec.vectors)


def _propagator(lap: np.ndarray, tau: float) -> DensityMatrix:
    """exp(-tau L) / tr exp(-tau L) from the spectrum of L, weighted by
    exp(-tau (lambda - lambda_min)) so that no finite tau underflows every weight."""
    if not 0.0 <= tau < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    dec = hermitian_eig(lap)
    with np.errstate(over="ignore"):  # -inf marks a direction out of the support
        logs = -tau * (dec.eigenvalues - dec.eigenvalues[0])
    total = np.exp(logs).sum()
    w, v, logs = np.exp(logs) / total, dec.vectors, logs - np.log(total)
    return DensityMatrix((v * w) @ v.conj().T, "propagator", w, v, float(tau), logs)


def density_propagator(g: Graph, tau: float) -> DensityMatrix:
    """exp(-tau * Laplacian) normalized by its trace; tau = 0 gives I/n."""
    return _propagator(build_operators(g).laplacian, tau)


def vn_entropy(rho) -> float:
    """Spectral entropy in bits; eigenvalues below the clip floor count as zero."""
    w = rho.eigenvalues if isinstance(rho, DensityMatrix) else np.linalg.eigvalsh(rho)
    w = w[w > DEFAULT_TOLS.eig_clip_floor]
    return float(-(w * np.log2(w)).sum() + 0.0)


def _cross_entropy(r: np.ndarray, sigma) -> float:
    """tr[r log2 sigma] in bits, or -inf with a SupportViolationWarning when r has
    mass above Tolerances.support_mass_atol outside the support of sigma.

    A propagator state's support is where its exact log-weights are finite, and
    there weights of r at or below support_mass_atol are rounding, which a large
    log-weight would magnify, so they count as zero. For any other sigma,
    eigenvalues at or below Tolerances.eig_clip_floor span its null space.
    """
    ws, vs = ((sigma.eigenvalues, sigma.vectors) if isinstance(sigma, DensityMatrix)
              else np.linalg.eigh(sigma))
    weights = np.real((vs.conj() * (r @ vs)).sum(axis=0))  # <v_k| r |v_k>
    logs = getattr(sigma, "log_eigenvalues", None)
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
    cross_term = _cross_entropy(_as_matrix(rho), sigma)
    if cross_term == -np.inf:
        return float("inf")
    return max(-vn_entropy(rho) - cross_term, 0.0)  # clamps rounding; keeps a NaN and -0.0


def js_divergence(rho, sigma) -> float:
    """S(mix) - [S(rho) + S(sigma)]/2 in bits, bounded by [0, 1]."""
    mix = 0.5 * (_as_matrix(rho) + _as_matrix(sigma))
    return max(0.0, vn_entropy(mix) - 0.5 * (vn_entropy(rho) + vn_entropy(sigma)))


def js_distance(rho, sigma) -> float:
    return float(np.sqrt(js_divergence(rho, sigma)))


# ---------------------------------------------------------------------------
# model likelihood


@dataclass(frozen=True)
class ErdosRenyiModel:
    """Independent-edge model summarized by its expected Laplacian."""

    p: float
    tau: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"edge probability p must lie in [0, 1], got {self.p}")

    def expected_laplacian(self, n: int) -> np.ndarray:
        return self.p * ((n - 1) * np.eye(n) - (np.ones((n, n)) - np.eye(n)))

    def density(self, n: int) -> DensityMatrix:
        return _propagator(self.expected_laplacian(n), self.tau)


def log_likelihood(rho, model) -> float:
    """tr[rho log2 sigma] in bits (negative cross entropy).

    model is either a parametric family (anything with a density(n) method,
    like ErdosRenyiModel) or an explicit reference state; with the observed
    state itself as the reference this equals -vn_entropy(rho). Returns -inf
    with a SupportViolationWarning if the reference has lost support where
    the observed state lives.
    """
    r = _as_matrix(rho)
    return _cross_entropy(r, model.density(r.shape[0]) if hasattr(model, "density") else model)


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


def aggregate_layers(layers: Sequence[Graph]) -> Graph:
    """Edge-weight-sum aggregation of same-node-set layers (phase-free)."""
    if not layers:
        raise ValueError("nothing to aggregate")
    n = layers[0].n
    if any(g.n != n for g in layers):
        raise ValueError("layers must share the node set")
    if any(g.directed for g in layers) or any(g.has_phases() for g in layers):
        raise ValueError("aggregation is defined for undirected phase-free layers")
    lo = np.concatenate([np.minimum(g.src, g.dst) for g in layers])
    hi = np.concatenate([np.maximum(g.src, g.dst) for g in layers])
    # each pair's weights summed from 0.0 in layer order, pairs in (lo, hi) order
    pairs, which = np.unique(lo * n + hi, return_inverse=True)
    weight = np.bincount(which, np.concatenate([g.weight for g in layers]), len(pairs))
    src, dst = divmod(pairs, n)
    return _graph(n, src.tolist(), dst.tolist(), weight.tolist(), [0.0] * len(pairs),
                  directed=False)
