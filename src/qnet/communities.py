"""Pairwise closeness matrices from walk dynamics and the partitions built on them.

All closeness matrices are real symmetric with a zero diagonal, so any of
them can feed the same agglomeration routine. Long-time quantities are sums
over eigenspaces, and the long-time, short-time and fidelity measures all
take them from linalg._kernel_transport, as GEMMs on the grouped eigenvector
blocks V_a of the Hamiltonian; no n x n matrix per eigenspace is formed.
Link failure decomposes the intact and the m trimmed Hamiltonians as stacks,
one numpy.linalg.eigh call per chunk of at most MAX_LINK_FAILURE_ENTRIES
entries, and takes each chunk's long-time occupations from linalg._dephased,
the kernel behind long_time_average and the infinite-horizon closeness. A
phase-free Hamiltonian is decomposed in real arithmetic throughout.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .graphs import Graph, adjacency_matrix
from .linalg import (
    _dephased,
    _group_starts,
    _kernel_transport,
    _real_if_phase_free,
    assert_hermitian,
    hermitian_eig,
)
from .walks import _check_distributions

# closeness_link_failure decomposes its m + 1 trimmed Hamiltonians in stacks
# of at most this many entries (2 MB of float64); a graph whose one n x n
# Hamiltonian exceeds it, n > 512, is rejected before anything is allocated.
MAX_LINK_FAILURE_ENTRIES = 2**18


@dataclass(frozen=True)
class ClosenessMatrix:
    matrix: np.ndarray
    measure: str
    time: float | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _finalize(c: np.ndarray, measure: str, time: float | None = None) -> ClosenessMatrix:
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 0.0)
    return ClosenessMatrix(matrix=c, measure=measure, time=time)


def _window_closeness(h: np.ndarray, t, measure: str) -> ClosenessMatrix:
    """Exact mean transport over [0, t], window kernel K_ab = (1/t) int_0^t e^{-i(l_a-l_b)s} ds."""
    if not (np.isfinite(t) and t > 0):
        raise ValueError(f"horizon must be positive and finite, got {t}")
    dec = hermitian_eig(h)
    with np.errstate(over="ignore", invalid="ignore"):
        x = 0.5 * np.subtract.outer(dec.group_values, dec.group_values) * t
        kernel = np.exp(-1j * x) * np.sinc(x / np.pi)
    # where x overflowed the window average of e^{-ix} takes its limit, 0
    c = _kernel_transport(dec, np.where(np.isfinite(kernel), kernel, 0.0))
    return _finalize(c, measure, time=float(t))


def closeness_short_time_transport(
    h: np.ndarray,
    t: float | None = None,
) -> ClosenessMatrix:
    """Mean pairwise transport over [0, t] from basis starts, by the exact window
    average: closeness_long_time_transport(h, t) under its own measure name.

    At leading order the values sort like |H_ij|, which is the point: the
    horizon should stay short. Defaults to t = 0.01/max|H| and warns when
    t * max|H| exceeds 0.1.
    """
    h = np.asarray(h)
    assert_hermitian(h)  # the default horizon reads max|H|, which must be finite
    scale = max(float(np.abs(h).max()), 1e-300)
    t = 0.01 / scale if t is None else t
    c = _window_closeness(h, t, "short-time-transport")
    if t * scale > 0.1:
        warnings.warn(f"short-time horizon t*max|H| = {t * scale:.3f} exceeds 0.1; "
                      "values are no longer proportional to the couplings")
    return c


def closeness_long_time_transport(
    h: np.ndarray,
    t: float | None = None,
) -> ClosenessMatrix:
    """Mean pairwise transport between basis states over the horizon [0, t].

    With t=None the horizon is infinite and only the eigenspace projectors
    survive: c_ij = sum_l |(Pi_l)_ij|^2. A finite t keeps the cross terms
    through their exact window average, which matters on graphs with mirror
    symmetries: the ergodic limit concentrates transport on symmetry-related
    node pairs, while a horizon of a few hop times reflects the link
    structure. Both branches are closed-form in the eigendecomposition; no
    quadrature is involved.
    """
    h = np.asarray(h)
    if t is not None:
        return _window_closeness(h, t, "long-time-transport")
    return _finalize(_kernel_transport(hermitian_eig(h)), "long-time-transport")


def closeness_fidelity(
    h: np.ndarray,
    policy: str = "superposition",
) -> ClosenessMatrix:
    """Long-time mean overlap fidelity with the pair-localized initial state.

    F(t) = tr(rho0 rho(t)) / tr(rho0^2); its infinite-time mean reduces to a
    sum over eigenspace projectors. policy picks rho0 per pair (i, j):
    "superposition" uses (|i> + |j>)/sqrt(2), "mixed" uses (|i><i| + |j><j|)/2.
    With D_ia = (Pi_a)_ii, s2_i = sum_a D_ia^2, T = sum_a |Pi_a|^2, Q = sum_a Pi_a o Pi_a
    and X_ij = Re sum_k D_{i,a(k)} V_ik conj(V_jk), mixed is (s2_i + s2_j)/2 + T and
    superposition is (s2_i + s2_j)/4 + (D D^T)_ij/2 + X_ij + X_ji + (T + Re Q)_ij/2.
    """
    if policy not in ("superposition", "mixed"):
        raise ValueError(f"unknown fidelity policy {policy!r}")
    dec = hermitian_eig(h)
    v = dec.vectors
    d = np.add.reduceat(np.abs(v) ** 2, np.cumsum(dec.group_sizes) - dec.group_sizes, axis=1)
    s2 = (d ** 2).sum(axis=1)
    pair = s2[:, None] + s2[None, :]
    transport = _kernel_transport(dec)
    if policy == "mixed":
        return _finalize(0.5 * pair + transport, "fidelity-mixed")
    x = np.real((d[:, dec.group_labels] * v) @ v.conj().T)
    q = np.real(_kernel_transport(dec, conjugate=False))
    c = 0.25 * pair + 0.5 * (d @ d.T) + x + x.T + 0.5 * (transport + q)
    return _finalize(c, "fidelity-superposition")


def _trimmed_stack(h: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   lo: int, hi: int) -> np.ndarray:
    """Hamiltonians lo..hi-1 of the link-failure sequence as one (hi - lo, n, n)
    stack: number 0 is h, number k is h without the link (rows[k-1], cols[k-1])."""
    stack = np.repeat(h[np.newaxis], hi - lo, axis=0)
    k = np.arange(max(lo, 1), hi)
    stack[k - lo, rows[k - 1], cols[k - 1]] = 0.0
    stack[k - lo, cols[k - 1], rows[k - 1]] = 0.0
    return stack


def closeness_link_failure(h: np.ndarray) -> ClosenessMatrix:
    """Affinity of nodes by how similarly their long-time occupations respond
    to single-link removals, starting from the uniform superposition.

    For a pair (u, v) only failures of links touching neither node are
    compared, so the profiles measure reactions to trouble elsewhere in the
    network; removing a link at u obviously hits u harder than v, and keeping
    those entries would separate even perfectly interchangeable nodes. With
    the exclusion, nodes with identical neighborhoods respond identically to
    every compared failure and score affinity 1 exactly.

    affinity(u, v) = 1 / (1 + rms difference of the compared responses).
    """
    h = np.asarray(h)
    n = h.shape[0]
    if n * n > MAX_LINK_FAILURE_ENTRIES:
        raise ValueError(f"link failure on {n} nodes: one {n} x {n} Hamiltonian exceeds "
                         f"the chunk limit of {MAX_LINK_FAILURE_ENTRIES} entries")
    assert_hermitian(h)
    h = _real_if_phase_free(h)
    rows, cols = np.nonzero(np.triu(np.abs(h) > 0, 1))
    m = len(rows)
    if not m:
        raise ValueError("no links to remove")
    psi0 = np.full((n, 1), 1.0 / np.sqrt(n))
    occupations = np.empty((m + 1, n))
    per_chunk = MAX_LINK_FAILURE_ENTRIES // (n * n)
    for lo in range(0, m + 1, per_chunk):
        hi = min(lo + per_chunk, m + 1)
        w, v = np.linalg.eigh(_trimmed_stack(h, rows, cols, lo, hi))
        y = v.conj().transpose(0, 2, 1) @ psi0
        occupations[lo:hi] = _check_distributions(_dephased(v, _group_starts(w), y)[..., 0])
    responses = (occupations[1:] - occupations[0]).T    # node x link
    incident = np.zeros((n, m), dtype=bool)              # node x link
    incident[rows, np.arange(m)] = True
    incident[cols, np.arange(m)] = True
    c = np.zeros((n, n))
    for u in range(n - 1):
        # failures touching neither u nor v, for every v > u at once
        compared = ~(incident[u] | incident[u + 1:])
        diff = np.where(compared, responses[u] - responses[u + 1:], 0.0)
        count = compared.sum(axis=1)
        d = np.sqrt((diff ** 2).sum(axis=1) / np.maximum(count, 1))
        c[u, u + 1:] = c[u + 1:, u] = 1.0 / (1.0 + d)
    return _finalize(c, "link-failure")


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    labels: np.ndarray                    # (n,) community index per node
    communities: tuple[tuple[int, ...], ...]
    method: str
    quality: float | None = None
    merges: tuple[tuple[int, int, float], ...] | None = None
    level_qualities: tuple[float, ...] | None = None
    best_level: int | None = None
    tie: bool = False


def _relabel(owner: np.ndarray) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Labels and member tuples for a per-node cluster key, communities
    numbered by their smallest member."""
    seen: dict[int, int] = {}
    labels = np.array([seen.setdefault(int(k), len(seen)) for k in owner], dtype=int)
    return labels, tuple(tuple(np.flatnonzero(labels == i).tolist()) for i in range(len(seen)))


def agglomerate(closeness: ClosenessMatrix) -> Partition:
    """Average-linkage agglomeration, merging the closest pair first.

    Each merge takes, of the active pairs (a < b), the first in row-major
    order whose linkage is within Tolerances.merge_pick_atol of the largest,
    so near-equal candidates resolve to the lowest slots. Another active pair
    within merge_tie_atol of the chosen one sets the tie flag (the dendrogram
    order is then not unique), as does a second level within level_tie_atol
    of the best quality.

    Every level is scored by the intra-community closeness mass ratio
    corrected by the strength null (sum over communities of squared strength
    fractions), which makes an optimum at genuine block structure. The score
    is kept incrementally from cluster-by-cluster sums of c, merged by adding
    rows and columns. The best-scoring level is returned along with the full
    merge list.
    """
    c = np.asarray(closeness.matrix, dtype=float)
    n = c.shape[0]
    method = f"agglomerate-{closeness.measure}"
    if n == 0:
        raise ValueError("empty closeness matrix")
    if not np.isfinite(c).all():
        raise ValueError("closeness matrix has non-finite entries")
    if n == 1:
        return Partition(labels=np.zeros(1, dtype=int), communities=((0,),), method=method,
                         quality=0.0, merges=(), level_qualities=(0.0,), best_level=0)
    total = c.sum()
    if total <= 0:
        return Partition(labels=np.zeros(n, dtype=int), communities=(tuple(range(n)),),
                         method=method, quality=0.0, merges=(), level_qualities=(0.0,),
                         best_level=0, tie=True)
    link = c.copy()                       # active pairs a < b; the rest is -inf
    link[np.tril_indices(n)] = -np.inf
    block = c.copy()                      # cluster-by-cluster sums of c
    strength = c.sum(axis=1)              # cluster strengths
    intra = np.diag(c).copy()             # intra-cluster closeness mass
    sizes = np.ones(n, dtype=int)
    ids = np.arange(n)                    # slot -> cluster id (scipy style)
    qualities = [float(np.sum(intra / total - (strength / total) ** 2))]
    merges: list[tuple[int, int, float]] = []
    slots: list[tuple[int, int]] = []
    pick_atol, tie_atol = DEFAULT_TOLS.merge_pick_atol, DEFAULT_TOLS.merge_tie_atol
    tie = False
    for next_id in range(n, 2 * n - 1):
        top = link.max()
        near = np.flatnonzero(link >= top - pick_atol - tie_atol)
        vals = link.flat[near]
        pick = int(np.argmax(vals >= top - pick_atol))
        a, b = divmod(int(near[pick]), n)
        val = vals[pick]
        tie = tie or np.count_nonzero(vals >= val - tie_atol) > 1
        merges.append((int(ids[a]), int(ids[b]), float(val)))
        slots.append((a, b))
        # average-linkage update into slot a; masked entries stay -inf
        row_a = np.maximum(link[a], link[:, a])
        row_b = np.maximum(link[b], link[:, b])
        merged = (sizes[a] * row_a + sizes[b] * row_b) / (sizes[a] + sizes[b])
        link[a, a + 1:] = merged[a + 1:]
        link[:a, a] = merged[:a]
        link[b, :] = link[:, b] = -np.inf
        block[a] += block[b]
        block[:, a] += block[:, b]
        strength[a] += strength[b]
        strength[b] = intra[b] = 0.0
        intra[a] = block[a, a]
        sizes[a] += sizes[b]
        ids[a] = next_id
        qualities.append(float(np.sum(intra / total - (strength / total) ** 2)))
    best_level = int(np.argmax(qualities))
    q = np.asarray(qualities)
    tie = tie or np.count_nonzero(np.abs(q - q[best_level]) <= DEFAULT_TOLS.level_tie_atol) > 1
    owner = np.arange(n)
    for a, b in slots[:best_level]:
        owner[owner == b] = a
    labels, communities = _relabel(owner)
    return Partition(
        labels=labels,
        communities=communities,
        method=method,
        quality=qualities[best_level],
        merges=tuple(merges),
        level_qualities=tuple(qualities),
        best_level=best_level,
        tie=bool(tie),
    )


# ---------------------------------------------------------------------------
# phase-aware spectral partitioning


def magnetic_laplacian(g: Graph, theta: float) -> np.ndarray:
    """Hermitian Laplacian of the symmetrized graph with edge-direction phases
    e^{i theta (A_uv - A_vu)} marking one-way links."""
    a = np.abs(adjacency_matrix(g))
    sym = 0.5 * (a + a.T)
    gamma = np.exp(1j * theta * (a - a.T))
    lap = np.diag(sym.sum(axis=1)) - gamma * sym
    return lap


def magnetic_partition(g: Graph, theta: float, k: int, seed: int = 0) -> Partition:
    """Seeded k-means on spectral-projector features of the k lowest
    eigenvalue groups of the magnetic Laplacian.

    Node features are the rows of |Pi| where Pi projects onto the k lowest
    eigenspaces, degenerate groups kept whole; Pi = V V^H with V the
    eigenvector columns of those groups. The entries |Pi_uv| aggregate
    the magnitudes and relative phases of the low eigenvectors while staying
    invariant under the per-eigenvector gauge freedom, which individual
    eigenvector coordinates are not. Directed cycles lower phase-winding
    modes below the cut, so their nodes share projector rows and cluster
    together.
    """
    if k < 1 or k > g.n:
        raise ValueError(f"k must lie in [1, {g.n}], got {k}")
    lap = magnetic_laplacian(g, theta)
    dec = hermitian_eig(lap)
    low = dec.vectors[:, : int(dec.group_sizes[:k].sum())]
    features = np.abs(low @ low.conj().T)
    from scipy.cluster.vq import kmeans2  # scipy.cluster costs most of the package import

    labels, communities = _relabel(kmeans2(features, k, minit="++", seed=seed)[1])
    return Partition(labels=labels, communities=communities, method="magnetic")
