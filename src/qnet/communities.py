"""Pairwise closeness matrices from walk dynamics and the partitions built on them.

All closeness matrices are real symmetric with a zero diagonal, so any of
them can feed the same agglomeration routine. Long-time quantities are sums
over eigenspaces, evaluated as GEMMs on the grouped eigenvector blocks V_a of
the Hamiltonian; at most one n x n eigenspace term exists at a time.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .graphs import Graph, _components, adjacency_matrix
from .linalg import EigenDecomposition, _kernel_transport, assert_hermitian, hermitian_eig
from .walks import WalkSpec, long_time_average, uniform_superposition


@dataclass(frozen=True)
class ClosenessMatrix:
    matrix: np.ndarray
    measure: str
    time: float | None = None
    notes: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _finalize(c: np.ndarray, measure: str, time: float | None = None,
              notes: dict | None = None) -> ClosenessMatrix:
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 0.0)
    return ClosenessMatrix(matrix=c, measure=measure, time=time, notes=notes or {})


def closeness_short_time_transport(
    h: np.ndarray,
    t: float | None = None,
    samples: int = 64,
    tols: Tolerances = DEFAULT_TOLS,
) -> ClosenessMatrix:
    """Mean pairwise transport over [0, t] from basis starts.

    At leading order the values sort like |H_ij|, which is the point: the
    horizon should stay short. Defaults to t = 0.01/max|H| and warns when
    t * max|H| exceeds 0.1.
    """
    h = np.asarray(h, dtype=complex)
    dec = hermitian_eig(h, tols=tols)
    scale = max(float(np.abs(h).max()), 1e-300)
    if t is None:
        t = 0.01 / scale
    if t <= 0:
        raise ValueError(f"horizon must be positive, got {t}")
    if t * scale > 0.1:
        warnings.warn(
            f"short-time horizon t*max|H| = {t * scale:.3f} exceeds 0.1; "
            "values are no longer proportional to the couplings"
        )
    w, v = dec.eigenvalues, dec.vectors
    grid = (np.arange(samples) + 0.5) * (t / samples)
    mean = np.zeros((h.shape[0], h.shape[0]))
    for s in grid:
        u = (v * np.exp(-1j * w * s)) @ v.conj().T
        mean += np.abs(u) ** 2
    mean /= samples
    return _finalize(mean, "short-time-transport", time=float(t))


def _eigenspace_transport(dec: EigenDecomposition) -> np.ndarray:
    """sum_a |(V_a V_a^H)_ij|^2: one GEMM over all singleton groups, since
    |v v^H|^2 = |v|^2 (|v|^2)^T, plus one explicit term per degenerate group."""
    single = np.repeat(dec.group_sizes == 1, dec.group_sizes)
    mag = np.abs(dec.vectors[:, single]) ** 2
    c = mag @ mag.T
    for block in dec.blocks:
        if block.shape[1] > 1:
            c += np.abs(block @ block.conj().T) ** 2
    return c


def closeness_long_time_transport(
    h: np.ndarray,
    t: float | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> ClosenessMatrix:
    """Mean pairwise transport between basis states over the horizon [0, t].

    With t=None the horizon is infinite and only the eigenspace projectors
    survive: c_ij = sum_l |(Pi_l)_ij|^2. A finite t keeps the cross terms
    through their exact window average, which matters on graphs with mirror
    symmetries: the ergodic limit concentrates transport on symmetry-related
    node pairs, while a horizon of a few hop times reflects the link
    structure. Both branches are closed-form in the eigendecomposition; no
    quadrature is involved.

    The finite-t branch needs sum_ab K_ab (Pi_a)_ij conj(Pi_b)_ij with the
    window kernel K_ab = (1/t) int_0^t e^{-i(l_a - l_b)s} ds. K is a Gram
    matrix, hence Hermitian PSD, and linalg._kernel_transport evaluates the
    sum with one GEMM per numerically nonzero mode of K.
    """
    h = np.asarray(h, dtype=complex)
    dec = hermitian_eig(h, tols=tols)
    if t is None:
        return _finalize(_eigenspace_transport(dec), "long-time-transport")
    if t <= 0:
        raise ValueError(f"horizon must be positive, got {t}")
    # window average of e^{-i(l_a - l_b) s} over s in [0, t]
    delta = dec.group_values[:, None] - dec.group_values[None, :]
    x = 0.5 * delta * t
    c = _kernel_transport(dec, np.exp(-1j * x) * np.sinc(x / np.pi))
    return _finalize(c, "long-time-transport", time=float(t))


def closeness_fidelity(
    h: np.ndarray,
    policy: str = "superposition",
    tols: Tolerances = DEFAULT_TOLS,
) -> ClosenessMatrix:
    """Long-time mean overlap fidelity with the pair-localized initial state.

    F(t) = tr(rho0 rho(t)) / tr(rho0^2); its infinite-time mean reduces to a
    sum over eigenspace projectors. policy picks rho0 per pair (i, j):
    "superposition" uses (|i> + |j>)/sqrt(2), "mixed" uses (|i><i| + |j><j|)/2.
    Each eigenspace term is built from its block and added before the next.
    """
    if policy not in ("superposition", "mixed"):
        raise ValueError(f"unknown fidelity policy {policy!r}")
    h = np.asarray(h, dtype=complex)
    dec = hermitian_eig(h, tols=tols)
    n = h.shape[0]
    c = np.zeros((n, n))
    for block in dec.blocks:
        proj = block @ block.conj().T
        d = np.real(np.diag(proj))
        if policy == "superposition":
            c += (0.5 * (d[:, None] + d[None, :] + 2.0 * np.real(proj))) ** 2
        else:
            c += 0.5 * (d[:, None] ** 2 + d[None, :] ** 2 + 2.0 * np.abs(proj) ** 2)
    return _finalize(c, f"fidelity-{policy}")


def closeness_link_failure(h: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> ClosenessMatrix:
    """Affinity of nodes by how similarly their long-time occupations respond
    to single-link removals, starting from the uniform superposition.

    For a pair (u, v) only failures of links touching neither node are
    compared, so the profiles measure reactions to trouble elsewhere in the
    network; removing a link at u obviously hits u harder than v, and keeping
    those entries would separate even perfectly interchangeable nodes. With
    the exclusion, nodes with identical neighborhoods respond identically to
    every compared failure and score affinity 1 exactly.

    affinity(u, v) = 1 / (1 + rms difference of the compared responses).
    Nodes whose occupations never respond to any removal are listed in
    notes["zero_response_nodes"]; component structure is noted as well.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    assert_hermitian(h, tols)
    links = [(i, j) for i in range(n) for j in range(i + 1, n) if abs(h[i, j]) > 0]
    if not links:
        raise ValueError("no links to remove")
    psi0 = uniform_superposition(n)

    def mean_occupations(op: np.ndarray) -> np.ndarray:
        return long_time_average(WalkSpec(op, psi0), tols).long_time

    base = mean_occupations(h)
    responses = np.zeros((n, len(links)))
    for k, (i, j) in enumerate(links):
        trimmed = h.copy()
        trimmed[i, j] = 0.0
        trimmed[j, i] = 0.0
        responses[:, k] = mean_occupations(trimmed) - base
    incident = np.zeros((n, len(links)), dtype=bool)     # node x link
    incident[np.array(links).T, np.arange(len(links))] = True
    c = np.zeros((n, n))
    for u in range(n - 1):
        # failures touching neither u nor v, for every v > u at once
        compared = ~(incident[u] | incident[u + 1:])
        diff = np.where(compared, responses[u] - responses[u + 1:], 0.0)
        count = compared.sum(axis=1)
        d = np.sqrt((diff ** 2).sum(axis=1) / np.maximum(count, 1))
        c[u, u + 1:] = c[u + 1:, u] = 1.0 / (1.0 + d)
    zero = np.flatnonzero(np.abs(responses).max(axis=1) < tols.zero_response_atol).tolist()
    notes: dict = {"zero_response_nodes": zero}
    comps = _components(n, links)
    if len(comps) > 1:
        notes["components"] = comps
    return _finalize(c, "link-failure", notes=notes)


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

    def as_dict(self) -> dict:
        out: dict = {
            "method": self.method,
            "communities": [list(c) for c in self.communities],
        }
        if self.quality is not None:
            out["quality"] = float(self.quality)
        if self.merges is not None:
            out["merges"] = [
                {"a": a, "b": b, "closeness": v} for a, b, v in self.merges
            ]
        out["tie"] = bool(self.tie)
        return out


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
    tols = DEFAULT_TOLS
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
    tie = False
    for next_id in range(n, 2 * n - 1):
        top = link.max()
        near = np.flatnonzero(link >= top - tols.merge_pick_atol - tols.merge_tie_atol)
        vals = link.flat[near]
        pick = int(np.argmax(vals >= top - tols.merge_pick_atol))
        a, b = divmod(int(near[pick]), n)
        val = vals[pick]
        tie = tie or np.count_nonzero(vals >= val - tols.merge_tie_atol) > 1
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
    tie = tie or np.count_nonzero(np.abs(q - q[best_level]) <= tols.level_tie_atol) > 1
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


def magnetic_partition(g: Graph, theta: float, k: int, seed: int = 0,
                       tols: Tolerances = DEFAULT_TOLS) -> Partition:
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
    dec = hermitian_eig(lap, tols=tols)
    low = dec.vectors[:, : int(dec.group_sizes[:k].sum())]
    features = np.abs(low @ low.conj().T)
    from scipy.cluster.vq import kmeans2  # scipy.cluster costs most of the package import

    labels, communities = _relabel(kmeans2(features, k, minit="++", seed=seed)[1])
    return Partition(labels=labels, communities=communities, method="magnetic")
