"""Graph type, parsers, and the operator bundle (adjacency, Laplacians, google matrix).

Conventions:
  * Adjacency rows are sources: A[u, v] = w for a directed edge u -> v.
  * A phase theta on an undirected edge (u, v) enters as A[u, v] = w e^{i theta},
    A[v, u] = w e^{-i theta}, keeping A Hermitian.
  * The stochastic generator uses the column convention (columns sum to zero),
    so probability column vectors evolve as dp/dt = -L_S p.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DisconnectedGraphError, GraphFormatError, SymmetryError

# Every analysis builds dense n x n operators; one complex matrix at this size
# is 6.4 GB, so larger node counts are rejected where graphs enter.
MAX_NODES = 20_000


class Edge(NamedTuple):
    src: int
    dst: int
    weight: float = 1.0
    phase: float = 0.0


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph; phases model directional complex couplings."""

    n: int
    edges: tuple[Edge, ...]
    directed: bool = False

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_phases(self) -> bool:
        return any(e.phase != 0.0 for e in self.edges)


def build_graph(
    n: int,
    edges: Iterable[tuple],
    directed: bool = False,
    allow_self_loops: bool = False,
) -> Graph:
    """Validate and freeze a graph: ids in range, finite weights >= 0 and
    phases, no duplicates."""
    if n < 0:
        raise GraphFormatError(f"node count must be >= 0, got {n}")
    if n > MAX_NODES:
        raise GraphFormatError(f"node count {n} exceeds the limit of {MAX_NODES} nodes")
    out: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for raw in edges:
        e = Edge(*raw)
        if not (0 <= e.src < n and 0 <= e.dst < n):
            raise GraphFormatError(
                f"edge ({e.src}, {e.dst}) outside node range [0, {n})"
            )
        if e.src == e.dst and not allow_self_loops:
            raise GraphFormatError(f"self-loop on node {e.src} (not enabled)")
        if not (math.isfinite(e.weight) and math.isfinite(e.phase)):
            raise GraphFormatError(
                f"non-finite weight or phase on edge ({e.src}, {e.dst})"
            )
        if e.weight < 0:
            raise GraphFormatError(
                f"negative weight {e.weight} on edge ({e.src}, {e.dst})"
            )
        key = (e.src, e.dst) if directed else (min(e.src, e.dst), max(e.src, e.dst))
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({e.src}, {e.dst})")
        seen.add(key)
        out.append(Edge(int(e.src), int(e.dst), float(e.weight), float(e.phase)))
    return Graph(n=int(n), edges=tuple(out), directed=bool(directed))


# ---------------------------------------------------------------------------
# parsing and serialization


def load_edge_list(text: str, directed: bool | None = None) -> Graph:
    """Parse 'src dst [weight] [phase]' lines.

    '#' starts a comment. Directive lines 'nodes N' and 'directed' may appear
    before the first edge; a 'nodes' directive overrides the max-id-plus-one
    default. A bare two-column line means unit weight and zero phase; a phase
    needs an explicit weight column first.
    """
    header_nodes: int | None = None
    header_directed = False
    edges: list[tuple] = []
    max_id = -1
    saw_edge = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0].lower() == "nodes":
            if saw_edge:
                raise GraphFormatError(f"line {ln}: 'nodes' directive after edges")
            if len(tokens) != 2:
                raise GraphFormatError(f"line {ln}: expected 'nodes N'")
            try:
                header_nodes = int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"line {ln}: bad node count {tokens[1]!r}") from None
            if header_nodes > MAX_NODES:
                raise GraphFormatError(
                    f"line {ln}: node count {header_nodes} exceeds the limit of "
                    f"{MAX_NODES} nodes"
                )
            continue
        if tokens[0].lower() == "directed":
            if saw_edge:
                raise GraphFormatError(f"line {ln}: 'directed' directive after edges")
            header_directed = True
            continue
        if len(tokens) < 2 or len(tokens) > 4:
            raise GraphFormatError(
                f"line {ln}: expected 'src dst [weight] [phase]', got {len(tokens)} fields"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
            w = float(tokens[2]) if len(tokens) >= 3 else 1.0
            phase = float(tokens[3]) if len(tokens) == 4 else 0.0
        except ValueError:
            raise GraphFormatError(f"line {ln}: malformed edge {line!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {ln}: negative node id")
        if not (math.isfinite(w) and math.isfinite(phase)):
            raise GraphFormatError(f"line {ln}: non-finite weight or phase")
        if w < 0:
            raise GraphFormatError(f"line {ln}: negative weight {w}")
        saw_edge = True
        max_id = max(max_id, u, v)
        edges.append((u, v, w, phase))
    n = header_nodes if header_nodes is not None else max_id + 1
    if header_nodes is not None and header_nodes < max_id + 1:
        raise GraphFormatError(
            f"node id {max_id} outside declared node count {header_nodes}"
        )
    is_directed = directed if directed is not None else header_directed
    return build_graph(n, edges, directed=is_directed)


def to_edge_list(g: Graph) -> str:
    """Serialize so that load_edge_list(to_edge_list(g)) reproduces g exactly."""
    lines = [f"nodes {g.n}"]
    if g.directed:
        lines.append("directed")
    for e in g.edges:
        if e.phase != 0.0:
            lines.append(f"{e.src} {e.dst} {e.weight!r} {e.phase!r}")
        else:
            lines.append(f"{e.src} {e.dst} {e.weight!r}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> dict:
    return {
        "nodes": g.n,
        "directed": g.directed,
        "edges": [
            {"src": e.src, "dst": e.dst, "w": e.weight, "phase": e.phase}
            for e in g.edges
        ],
    }


def graph_from_json(obj: dict | str) -> Graph:
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        n = obj["nodes"]
        directed = bool(obj.get("directed", False))
        edges = [(e["src"], e["dst"], e.get("w", 1.0), e.get("phase", 0.0))
                 for e in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"bad graph json: {exc}") from None
    return build_graph(n, edges, directed=directed)


# ---------------------------------------------------------------------------
# dense operators


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense adjacency; complex dtype only when some edge carries a phase."""
    if g.has_phases():
        a = np.zeros((g.n, g.n), dtype=complex)
        for e in g.edges:
            amp = e.weight * np.exp(1j * e.phase)
            a[e.src, e.dst] += amp
            if not g.directed:
                a[e.dst, e.src] += np.conj(amp)
        return a
    a = np.zeros((g.n, g.n))
    for e in g.edges:
        a[e.src, e.dst] += e.weight
        if not g.directed:
            a[e.dst, e.src] += e.weight
    return a


@dataclass(frozen=True)
class OperatorBundle:
    """Adjacency, strengths, and the three derived generators of one graph."""

    adjacency: np.ndarray
    strength: np.ndarray             # (n,) row sums of |A|
    laplacian: np.ndarray            # diag(strength) - A
    stochastic_generator: np.ndarray  # Lap @ D^-1, columns sum to zero
    quantum_generator: np.ndarray    # D^-1/2 Lap D^-1/2, Hermitian
    isolated: tuple[int, ...]        # nodes excluded from the D^-1 generators

    @property
    def degree_matrix(self) -> np.ndarray:
        return np.diag(self.strength)


def build_operators(
    g: Graph,
    symmetrize: bool = False,
    isolated_policy: str = "exclude",
) -> OperatorBundle:
    """Build the operator bundle of an undirected (or explicitly symmetrized) graph.

    Directed input without symmetrize=True raises SymmetryError. Isolated
    nodes are excluded from the D^-1 generators under the default policy and
    raise DisconnectedGraphError under isolated_policy="error".
    """
    if isolated_policy not in ("exclude", "error"):
        raise ValueError(f"unknown isolated_policy {isolated_policy!r}")
    a = adjacency_matrix(g)
    if g.directed:
        if not symmetrize:
            raise SymmetryError(
                "directed graph: generators require a symmetric adjacency; "
                "pass symmetrize=True to use (A + A^T)/2"
            )
        a = 0.5 * (a + a.conj().T)
    strength = np.abs(a).sum(axis=1)
    isolated = tuple(int(i) for i in np.flatnonzero(strength == 0))
    if isolated and isolated_policy == "error":
        raise DisconnectedGraphError(
            f"isolated nodes {list(isolated)} have zero strength; D^-1 is undefined"
        )
    lap = np.diag(strength) - a
    with np.errstate(divide="ignore"):
        inv = np.where(strength > 0, 1.0 / strength, 0.0)
        inv_sqrt = np.where(strength > 0, 1.0 / np.sqrt(strength), 0.0)
    l_s = lap * inv[np.newaxis, :]
    l_q = lap * np.outer(inv_sqrt, inv_sqrt)
    return OperatorBundle(
        adjacency=a,
        strength=strength,
        laplacian=lap,
        stochastic_generator=l_s,
        quantum_generator=l_q,
        isolated=isolated,
    )


def stochastic_eigenmodes(bundle: OperatorBundle):
    """Eigenvalues shared by both generators, with the similarity-mapped modes.

    Returns (values, right, left): columns of right satisfy L_S r = w r and
    columns of left satisfy L_S^T l = w l; both are built from the Hermitian
    generator's eigenvectors through D^{+1/2} and D^{-1/2}.
    """
    w, v = np.linalg.eigh(bundle.quantum_generator)
    sqrt_d = np.sqrt(bundle.strength)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(bundle.strength > 0, 1.0 / np.sqrt(bundle.strength), 0.0)
    right = sqrt_d[:, None] * v
    left = inv_sqrt[:, None] * v
    norms_r = np.linalg.norm(right, axis=0)
    norms_l = np.linalg.norm(left, axis=0)
    right = right / np.where(norms_r > 0, norms_r, 1.0)
    left = left / np.where(norms_l > 0, norms_l, 1.0)
    return w, right, left


@dataclass(frozen=True)
class GoogleMatrix:
    matrix: np.ndarray           # column-stochastic
    damping: float
    dangling: tuple[int, ...]    # columns replaced by the uniform distribution

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def google_matrix(g: Graph, damping: float = 0.85) -> GoogleMatrix:
    """Damped column-stochastic transition matrix of the (bi)directed graph."""
    if g.n == 0:
        raise GraphFormatError("empty graph has no transition matrix")
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping must lie in [0, 1], got {damping}")
    a = np.abs(adjacency_matrix(g))
    out_strength = a.sum(axis=1)
    dangling = tuple(int(i) for i in np.flatnonzero(out_strength == 0))
    m = np.zeros((g.n, g.n))
    nz = out_strength > 0
    m[:, nz] = (a[nz, :] / out_strength[nz, None]).T
    if dangling:
        m[:, list(dangling)] = 1.0 / g.n
    mat = damping * m + (1.0 - damping) / g.n
    return GoogleMatrix(matrix=mat, damping=float(damping), dangling=dangling)


# ---------------------------------------------------------------------------
# structure checks


def _neighbor_lists(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def _components(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Components of n nodes joined by undirected pairs, each sorted, ordered
    by their smallest member."""
    nbrs = _neighbor_lists(n, pairs)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            u = queue.pop()
            comp.append(u)
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def connected_components(g: Graph) -> list[list[int]]:
    """Components of the undirected view, each sorted, in discovery order."""
    return _components(g.n, ((e.src, e.dst) for e in g.edges))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


@dataclass(frozen=True)
class BipartiteResult:
    bipartite: bool
    coloring: np.ndarray | None      # (n,) of {0,1} when bipartite
    odd_cycle: tuple[int, ...] | None  # witness cycle otherwise


def is_bipartite(g: Graph) -> BipartiteResult:
    """Two-color the undirected view; on failure return an odd-cycle witness."""
    nbrs = _neighbor_lists(g.n, ((e.src, e.dst) for e in g.edges))
    color = np.full(g.n, -1, dtype=int)
    parent = np.full(g.n, -1, dtype=int)
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in nbrs[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u] and u != v:
                    return BipartiteResult(False, None, _odd_cycle(u, v, parent))
    return BipartiteResult(True, color, None)


def _odd_cycle(u: int, v: int, parent: np.ndarray) -> tuple[int, ...]:
    """Reconstruct the cycle through the conflict edge (u, v)."""
    path_u, path_v = [u], [v]
    seen = {u: 0}
    x = u
    while parent[x] != -1:
        x = int(parent[x])
        seen[x] = len(path_u)
        path_u.append(x)
    x = v
    while x not in seen:
        x = int(parent[x])
        path_v.append(x)
    meet = seen[x]
    cycle = path_u[:meet + 1] + list(reversed(path_v[:-1]))
    return tuple(cycle)


def fiedler_map(lap: np.ndarray) -> np.ndarray:
    """Map any Laplacian-like operator L to the PSD L^T L with the same kernel."""
    lap = np.asarray(lap)
    return lap.T.conj() @ lap
