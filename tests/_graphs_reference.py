"""The graph layer as it stood before edges were stored as columns, kept
verbatim as the oracle for the columnar parser, validator and adjacency
scatter of qnet.graphs: one Python object per edge, checked one edge and one
line at a time."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from qnet.errors import GraphFormatError
from qnet.graphs import MAX_NODES


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
