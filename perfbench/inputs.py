"""Seeded graph inputs for the benchmark, written as qnet edge-list files.

The generators are the benchmark's own: they never call qnet, so a fault in
the program's graph code cannot shape the inputs it is checked against.

Every random graph is connected: a uniformly random spanning tree (each node,
in random order, attaches to an earlier one) plus a fixed number of extra
node pairs drawn uniformly without replacement. The extra-edge count is fixed
(G(n, M) rather than G(n, c/n)) so that the work of a pass, and with it the
timings, does not swing with the seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class EdgeList:
    """A graph as the benchmark knows it: node count, edges, weights."""

    n: int
    edges: list[tuple[int, int]]
    weights: list[float] = field(default_factory=list)  # empty means unit weights
    directed: bool = False

    def weight(self, k: int) -> float:
        return self.weights[k] if self.weights else 1.0

    def adjacency(self) -> np.ndarray:
        """Dense adjacency, rows are sources (the edge-list file convention)."""
        a = np.zeros((self.n, self.n))
        for k, (u, v) in enumerate(self.edges):
            a[u, v] += self.weight(k)
            if not self.directed:
                a[v, u] += self.weight(k)
        return a

    def text(self, nodes_header: int | None = None) -> str:
        lines = [f"nodes {self.n if nodes_header is None else nodes_header}"]
        if self.directed:
            lines.append("directed")
        for k, (u, v) in enumerate(self.edges):
            lines.append(f"{u} {v} {self.weights[k]!r}" if self.weights else f"{u} {v}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> str:
        with open(path, "w") as fh:
            fh.write(self.text())
        return str(path)


def _tree_and_extra(rng: np.random.Generator, n: int, extra: int,
                    offset: int = 0) -> list[tuple[int, int]]:
    order = rng.permutation(n)
    pairs = set()
    for k in range(1, n):
        a, b = int(order[rng.integers(0, k)]), int(order[k])
        pairs.add((min(a, b), max(a, b)))
    iu, ju = np.triu_indices(n, 1)
    free = [i for i, p in enumerate(zip(iu.tolist(), ju.tolist())) if p not in pairs]
    extra = min(extra, len(free))
    for i in rng.choice(len(free), size=extra, replace=False):
        pairs.add((int(iu[free[i]]), int(ju[free[i]])))
    return [(a + offset, b + offset) for a, b in sorted(pairs)]


def _orient(rng: np.random.Generator, pairs):
    flips = rng.random(len(pairs)) < 0.5
    return [(b, a) if f else (a, b) for (a, b), f in zip(pairs, flips)]


BRIDGE_WEIGHT = 0.25


def _weights(rng: np.random.Generator, m: int) -> list[float]:
    # continuous weights make the spectrum simple, so the number of
    # eigenvalue groups (and the n^3 projector work) is n for every seed
    return [float(w) for w in rng.uniform(0.5, 1.5, m)]


def connected_graph(rng: np.random.Generator, n: int, extra: int,
                    directed: bool = False, weighted: bool = False) -> EdgeList:
    pairs = _tree_and_extra(rng, n, extra)
    if directed:
        pairs = _orient(rng, pairs)
    return EdgeList(n, pairs, _weights(rng, len(pairs)) if weighted else [], directed)


def two_block_graph(rng: np.random.Generator, half: int, extra: int, bridges: int,
                    directed: bool = False, weighted: bool = False) -> EdgeList:
    """Two connected random blocks of `half` nodes joined by `bridges` links.

    The blocks are the planted communities: nodes [0, half) and [half, 2 half).
    The bridges join the best-connected nodes of each block, so no weakly
    attached node is pulled across by its bridge partner; in a weighted graph
    they also carry a weight below every in-block weight.
    """
    left = _tree_and_extra(rng, half, extra)
    right = _tree_and_extra(rng, half, extra, half)

    def hubs(pairs, offset):
        deg = np.bincount(np.asarray(pairs).ravel() - offset, minlength=half)
        return np.argsort(-deg, kind="stable")[:bridges] + offset
    cross = [(int(a), int(b)) for a, b in zip(hubs(left, 0), hubs(right, half))]
    pairs = left + right + cross
    weights = _weights(rng, len(left) + len(right)) + [BRIDGE_WEIGHT] * len(cross)
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    pairs = [pairs[k] for k in order]
    if directed:
        pairs = _orient(rng, pairs)
    return EdgeList(2 * half, pairs, [weights[k] for k in order] if weighted else [], directed)


def complete_graph(n: int) -> EdgeList:
    return EdgeList(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> EdgeList:
    return EdgeList(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> EdgeList:
    return EdgeList(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> EdgeList:
    return EdgeList(n, [(0, i) for i in range(1, n)])


def barbell7() -> EdgeList:
    """Two triangles {0,1,2} and {4,5,6} joined through bridge node 3."""
    return EdgeList(7, [(0, 1), (0, 2), (1, 2), (4, 5), (4, 6), (5, 6), (2, 3), (3, 4)])


def directed_chain(n: int) -> EdgeList:
    return EdgeList(n, [(i, i + 1) for i in range(n - 1)], directed=True)
