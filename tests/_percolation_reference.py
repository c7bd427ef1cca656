"""Pure-Python reference implementations of the percolation Monte Carlo
loops, kept as exact-equality oracles for the array kernels in
qnet.percolation: a union-find pass per (trial, p) on the lattice, and one
rebuilt graph plus one containment search per (trial, c) for emergence.
Both draw their uniforms from the same seeded substreams as the library.
"""
from __future__ import annotations

import networkx as nx
import numpy as np
from networkx.algorithms import isomorphism

from qnet import Graph, build_graph
from qnet.percolation import _NAMED_TARGETS


def lattice_run(width: int, height: int, open_h: np.ndarray, open_v: np.ndarray):
    """Union-find pass over the open bonds; returns (spanning, largest fraction)."""
    n = width * height
    parent = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]

    for idx in np.flatnonzero(open_h):
        y, x = divmod(int(idx), width - 1)
        union(y * width + x, y * width + x + 1)
    for idx in np.flatnonzero(open_v):
        union(int(idx), int(idx) + width)
    left_roots = {find(y * width) for y in range(height)}
    right_roots = {find(y * width + width - 1) for y in range(height)}
    largest = max(size[find(i)] for i in range(n))
    return not left_roots.isdisjoint(right_roots), largest / n


def bond_percolation_curve(width: int, height: int, p_values, trials: int, seed: int):
    """Per p: (spanning_prob, largest_fraction_mean, records) with records a
    list of (spanning, largest_fraction) per trial."""
    nh, nv = (width - 1) * height, (height - 1) * width
    runs = []
    for ts in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(ts)
        uh = rng.random(nh)
        uv = rng.random(nv)
        runs.append([lattice_run(width, height, uh < p, uv < p) for p in p_values])
    out = []
    for pi in range(len(p_values)):
        rows = [trial[pi] for trial in runs]
        out.append((
            float(np.array([r[0] for r in rows], dtype=float).mean()),
            float(np.array([r[1] for r in rows]).mean()),
            rows,
        ))
    return out


def _monomorphic(host_edges, pattern_edges) -> bool:
    matcher = isomorphism.GraphMatcher(nx.Graph(host_edges), nx.Graph(pattern_edges))
    return matcher.subgraph_is_monomorphic()


def contains_subgraph(g: Graph, target: str | Graph) -> bool:
    """Neighbour-set triangle test, networkx monomorphism for other targets;
    an explicit target is matched on its links, so link-less nodes drop out."""
    edges = [(e.src, e.dst) for e in g.edges]
    if isinstance(target, Graph):
        return _monomorphic(edges, [(e.src, e.dst) for e in target.edges])
    t_nodes, t_edges = _NAMED_TARGETS[target]
    if t_nodes == 2:
        return len(edges) > 0
    if target == "triangle":
        nbrs: list[set[int]] = [set() for _ in range(g.n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return any(nbrs[u] & nbrs[v] for u, v in edges)
    return _monomorphic(edges, t_edges)


def first_link(pattern_edges, src, dst) -> int:
    """Position of the first link whose insertion, in the given order, makes
    the links so far hold the pattern, by bisection over prefixes with the
    networkx monomorphism test (containment only grows with the prefix);
    -1 when all of them hold none."""
    links = list(zip(np.asarray(src).tolist(), np.asarray(dst).tolist()))
    lo, hi = 0, len(links) + 1  # the shortest holding prefix lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _monomorphic(links[:mid], pattern_edges):
            hi = mid
        else:
            lo = mid
    return hi - 1 if hi <= len(links) else -1


def emergence_fractions(target: str | Graph, z: float, n_values, c_values, trials: int,
                        seed: int) -> np.ndarray:
    """Fraction of G(n, c n^-z) samples holding the target, one rebuilt graph
    per (trial, c) until the first hit."""
    fractions = np.zeros((len(n_values), len(c_values)))
    streams = np.random.SeedSequence(seed).spawn(len(n_values))
    for ni, n in enumerate(n_values):
        iu, ju = np.triu_indices(n, 1)
        hits = np.zeros(len(c_values))
        for ts in streams[ni].spawn(trials):
            u = np.random.default_rng(ts).random(len(iu))
            for ci, c in enumerate(c_values):
                keep = u < min(1.0, c * n ** (-z))
                sample = build_graph(n, [(int(a), int(b)) for a, b in zip(iu[keep], ju[keep])])
                if contains_subgraph(sample, target):
                    hits[ci:] += 1
                    break
        fractions[ni] = hits / trials
    return fractions
