"""Pure-Python reference implementations of the community kernels, kept as
oracles for the array versions in qnet.communities: the nested-loop
average-linkage agglomeration, which rescans every active pair per merge
(taking the largest linkage, then the first pair in row-major order within
1e-15 of it) and rescores every level from scratch, and the per-pair column
loop of the link-failure affinity.
"""
from __future__ import annotations

import heapq

import numpy as np

from qnet import ClosenessMatrix, Partition
from qnet.linalg import assert_hermitian
from qnet.walks import WalkSpec, long_time_average, uniform_superposition


def _labels_from_groups(n: int, groups: list[list[int]]) -> np.ndarray:
    labels = np.empty(n, dtype=int)
    for idx, members in enumerate(sorted(groups, key=min)):
        for m in members:
            labels[m] = idx
    return labels


def _partition_quality(c: np.ndarray, groups: list[list[int]]) -> float:
    total = c.sum()
    if total <= 0:
        return 0.0
    strength = c.sum(axis=1)
    q = 0.0
    for members in groups:
        idx = np.array(members)
        q += c[np.ix_(idx, idx)].sum() / total
        q -= (strength[idx].sum() / total) ** 2
    return float(q)


def agglomerate(closeness: ClosenessMatrix) -> Partition:
    c = closeness.matrix
    n = c.shape[0]
    if n == 0:
        raise ValueError("empty closeness matrix")
    if n == 1:
        return Partition(labels=np.zeros(1, dtype=int), communities=((0,),),
                         method=f"agglomerate-{closeness.measure}", quality=0.0,
                         merges=(), level_qualities=(0.0,), best_level=0)
    if c.sum() <= 0:
        return Partition(labels=np.zeros(n, dtype=int),
                         communities=(tuple(range(n)),),
                         method=f"agglomerate-{closeness.measure}",
                         quality=0.0, merges=(), level_qualities=(0.0,),
                         best_level=0, tie=True)
    link = c.astype(float).copy()
    sizes = {i: 1 for i in range(n)}
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    active = set(range(n))
    merges: list[tuple[int, int, float]] = []
    levels: list[list[list[int]]] = [[list(m) for m in members.values()]]
    qualities = [_partition_quality(c, levels[0])]
    tie = False
    next_id = n
    ids = {i: i for i in range(n)}  # position -> cluster id (scipy style)
    while len(active) > 1:
        # the documented rule: the largest linkage first, then the first pair
        # in row-major order within 1e-15 of it
        order = np.array(sorted(active))
        first, second = np.triu_indices(len(order), 1)    # active pairs, row-major
        vals = link[order[first], order[second]].tolist()
        top = max(vals)
        pick = next(k for k, v in enumerate(vals) if v >= top - 1e-15)
        a, b, best_val = int(order[first[pick]]), int(order[second[pick]]), vals[pick]
        # another pair within 1e-12: the largest other than the pick, which is
        # the runner-up when the pick is the largest and the largest otherwise
        if len(vals) > 1 and heapq.nlargest(2, vals)[1] >= best_val - 1e-12:
            tie = True
        merges.append((ids[a], ids[b], float(best_val)))
        # average-linkage update into slot a
        for x in active:
            if x in (a, b):
                continue
            link[a, x] = link[x, a] = (
                sizes[a] * link[a, x] + sizes[b] * link[b, x]
            ) / (sizes[a] + sizes[b])
        sizes[a] += sizes[b]
        members[a] = members[a] + members[b]
        ids[a] = next_id
        next_id += 1
        active.remove(b)
        del members[b], sizes[b]
        groups = [sorted(m) for m in members.values()]
        levels.append(groups)
        qualities.append(_partition_quality(c, groups))
    best_level = int(np.argmax(qualities))
    if sum(abs(q - qualities[best_level]) <= 1e-12 for q in qualities) > 1:
        tie = True
    groups = levels[best_level]
    labels = _labels_from_groups(n, groups)
    communities = tuple(tuple(g) for g in sorted(groups, key=min))
    return Partition(
        labels=labels,
        communities=communities,
        method=f"agglomerate-{closeness.measure}",
        quality=qualities[best_level],
        merges=tuple(merges),
        level_qualities=tuple(qualities),
        best_level=best_level,
        tie=tie,
    )


def closeness_link_failure(h: np.ndarray) -> np.ndarray:
    """The symmetrized affinity matrix."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    assert_hermitian(h)
    links = [(i, j) for i in range(n) for j in range(i + 1, n) if abs(h[i, j]) > 0]
    psi0 = uniform_superposition(n)

    def mean_occupations(op: np.ndarray) -> np.ndarray:
        return long_time_average(WalkSpec(op, psi0)).long_time

    base = mean_occupations(h)
    responses = np.zeros((n, len(links)))
    for k, (i, j) in enumerate(links):
        trimmed = h.copy()
        trimmed[i, j] = 0.0
        trimmed[j, i] = 0.0
        responses[:, k] = mean_occupations(trimmed) - base
    incident = [set(e) for e in links]
    c = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            cols = [k for k, pair in enumerate(incident) if u not in pair and v not in pair]
            if cols:
                d = np.linalg.norm(responses[u, cols] - responses[v, cols]) / np.sqrt(len(cols))
            else:
                d = 0.0
            c[u, v] = c[v, u] = 1.0 / (1.0 + d)
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 0.0)
    return c
