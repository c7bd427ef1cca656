"""Entanglement links, quantum random graphs, subgraph emergence, and
bond percolation on lattices.

Monte Carlo conventions: every trial draws from its own seeded substream, and
sweeps over a probability grid reuse each trial's uniforms (common random
numbers), which makes per-trial outcomes exactly monotone in p.

Both Monte Carlo loops run on array kernels:

- Lattice runs draw each copy of the lattice, one per (trial, p), as a
  refined bond image: sites on the even/even pixels, always on; each bond on
  the pixel between its two sites, on when its u < p. Whole trials' copies,
  or a chunk of one trial's copies, stack into one 3-d image up to a site
  budget, and one compiled ``scipy.ndimage.label`` call with in-plane
  neighbours labels them (the Hoshen-Kopelman problem). A copy spans when a
  label of its left column is also a label of its right column; cluster
  sizes come from ``np.bincount`` on the site labels, and the size
  histogram is keyed by (p, size) over every call.
- Subgraph emergence draws a trial's uniforms once and keeps the pairs with
  u below the largest p as index arrays. It computes the trial's
  first-appearance threshold directly: links enter in increasing-u order
  until one completes a copy of the target, and every p above that link's
  u contains the target. A copy that first appears at a link uses it, so
  each insertion searches only the copies through the new link, by
  backtracking over neighbour sets from each of the target's link orbits.
"""
from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .graphs import Graph, _check_node_count, _graph

# Lattices are checked against this site count before anything is allocated;
# a 2048 x 2048 lattice is the largest square one.
MAX_LATTICE_SITES = 2**22
# Subgraph emergence draws n(n-1)/2 uniforms per trial; the largest n is
# checked against this pair count before anything is allocated.
MAX_EMERGENCE_PAIRS = 2**22
# Lattice copies labelled in one ndimage.label call hold at most this many
# sites together (always at least one copy), which bounds the images of a call.
_BATCH_SITES = 2**16
# Label structure of stacked lattice images: the four in-plane neighbours, so
# that no cluster crosses from one copy to the next.
_IN_PLANE = np.zeros((3, 3, 3), dtype=bool)
_IN_PLANE[1] = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]


@dataclass(frozen=True)
class QubitState:
    """Two-amplitude pure state; amplitudes must be normalized."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > DEFAULT_TOLS.qubit_norm_atol:
            raise ValueError(f"amplitudes are not normalized: |a|^2+|b|^2 = {norm!r}")

    @property
    def probabilities(self) -> tuple[float, float]:
        return abs(self.alpha) ** 2, abs(self.beta) ** 2


@dataclass(frozen=True)
class LinkState:
    """Partially entangled pair state parameterized by p in [0, 1]:
    amplitudes (sqrt(2-p), sqrt(p))/sqrt(2) on the |00>, |11> components."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    @property
    def amplitudes(self) -> tuple[float, float]:
        return (np.sqrt((2.0 - self.p) / 2.0), np.sqrt(self.p / 2.0))

    @property
    def schmidt_coefficients(self) -> tuple[float, float]:
        return ((2.0 - self.p) / 2.0, self.p / 2.0)


def singlet_conversion_probability(link: LinkState) -> float:
    """Optimal probability of converting the link into a maximally entangled
    pair: twice the smaller Schmidt coefficient, which is exactly p."""
    return 2.0 * min(link.schmidt_coefficients)


def _conversion_p(link: LinkState | float) -> float:
    if isinstance(link, LinkState):
        return singlet_conversion_probability(link)
    link = float(link)
    if not 0.0 <= link <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {link}")
    return link


def sample_quantum_random_graph(
    n: int,
    link: LinkState | float,
    seed: int | np.random.Generator = 0,
) -> Graph:
    """Measure a network of identical partial links: every pair keeps its edge
    with the link's conversion probability, yielding a classical G(n, p)."""
    p = _conversion_p(link)
    _check_node_count(n)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < p
    m = int(keep.sum())
    return _graph(n, iu[keep].tolist(), ju[keep].tolist(), [1.0] * m, [0.0] * m,
                  directed=False)


# ---------------------------------------------------------------------------
# small-subgraph emergence


_NAMED_TARGETS: dict[str, tuple[int, list[tuple[int, int]]]] = {
    "edge": (2, [(0, 1)]),
    "path3": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "square": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "clique4": (4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    "clique5": (5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
}


class _Plan(NamedTuple):
    """Search for the copies of a target that map one ordered target link
    (x, y) onto a host link (a, b). steps[i] lists the mapped neighbours of
    the node that step i maps, as positions in mapping order (x, y, then the
    nodes of earlier steps)."""

    deg_x: int          # a needs at least this many host neighbours
    deg_y: int          # and b this many
    common: bool        # the first step needs a common neighbour of a and b
    steps: tuple[tuple[int, ...], ...]


class _Target(NamedTuple):
    n: int
    edges: list[tuple[int, int]]
    plans: tuple[_Plan, ...]


@functools.lru_cache(maxsize=None)  # keys: link sets on at most 5 nodes
def _search_plans(links: frozenset[tuple[int, int]]) -> tuple[_Plan, ...]:
    """Plans for the target links given as (low, high) node pairs, one per
    automorphism orbit of the ordered links: two ordered links that an
    automorphism relates find the same copies. Each plan maps the remaining
    nodes with the most already-mapped neighbours first. Nodes with no link
    play no part, and a target with a self-loop gets no plan, because the
    host has no self-loops."""
    if any(a == b for a, b in links):
        return ()
    nodes = sorted({v for link in links for v in link})
    nbrs = {v: {w for link in links if v in link for w in link if w != v} for v in nodes}
    autos = []
    for perm in itertools.permutations(nodes):
        m = dict(zip(nodes, perm))
        if all((min(m[a], m[b]), max(m[a], m[b])) in links for a, b in links):
            autos.append(m)
    seen: set[tuple[int, int]] = set()
    plans = []
    for x, y in sorted(links | {(b, a) for a, b in links}):
        if (x, y) in seen:
            continue
        seen.update((m[x], m[y]) for m in autos)
        order, steps = [x, y], []
        while len(order) < len(nodes):
            v = max((w for w in nodes if w not in order),
                    key=lambda w: (len(nbrs[w] & set(order)), len(nbrs[w]), -w))
            steps.append(tuple(i for i, w in enumerate(order) if w in nbrs[v]))
            order.append(v)
        plans.append(_Plan(len(nbrs[x]), len(nbrs[y]), steps[:1] == [(0, 1)], tuple(steps)))
    return tuple(plans)


def _target(target: str | Graph) -> _Target:
    """Node count, links and search plans of a named or explicit target,
    validated."""
    if isinstance(target, Graph):
        n, edges = target.n, list(zip(target.src.tolist(), target.dst.tolist()))
    else:
        try:
            n, edges = _NAMED_TARGETS[target]
        except KeyError:
            raise ValueError(
                f"unknown target {target!r}; named targets: {sorted(_NAMED_TARGETS)}"
            ) from None
    if n > 5:
        raise ValueError(f"exact search is capped at 5 target nodes, got {n}")
    if not edges:
        raise ValueError("target graph needs at least one link")
    return _Target(n, edges, _search_plans(frozenset((min(a, b), max(a, b)) for a, b in edges)))


def _extend(steps: tuple[tuple[int, ...], ...], images: list[int],
            nbrs: dict[int, set[int]]) -> bool:
    """Whether the partial map images (host nodes of the target nodes in
    mapping order) extends over the remaining steps of a plan. A node's image
    lies in the neighbour sets of its mapped neighbours' images, or, with no
    mapped neighbour (a disconnected target), is any host node with a link:
    nbrs holds those nodes and only those. The host is loopless, so the
    candidates never include the images of mapped neighbours, and only the
    other images need excluding."""
    if not steps:
        return True
    adj = steps[0]
    if adj:
        cand = nbrs[images[adj[0]]]
        for i in adj[1:]:
            cand = cand & nbrs[images[i]]
    else:
        cand = nbrs.keys()
    if not cand:
        return False
    if len(steps) == 1:
        # more candidates than excluded images, or one that is none of them
        return len(cand) > len(images) - len(adj) or any(c not in images for c in cand)
    for c in cand:
        if c not in images:
            images.append(c)
            if _extend(steps[1:], images, nbrs):
                return True
            images.pop()
    return False


def _first_link(tg: _Target, src: np.ndarray, dst: np.ndarray) -> int:
    """Position of the first link, inserting the loopless links
    (src[k], dst[k]) in the given order, that completes a (non-induced) copy
    of the target; -1 when all of them hold none. A copy that first appears
    at link (a, b) uses that link, so each insertion searches only the
    copies through it. The degree and common-neighbour tests are necessary
    conditions that skip most searches."""
    all_common = all(plan.common for plan in tg.plans)
    nbrs: defaultdict[int, set[int]] = defaultdict(set)
    for k, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
        na, nb = nbrs[a], nbrs[b]
        na.add(b)
        nb.add(a)
        if all_common and na.isdisjoint(nb):
            continue
        for deg_x, deg_y, common, steps in tg.plans:
            if (len(na) >= deg_x and len(nb) >= deg_y and not (common and na.isdisjoint(nb))
                    and _extend(steps, [a, b], nbrs)):
                return k
    return -1


def contains_subgraph(g: Graph, target: str | Graph) -> bool:
    """Exact (non-induced) containment check for targets of up to 5 nodes;
    self-loops of the host are ignored."""
    tg = _target(target)
    link = g.src != g.dst
    return _first_link(tg, g.src[link], g.dst[link]) >= 0


def _first_containing(tg: _Target, u: np.ndarray, iu: np.ndarray, ju: np.ndarray,
                      ps: np.ndarray) -> int:
    """Index of the first p in the ascending grid ps at which the links
    {(iu[k], ju[k]) : u[k] < p} contain the target; len(ps) if none does.
    The target is present at p exactly when p exceeds the u of the link
    that completes the first copy as links enter in increasing-u order."""
    cand = np.flatnonzero(u < ps[-1])
    cand = cand[np.argsort(u[cand], kind="stable")]
    k = _first_link(tg, iu[cand], ju[cand])
    return len(ps) if k < 0 else int(np.searchsorted(ps, u[cand[k]], side="right"))


@dataclass(frozen=True)
class EmergenceResult:
    target: str
    target_nodes: int
    target_links: int
    z: float
    z_critical: float            # nodes/links of the target
    regime: str                  # supercritical | critical | subcritical
    n_values: tuple[int, ...]
    c_values: tuple[float, ...]
    fractions: np.ndarray        # (len(n_values), len(c_values))
    sharpness: np.ndarray        # per size: fraction at c_max minus at c_min

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "z": self.z,
            "z_critical": self.z_critical,
            "regime": self.regime,
            "n_values": list(self.n_values),
            "c_values": [float(c) for c in self.c_values],
            "fractions": [[float(x) for x in row] for row in self.fractions],
            "sharpness": [float(x) for x in self.sharpness],
        }


def subgraph_emergence(
    target: str | Graph,
    z: float,
    n_values: Sequence[int],
    c_values: Sequence[float],
    trials: int = 200,
    seed: int = 0,
) -> EmergenceResult:
    """Fraction of G(n, c n^-z) samples containing the target subgraph.

    Within a trial the same uniforms serve every c (common random numbers),
    so each row of fractions is non-decreasing in c by construction.
    """
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not len(n_values):
        raise ValueError("n_values must not be empty")
    if any(n < 1 for n in n_values):
        raise ValueError(f"every n must be >= 1, got {list(n_values)}")
    n_max = int(max(n_values))
    pairs = n_max * (n_max - 1) // 2
    if pairs > MAX_EMERGENCE_PAIRS:
        raise ValueError(f"n = {n_max} has {pairs} node pairs, over the limit of "
                         f"{MAX_EMERGENCE_PAIRS} pairs per trial")
    tg = _target(target)
    name = target if isinstance(target, str) else f"custom-{tg.n}n-{len(tg.edges)}l"
    c_sorted = sorted(float(c) for c in c_values)
    if not c_sorted:
        raise ValueError("c_values must not be empty")
    if not all(0.0 <= c < np.inf for c in c_sorted):
        raise ValueError(f"c_values must be finite and >= 0, got {list(c_values)}")
    if c_sorted != [float(c) for c in c_values]:
        raise ValueError("c_values must be ascending")
    z_crit = tg.n / len(tg.edges)
    if abs(z - z_crit) < DEFAULT_TOLS.critical_ratio_atol:
        regime = "critical"
    elif z < z_crit:
        regime = "supercritical"
    else:
        regime = "subcritical"
    fractions = np.zeros((len(n_values), len(c_values)))
    root = np.random.SeedSequence(seed)
    streams = root.spawn(len(n_values))
    for ni, n in enumerate(n_values):
        iu, ju = np.triu_indices(n, 1)
        ps = np.array([min(1.0, c * n ** (-z)) for c in c_values])
        hits = np.zeros(len(c_values))
        for ts in streams[ni].spawn(trials):
            u = np.random.default_rng(ts).random(len(iu))
            hits[_first_containing(tg, u, iu, ju, ps):] += 1  # CRN: monotone in c
        fractions[ni] = hits / trials
    sharpness = fractions[:, -1] - fractions[:, 0]
    return EmergenceResult(
        target=name,
        target_nodes=tg.n,
        target_links=len(tg.edges),
        z=float(z),
        z_critical=float(z_crit),
        regime=regime,
        n_values=tuple(int(n) for n in n_values),
        c_values=tuple(float(c) for c in c_values),
        fractions=fractions,
        sharpness=sharpness,
    )


# ---------------------------------------------------------------------------
# lattice bond percolation


@dataclass(frozen=True)
class TrialRecord:
    spanning: bool
    largest_fraction: float


@dataclass(frozen=True)
class ClusterStats:
    p: float
    width: int
    height: int
    trials: int
    spanning_prob: float
    spanning_ci: float           # 95% normal-approximation half width
    largest_fraction_mean: float
    histogram: dict[int, int]    # cluster size -> count, aggregated over trials
    records: tuple[TrialRecord, ...]

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "spanning_prob": self.spanning_prob,
            "largest_fraction_mean": self.largest_fraction_mean,
            "ci": self.spanning_ci,
        }


def _label_lattices(uh: np.ndarray, uv: np.ndarray, ps: np.ndarray):
    """Clusters of the bond configurations {u < p} of every trial of the
    uniforms uh, uv (shapes (trials, height, width - 1) and
    (trials, height - 1, width)) at every p in ps, labelled by one
    ``ndimage.label`` call on the stacked refined bond images, copy
    trial * len(ps) + p index. Returns per copy: spanning (bool) and the
    largest cluster size; and per cluster: its p index and its size."""
    from scipy import ndimage

    trials, height, width = len(uh), uv.shape[1] + 1, uh.shape[2] + 1
    copies = trials * len(ps)
    image = np.empty((trials, len(ps), 2 * height - 1, 2 * width - 1), dtype=bool)
    image[..., ::2, ::2] = True
    image[..., 1::2, 1::2] = False
    cut = ps[:, np.newaxis, np.newaxis]
    np.less(uh[:, np.newaxis], cut, out=image[..., ::2, 1::2])
    np.less(uv[:, np.newaxis], cut, out=image[..., 1::2, ::2])
    labels, count = ndimage.label(image.reshape(copies, 2 * height - 1, 2 * width - 1),
                                  _IN_PLANE)
    sites = labels[:, ::2, ::2]
    on_left = np.zeros(count + 1, dtype=bool)
    on_left[sites[:, :, 0]] = True
    spanning = on_left[sites[:, :, -1]].any(axis=1)
    # every cluster holds a site and lies in one copy
    copy_of = np.empty(count + 1, dtype=np.intp)
    copy_of[sites] = np.arange(copies)[:, np.newaxis, np.newaxis]
    copy_of, sizes = copy_of[1:], np.bincount(sites.ravel(), minlength=count + 1)[1:]
    largest = np.zeros(copies, dtype=np.intp)
    np.maximum.at(largest, copy_of, sizes)
    return spanning, largest, copy_of % len(ps), sizes


def bond_percolation_curve(
    width: int,
    height: int,
    p_values: Sequence[float],
    trials: int = 100,
    seed: int = 0,
) -> list[ClusterStats]:
    """Bond percolation at each p with common random numbers across the grid."""
    if width < 2 or height < 1:
        raise ValueError("lattice needs width >= 2 and height >= 1")
    if width * height > MAX_LATTICE_SITES:
        raise ValueError(f"lattice of {width * height} sites exceeds the limit of "
                         f"{MAX_LATTICE_SITES} sites")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ps = [float(p) for p in p_values]
    if not ps:
        raise ValueError("p_values must not be empty")
    if any(not 0.0 <= p <= 1.0 for p in ps):
        raise ValueError("bond probabilities must lie in [0, 1]")
    n = width * height
    grid = np.array(ps)
    # a call holds whole trials, or a chunk of one trial's copies
    per_call = max(1, _BATCH_SITES // n)
    trial_step, p_step = (per_call // len(ps), len(ps)) if per_call >= len(ps) else (1, per_call)
    spans = np.zeros((len(ps), trials), dtype=bool)
    largest = np.zeros((len(ps), trials), dtype=np.intp)
    hist_keys, hist_counts = [], []
    streams = np.random.SeedSequence(seed).spawn(trials)
    for t0 in range(0, trials, trial_step):
        t1 = min(t0 + trial_step, trials)
        uh = np.empty((t1 - t0, height, width - 1))
        uv = np.empty((t1 - t0, height - 1, width))
        for k, ts in enumerate(streams[t0:t1]):
            rng = np.random.default_rng(ts)
            rng.random(out=uh[k])
            rng.random(out=uv[k])
        for lo in range(0, len(ps), p_step):
            hi = min(lo + p_step, len(ps))
            span, big, pidx, sizes = _label_lattices(uh, uv, grid[lo:hi])
            spans[lo:hi, t0:t1] = span.reshape(t1 - t0, hi - lo).T
            largest[lo:hi, t0:t1] = big.reshape(t1 - t0, hi - lo).T
            key, count = np.unique((pidx + lo) * (n + 1) + sizes, return_counts=True)
            hist_keys.append(key)
            hist_counts.append(count)
    # the size histogram of every p, summed over the calls
    keys, inverse = np.unique(np.concatenate(hist_keys), return_inverse=True)
    totals = np.zeros(len(keys), dtype=np.intp)
    np.add.at(totals, inverse, np.concatenate(hist_counts))
    hist_p, hist_size = np.divmod(keys, n + 1)
    bounds = np.searchsorted(hist_p, np.arange(len(ps) + 1)).tolist()

    out = []
    for pi, p in enumerate(ps):
        fractions = [size / n for size in largest[pi].tolist()]
        prob = float(spans[pi].mean())
        ci = 1.96 * float(np.sqrt(prob * (1.0 - prob) / trials))
        lo, hi = bounds[pi], bounds[pi + 1]
        out.append(ClusterStats(
            p=p, width=width, height=height, trials=trials,
            spanning_prob=prob,
            spanning_ci=ci,
            largest_fraction_mean=float(np.mean(fractions)),
            histogram=dict(zip(hist_size[lo:hi].tolist(), totals[lo:hi].tolist())),
            records=tuple(TrialRecord(s, f)
                          for s, f in zip(spans[pi].tolist(), fractions)),
        ))
    return out


def bond_percolation(
    width: int,
    height: int,
    p: float,
    trials: int = 100,
    seed: int = 0,
) -> ClusterStats:
    """Left-right spanning statistics of one bond probability."""
    return bond_percolation_curve(width, height, [p], trials, seed)[0]


def estimate_spanning_crossing(curve: Sequence[ClusterStats]) -> float | None:
    """Linear interpolation of where spanning probability crosses one half."""
    pts = sorted((s.p, s.spanning_prob) for s in curve)
    for (p0, q0), (p1, q1) in zip(pts, pts[1:]):
        if q0 <= 0.5 <= q1 and q1 > q0:
            return float(p0 + (0.5 - q0) * (p1 - p0) / (q1 - q0))
        if q0 == 0.5:
            return float(p0)
    if pts and pts[-1][1] == 0.5:
        return float(pts[-1][0])
    return None


@dataclass(frozen=True)
class CepResult:
    link_p: float
    conversion_probability: float
    stats: ClusterStats
    percolates: bool

    def as_dict(self) -> dict:
        out = self.stats.as_dict()
        out.update({
            "link_p": self.link_p,
            "conversion_probability": self.conversion_probability,
            "percolates": self.percolates,
        })
        return out


def cep_lattice(
    width: int,
    height: int,
    link: LinkState | float,
    trials: int = 100,
    seed: int = 0,
) -> CepResult:
    """Convert every lattice link with the optimal singlet probability, then
    report whether that entanglement level spans the lattice classically."""
    link_obj = link if isinstance(link, LinkState) else LinkState(float(link))
    scp = singlet_conversion_probability(link_obj)
    stats = bond_percolation(width, height, scp, trials, seed)
    return CepResult(
        link_p=link_obj.p,
        conversion_probability=scp,
        stats=stats,
        percolates=stats.spanning_prob >= 0.5,
    )
