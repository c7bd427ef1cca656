"""Graph type, the edge-list format, and the operator bundle (adjacency,
Laplacians, google matrix).

The edge list (load_edge_list, to_edge_list) is the one text format of a
graph. Conventions:
  * A graph stores its edges as four columns: src, dst, weight, phase.
    Graph.edges, the same edges as Edge tuples, is built from them on first use.
  * Adjacency rows are sources: A[u, v] = w for a directed edge u -> v.
  * A phase theta on an undirected edge (u, v) enters as A[u, v] = w e^{i theta},
    A[v, u] = w e^{-i theta}, keeping A Hermitian.
  * The stochastic generator uses the column convention (columns sum to zero),
    so probability column vectors evolve as dp/dt = -L_S p.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import re
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted graph; phases model directional complex couplings."""

    n: int
    src: np.ndarray      # (m,) intp, read-only like every column
    dst: np.ndarray      # (m,) intp
    weight: np.ndarray   # (m,) float, finite and >= 0
    phase: np.ndarray    # (m,) float, finite
    directed: bool = False

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(Edge, self.src.tolist(), self.dst.tolist(),
                         self.weight.tolist(), self.phase.tolist()))

    def has_phases(self) -> bool:
        return np.count_nonzero(self.phase) > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.directed) == (other.n, other.directed) and all(
            map(np.array_equal, (self.src, self.dst, self.weight, self.phase),
                (other.src, other.dst, other.weight, other.phase)))

    def __hash__(self) -> int:
        return hash((self.n, self.directed, self.edges))


def _first_failure(masks) -> tuple[int, int] | None:
    """(row, check): the first row that fails any of the boolean masks, and
    the first mask it fails; None when every row passes."""
    bad = functools.reduce(np.logical_or, masks).nonzero()[0]
    if not len(bad):
        return None
    return int(bad[0]), next(c for c, mask in enumerate(masks) if mask[bad[0]])


def _edge_masks(n: int, src, dst, weight, phase, directed: bool) -> tuple[np.ndarray, ...]:
    """The per-edge checks as boolean masks, in the order of _EDGE_ERRORS."""
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    key = src * n + dst if directed else lo * n + hi
    order = key.argsort(kind="stable")
    repeat = np.zeros(len(key), dtype=bool)
    # equal keys sit together in input order; each after the first repeats it
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    return (~((lo >= 0) & (hi < n)), lo == hi,
            ~(np.isfinite(weight) & np.isfinite(phase)), weight < 0.0, repeat)


_EDGE_ERRORS = ("edge ({0}, {1}) outside node range [0, {3})",
                "self-loop on node {0} (not enabled)",
                "non-finite weight or phase on edge ({0}, {1})",
                "negative weight {2} on edge ({0}, {1})",
                "duplicate edge ({0}, {1})")


def _check_node_count(n: int) -> None:
    if n < 0:
        raise GraphFormatError(f"node count must be >= 0, got {n}")
    if n > MAX_NODES:
        raise GraphFormatError(f"node count {n} exceeds the limit of {MAX_NODES} nodes")


def _graph(n: int, src, dst, weight, phase, directed: bool, rows=None) -> Graph:
    """Validate edge columns, sequences of Python numbers, and freeze them.
    An error names the first offending edge, with its values from rows when
    given, and the first check it fails."""
    _check_node_count(n)
    # Whole-column tests that every valid edge set passes, each defined once
    # those before it hold; a sum can also overflow, so a failure is settled
    # by the per-edge masks.
    if not (min(src, default=0) >= 0 and min(dst, default=0) >= 0
            and max(src, default=-1) < n and max(dst, default=-1) < n
            and math.isfinite(sum(src) + sum(dst) + sum(weight) + sum(phase))
            and min(weight, default=0.0) >= 0
            and not any(map(operator.eq, src, dst))
            and len(pairs := set(zip(src, dst))) == len(src)
            and (directed or pairs.isdisjoint(zip(dst, src)))):
        failure = _first_failure(_edge_masks(
            n, np.asarray(src), np.asarray(dst), np.asarray(weight, dtype=float),
            np.asarray(phase, dtype=float), directed))
        if failure is not None:
            k, check = failure
            u, v, w = rows[k][:3] if rows is not None else (src[k], dst[k], weight[k])
            raise GraphFormatError(_EDGE_ERRORS[check].format(u, v, w, n))
    columns = (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
               np.array(weight, dtype=float), np.array(phase, dtype=float))
    for column in columns:
        column.setflags(write=False)
    return Graph(int(n), *columns, directed=bool(directed))


def build_graph(n: int, edges: Iterable[tuple], directed: bool = False) -> Graph:
    """Validate and freeze a graph: ids in range, no self-loops, finite
    weights >= 0 and phases, no duplicates."""
    rows = list(itertools.starmap(Edge, edges))
    return _graph(n, *(list(zip(*rows)) or [()] * 4), directed=directed, rows=rows)


# ---------------------------------------------------------------------------
# parsing and serialization

_FIELD_COUNTS = {2, 3, 4}
_DEFAULT_FIELDS = ["1.0", "0.0"]   # the weight and phase a short line omits
# from '#' to the end of its line, as str.splitlines ends lines
_COMMENT = re.compile(r"#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")


def _convert(fn, tokens: list[str]) -> list:
    """fn over tokens, up to the first token that fn rejects."""
    out: list = []
    try:
        out.extend(map(fn, tokens))   # keeps what was converted before a failure
    except ValueError:
        pass
    return out


def load_edge_list(text: str, directed: bool | None = None) -> Graph:
    """Parse 'src dst [weight] [phase]' lines.

    '#' starts a comment. Directive lines 'nodes N' and 'directed' may appear
    before the first edge; a 'nodes' directive overrides the max-id-plus-one
    default. A bare two-column line means unit weight and zero phase; a phase
    needs an explicit weight column first.

    Each line is split once, and each column of fields is converted by int or
    float and checked as a whole. An error names the first offending line
    and the first check it fails: directive after edges, field count, number
    syntax, negative id, non-finite weight or phase, negative weight.
    """
    split = list(map(str.split, _COMMENT.sub("", text).splitlines()))
    header_nodes: int | None = None
    header_directed = False
    first = len(split)
    for ln, tokens in enumerate(split, start=1):
        key = tokens[0].lower() if tokens else ""
        if key == "nodes":
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
        elif key == "directed":
            header_directed = True
        elif tokens:
            first = ln - 1
            break
    rows = list(filter(None, split[first:]))
    fields, widths = rows, set(map(len, rows))
    if not widths <= _FIELD_COUNTS:
        fields = rows[:next(k for k, r in enumerate(rows) if len(r) not in _FIELD_COUNTS)]
        widths = set(map(len, fields))
    width = max(widths, default=2)
    if len(widths) > 1:
        fields = [r + _DEFAULT_FIELDS[len(r) - 2:width - 2] for r in fields]
    flat = list(itertools.chain.from_iterable(fields))
    columns = [_convert(int, flat[0::width]), _convert(int, flat[1::width]),
               _convert(float, flat[2::width]) if width > 2 else [1.0] * len(fields),
               _convert(float, flat[3::width]) if width > 3 else [0.0] * len(fields)]
    # the rows before the first one with a field that int or float rejects
    parsed = min(map(len, columns))
    us, vs, ws, ps = (column[:parsed] for column in columns)
    max_id = max(max(us, default=-1), max(vs, default=-1))
    failure = None
    if not (min(us, default=0) >= 0 and min(vs, default=0) >= 0
            and math.isfinite(sum(ws) + sum(ps)) and min(ws, default=0.0) >= 0):
        # with n = max_id + 1 only a negative id is out of range; object
        # columns keep ids of any size exact
        masks = _edge_masks(max_id + 1, np.array(us, dtype=object), np.array(vs, dtype=object),
                            np.array(ws), np.array(ps), True)
        failure = _first_failure((masks[0], masks[2], masks[3]))
    bad = parsed if failure is None else failure[0]
    if bad < len(rows):
        ln = first + 1 + int(np.flatnonzero(list(map(len, split[first:])))[bad])
        key = rows[bad][0].lower()
        if failure is not None:
            msg = ("negative node id", "non-finite weight or phase",
                   f"negative weight {ws[bad]}")[failure[1]]
        elif key in ("nodes", "directed"):
            msg = f"'{key}' directive after edges"
        elif len(rows[bad]) not in _FIELD_COUNTS:
            msg = f"expected 'src dst [weight] [phase]', got {len(rows[bad])} fields"
        else:
            msg = f"malformed edge {text.splitlines()[ln - 1].split('#', 1)[0].strip()!r}"
        raise GraphFormatError(f"line {ln}: {msg}")
    n = header_nodes if header_nodes is not None else max_id + 1
    if header_nodes is not None and header_nodes < max_id + 1:
        raise GraphFormatError(
            f"node id {max_id} outside declared node count {header_nodes}"
        )
    is_directed = directed if directed is not None else header_directed
    return _graph(n, us, vs, ws, ps, is_directed)


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


# ---------------------------------------------------------------------------
# dense operators


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense adjacency; complex dtype only when some edge carries a phase.

    One scatter-add: an undirected edge also adds its conjugate at (dst, src).
    """
    amp = g.weight * np.exp(1j * g.phase) if g.has_phases() else g.weight
    rows, cols, vals = g.src, g.dst, amp
    if not g.directed:
        rows, cols = np.concatenate((g.src, g.dst)), np.concatenate((g.dst, g.src))
        vals = np.concatenate((amp, amp.conj()))
    a = np.zeros((g.n, g.n), dtype=amp.dtype)
    np.add.at(a, (rows, cols), vals)
    return a


@dataclass(frozen=True)
class OperatorBundle:
    """Adjacency, strengths, and the three derived generators of one graph.
    Each generator is an n x n matrix built on its first read, so a caller
    pays only for the ones it reads."""

    adjacency: np.ndarray
    strength: np.ndarray             # (n,) row sums of |A|
    isolated: tuple[int, ...]        # nodes excluded from the D^-1 generators

    @functools.cached_property
    def laplacian(self) -> np.ndarray:
        """diag(strength) - A."""
        return np.diag(self.strength) - self.adjacency

    @functools.cached_property
    def stochastic_generator(self) -> np.ndarray:
        """Lap @ D^-1, columns sum to zero."""
        with np.errstate(divide="ignore"):
            inv = np.where(self.strength > 0, 1.0 / self.strength, 0.0)
        return self.laplacian * inv[np.newaxis, :]

    @functools.cached_property
    def quantum_generator(self) -> np.ndarray:
        """D^-1/2 Lap D^-1/2, Hermitian."""
        with np.errstate(divide="ignore"):
            inv_sqrt = np.where(self.strength > 0, 1.0 / np.sqrt(self.strength), 0.0)
        return self.laplacian * np.outer(inv_sqrt, inv_sqrt)


def build_operators(
    g: Graph,
    symmetrize: bool = False,
    isolated_policy: str = "exclude",
) -> OperatorBundle:
    """Build the operator bundle of an undirected (or explicitly symmetrized) graph.

    Directed input without symmetrize=True raises SymmetryError. Isolated
    nodes are excluded from the D^-1 generators under the default policy and
    raise DisconnectedGraphError under isolated_policy="error", here rather
    than at a generator's first read.
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
    return OperatorBundle(adjacency=a, strength=strength, isolated=isolated)


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
