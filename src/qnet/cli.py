"""Command-line front end: load graphs, run any analysis, emit JSON or CSV.

Exit codes: 0 success, 1 bad flags or bad input data, 2 numerical failure,
3 I/O failure. Output is deterministic for a fixed seed and flag set.

Every payload is built from plain Python values where it is made, and every
float written goes through one formatter, the JSON encoder's repr: JSON is
json.dumps(payload, indent=2, sort_keys=True) byte for byte, and a CSV cell
is the same text, so it reads back as the same double. A walk formats each
probability once for both its JSON and its --matrix-out CSV. The only
non-finite value written is kl_bits "inf"; any other is refused, exit 1.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import toys
from .communities import (
    agglomerate,
    closeness_fidelity,
    closeness_link_failure,
    closeness_long_time_transport,
    closeness_short_time_transport,
    magnetic_partition,
)
from .entropy import (
    LayerStack,
    density_propagator,
    density_rescaled,
    js_divergence,
    kl_divergence,
    layer_cluster,
    vn_entropy,
)
from .errors import (
    ConvergenceError,
    DisconnectedGraphError,
    DistributionError,
    GraphFormatError,
    IntegrationInstabilityError,
    SymmetryError,
)
from .graphs import (
    Graph,
    adjacency_matrix,
    build_operators,
    google_matrix,
    load_edge_list,
)
from .percolation import (
    bond_percolation,
    bond_percolation_curve,
    cep_lattice,
    estimate_spanning_crossing,
    subgraph_emergence,
)
from .ranking import (
    adiabatic_rank,
    classical_pagerank,
    interpolated_rank,
    qsw_activity,
    szegedy_rank,
)
from .walks import WalkSpec, evolve, long_time_average


# start:stop:count grids are checked against this point count before they
# are allocated.
MAX_GRID_POINTS = 2**20


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map flags to 1
        raise UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan and inf are bad flags, exit 1."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _default_seed() -> int:
    raw = os.environ.get("QNET_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"QNET_SEED must be an integer, got {raw!r}")


# Cells per C-encoder call in _float_rows: big enough that the call overhead
# vanishes, small enough that one block's cell strings stay a few MB.
_BLOCK_CELLS = 2**15


class _Rows(list):
    """A row table: one comma-joined text of finite floats per JSON array row,
    as _float_rows makes it. _emit writes its rows without formatting a
    number again."""


def _dumps(x) -> str:
    return json.dumps(x, separators=(",", ":"))


def _float_rows(matrix) -> tuple[list[str], list[str]]:
    """The rows and the columns of a finite 2-D float matrix, each as one
    comma-joined string of the C JSON encoder's float text (repr). Every
    float is formatted once: one encoder call per block of rows, whose text
    is split into rows and transposed block by block. A matrix bitwise equal
    to its transpose formats each row from its diagonal on and takes the
    cells left of it from the columns of the rows above."""
    m = np.asarray(matrix, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("cannot write a matrix with non-finite entries")
    mirror = m.shape[0] == m.shape[1] and np.array_equal(m.view(np.uint64), m.T.view(np.uint64))
    rows: list[str] = []
    pieces: list[list[str]] = [[] for _ in range(m.shape[1])]  # column text of the rows done
    step = max(1, _BLOCK_CELLS // max(1, m.shape[1]))
    for start in range(0, m.shape[0], step):
        stop = min(start + step, m.shape[0])
        text = _dumps([m[i, i:].tolist() for i in range(start, stop)] if mirror
                      else m[start:stop].tolist())[2:-2].split("],[")
        cells = [row.split(",") for row in text]
        if mirror:  # pieces begins at column start; the block's own columns end here
            above, pieces = pieces[:len(cells)], pieces[len(cells):]
            text = [",".join([*above[k], *(cells[h][k - h] for h in range(k)), row])
                    for k, row in enumerate(text)]
            cells = [own[len(cells) - k:] for k, own in enumerate(cells)]
        rows += text
        for piece, column in zip(pieces, zip(*cells)):
            piece.append(",".join(column))
    return rows, rows if mirror else [",".join(piece) for piece in pieces]


def _text(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True) of a top-level payload value,
    indented two more spaces; ValueError if it holds a non-finite float. A
    scalar or a flat list is one call of the C encoder, whose item separator
    carries the line break and indent; an indent selects the Python encoder."""
    items = value if isinstance(value, (list, tuple)) else ()
    if isinstance(value, dict) or not {dict, list, tuple}.isdisjoint(map(type, items)):
        return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n  ")
    text = json.dumps(value, separators=(",\n    ", ": "), allow_nan=False)
    return f"[\n    {text[1:-1]}\n  ]" if items else text


def _chunks(rows: _Rows):
    """A top-level row table as json.dumps lays out its nested list, one row
    at a time. A row's float text is reused; only its separators gain the line
    break and indent."""
    sep = "[\n    ["
    for row in rows:
        yield sep + "\n      " + row.replace(",", ",\n      ") + "\n    ]"
        sep = ",\n    ["
    yield "\n  ]"


def _emit(payload: dict, output: str | None) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True) and a newline to
    output or stdout one top-level value at a time, and a row table one row
    at a time, so the whole document is never one string. Every other value is
    formatted before the output opens: a non-finite one leaves no output."""
    texts = {}
    for key, value in payload.items():
        try:
            texts[key] = value if isinstance(value, _Rows) else _text(value)
        except ValueError:
            raise ValueError(f"cannot write {key!r}: it holds a non-finite number") from None
    with open(output, "w") if output is not None else contextlib.nullcontext(sys.stdout) as fh:
        sep = "{\n  "
        for key, text in sorted(texts.items()):
            fh.write(f"{sep}{json.dumps(key)}: ")
            fh.writelines(_chunks(text) if isinstance(text, _Rows) else (text,))
            sep = ",\n  "
        fh.write("\n}\n")


def _write_matrix(path: str, rows: list[str]) -> None:
    """Write the rows of _float_rows as CSV, one matrix row a line."""
    with open(path, "w") as fh:
        fh.writelines(row + "\n" for row in rows)


def _load_graph(toy: str | None, path: str | None, directed: bool | None) -> Graph:
    if (toy is None) == (path is None):
        raise UsageError("provide exactly one of --toy or --input")
    if toy is not None:
        return toys.toy_graph(toy)
    with open(path) as fh:
        text = fh.read()
    g = load_edge_list(text, directed=directed)
    if g.n == 0:  # every analysis needs a node; the library parser admits n = 0
        raise GraphFormatError(f"{path}: edge list has no nodes")
    return g


def _graph_args(p: argparse.ArgumentParser, prefix: str = "") -> None:
    dash = f"--{prefix}" if prefix else "--"
    p.add_argument(f"{dash}input", metavar="FILE", help="edge-list file")
    p.add_argument(f"{dash}toy", metavar="NAME",
                   help=f"bundled toy graph ({', '.join(toys.toy_names())})")


def _parse_linspace(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{name} must look like start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"{name} must look like start:stop:count, got {text!r}")
    if count < 1:
        raise UsageError(f"{name} needs a positive count")
    if count > MAX_GRID_POINTS:
        raise UsageError(f"{name} count {count} exceeds the limit of {MAX_GRID_POINTS} points")
    if not math.isfinite(stop - start):  # an infinite or nan end, or a span past float range
        raise UsageError(f"{name} needs a finite start and stop, got {text!r}")
    return np.linspace(start, stop, count)


def _parse_grid(text: str, name: str) -> list[float]:
    if ":" in text:
        return [float(v) for v in _parse_linspace(text, name)]
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"{name} must be a comma list or start:stop:count")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{name} needs finite entries, got {text!r}")
    return values


def _hamiltonian(g: Graph, generator: str, symmetrize: bool) -> np.ndarray:
    if generator == "adjacency":
        a = adjacency_matrix(g)
        if g.directed:
            if not symmetrize:
                raise SymmetryError(
                    "directed graph: pass --symmetrize to walk on (A + A^H)/2"
                )
            a = 0.5 * (a + a.conj().T)
        return a
    policy = "error" if generator == "quantum-laplacian" else "exclude"
    bundle = build_operators(g, symmetrize=symmetrize, isolated_policy=policy)
    if generator == "laplacian":
        return bundle.laplacian
    return bundle.quantum_generator


# ---------------------------------------------------------------------------
# subcommands


def _cmd_walk(args) -> int:
    g = _load_graph(args.toy, args.input, args.directed)
    h = _hamiltonian(g, args.generator, args.symmetrize)
    if args.uniform:
        initial = np.full(h.shape[0], 1.0 / np.sqrt(h.shape[0]), dtype=complex)
        initial_tag = "uniform"
    else:
        if not 0 <= args.start < h.shape[0]:
            raise UsageError(f"--start {args.start} outside [0, {h.shape[0]})")
        initial = args.start
        initial_tag = args.start
    payload: dict = {
        "generator": args.generator,
        "initial": initial_tag,
        "nodes": h.shape[0],
    }
    if args.times is None:
        res = long_time_average(WalkSpec(generator=h, initial=initial))
    else:
        grid = _parse_linspace(args.times, "--times")
        res = evolve(WalkSpec(generator=h, initial=initial, times=grid))
        rows, columns = _float_rows(res.series)  # [time][node], [node][time]
        if args.matrix_out:
            _write_matrix(args.matrix_out, rows)
        payload["times"] = res.times.tolist()
        payload["probabilities"] = _Rows(columns)
        payload["variance"] = res.variance.tolist()
    payload["average"] = res.long_time.tolist()
    _emit(payload, args.output)
    return 0


def _cmd_rank(args) -> int:
    g = _load_graph(args.toy, args.input, args.directed)
    if args.variant in ("classical", "adiabatic", "szegedy"):
        gm = google_matrix(g, damping=args.damping)
        if args.variant == "classical":
            result = classical_pagerank(gm)
        elif args.variant == "adiabatic":
            result = adiabatic_rank(gm)
        else:
            result = szegedy_rank(gm, steps=args.steps)
    elif args.variant == "interpolated":
        if args.alpha is None:
            raise UsageError("--alpha is required for the interpolated variant")
        result = interpolated_rank(g, alpha=args.alpha, damping=args.damping,
                                   jump_form=args.jump)
    else:  # qsw
        result = qsw_activity(g, damping=args.damping, jump_form=args.jump)
    payload = result.as_dict()
    payload["damping"] = args.damping
    _emit(payload, args.output)
    return 0


def _density(g: Graph, kind: str, tau: float):
    if kind == "rescaled":
        return density_rescaled(g)
    return density_propagator(g, tau)


def _cmd_entropy(args) -> int:
    g = _load_graph(args.toy, args.input, args.directed)
    rho = _density(g, args.density, args.tau)
    _emit({"entropy_bits": vn_entropy(rho)}, args.output)
    return 0


def _cmd_compare(args) -> int:
    g = _load_graph(args.toy, args.input, args.directed)
    other = _load_graph(args.other_toy, args.other, args.directed)
    if g.n != other.n:
        raise UsageError(f"graphs differ in size: {g.n} vs {other.n}")
    rho = _density(g, args.density, args.tau)
    sigma = _density(other, args.density, args.tau)
    if args.measure == "js":
        divergence = js_divergence(rho, sigma)
        # js_distance is this root; calling it would decompose the mixture again
        payload = {"js_divergence_bits": divergence, "js_distance": math.sqrt(divergence)}
    else:
        kl = kl_divergence(rho, sigma)
        # +inf past the reference's support, which JSON can only hold as text
        payload = {"kl_bits": "inf" if kl == math.inf else kl}
    _emit(payload, args.output)
    return 0


def _cmd_communities(args) -> int:
    g = _load_graph(args.toy, args.input, args.directed)
    if args.method == "magnetic":
        if args.theta is None:
            raise UsageError("--theta is required for the magnetic method")
        part = magnetic_partition(g, theta=args.theta, k=args.k, seed=args.seed)
        _emit(part.as_dict(), args.output)
        return 0
    h = _hamiltonian(g, args.generator, args.symmetrize)
    if args.measure == "short-time":
        c = closeness_short_time_transport(h, t=args.t)
    elif args.measure == "long-time":
        c = closeness_long_time_transport(h, t=args.t)
    elif args.measure == "fidelity":
        c = closeness_fidelity(h, policy=args.policy)
    else:
        c = closeness_link_failure(h)
    if args.matrix_out:
        _write_matrix(args.matrix_out, _float_rows(c.matrix)[0])
    part = agglomerate(c)
    payload = part.as_dict()
    payload["measure"] = c.measure
    if c.time is not None:
        payload["time"] = c.time
    _emit(payload, args.output)
    return 0


def _parse_lattice(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise UsageError(f"--lattice must look like WxH, got {text!r}")
    try:
        w, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--lattice must look like WxH, got {text!r}")
    return w, h


def _write_trials(path: str, curve) -> None:
    """Per-trial records as CSV, with each grid point's p formatted once and
    every float in the JSON encoder's text."""
    with open(path, "w") as fh:
        fh.write("p,trial,spanning,largest_fraction\n")
        for stats in curve:
            p, *fractions = _dumps(
                [stats.p, *(rec.largest_fraction for rec in stats.records)])[1:-1].split(",")
            fh.writelines(f"{p},{idx},{int(rec.spanning)},{fraction}\n"
                          for idx, (rec, fraction) in enumerate(zip(stats.records, fractions)))


def _cmd_percolate(args) -> int:
    modes = [args.p is not None, args.scan is not None,
             args.link_p is not None, args.emergence is not None]
    if sum(modes) != 1:
        raise UsageError("pick exactly one of --p, --scan, --link-p, --emergence")
    if args.emergence is not None:
        n_values = _parse_grid(args.n_values, "--n-values")
        if not all(v.is_integer() for v in n_values):
            raise UsageError(f"--n-values needs whole node counts, got {args.n_values!r}")
        n_values = [int(v) for v in n_values]
        c_values = _parse_grid(args.c_values, "--c-values")
        res = subgraph_emergence(
            args.emergence, z=args.z, n_values=n_values, c_values=c_values,
            trials=args.trials, seed=args.seed,
        )
        _emit(res.as_dict(), args.output)
        return 0
    width, height = _parse_lattice(args.lattice)
    if args.p is not None:
        stats = bond_percolation(width, height, args.p, trials=args.trials, seed=args.seed)
        if args.trials_out:
            _write_trials(args.trials_out, [stats])
        _emit(stats.as_dict(), args.output)
        return 0
    if args.scan is not None:
        grid = _parse_grid(args.scan, "--scan")
        curve = bond_percolation_curve(width, height, grid, trials=args.trials,
                                       seed=args.seed)
        if args.trials_out:
            _write_trials(args.trials_out, curve)
        payload = {
            "points": [s.as_dict() for s in curve],
            "crossing": estimate_spanning_crossing(curve),
        }
        _emit(payload, args.output)
        return 0
    res = cep_lattice(width, height, args.link_p, trials=args.trials, seed=args.seed)
    if args.trials_out:
        _write_trials(args.trials_out, [res.stats])
    _emit(res.as_dict(), args.output)
    return 0


def _cmd_layers(args) -> int:
    if args.input is None or len(args.input) < 2:
        raise UsageError("layers needs --input FILE at least twice")
    graphs, labels = [], []
    for path in args.input:
        graphs.append(_load_graph(None, path, args.directed))
        base = os.path.basename(path)
        labels.append(base.rsplit(".", 1)[0] if "." in base else base)
    stack = LayerStack(layers=tuple(graphs), labels=tuple(labels))
    clustering = layer_cluster(stack, tau=args.tau)
    if args.matrix_out:
        _write_matrix(args.matrix_out, _float_rows(clustering.distance_matrix)[0])
    payload = {
        "labels": list(clustering.labels),
        "merges": [
            {"a": a, "b": b, "distance": d} for a, b, d in clustering.merges
        ],
        "order": list(clustering.order),
        "tau": args.tau,
    }
    _emit(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", metavar="FILE", help="write JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: QNET_SEED env var, else 0)")
        p.add_argument("--directed", action="store_true", default=None,
                       help="treat the edge list as directed")

    walk = sub.add_parser("walk", help="continuous-time walk occupations")
    _graph_args(walk)
    common(walk)
    walk.add_argument("--generator", choices=["adjacency", "laplacian", "quantum-laplacian"],
                      default="adjacency")
    walk.add_argument("--symmetrize", action="store_true",
                      help="symmetrize a directed graph before building generators")
    walk.add_argument("--start", type=int, default=0, help="start node (default 0)")
    walk.add_argument("--uniform", action="store_true",
                      help="start from the uniform superposition instead of a node")
    walk.add_argument("--times", metavar="T0:T1:COUNT",
                      help="evaluate the occupation series on this grid")
    walk.add_argument("--matrix-out", metavar="FILE",
                      help="write the (time x node) series as CSV")

    rank = sub.add_parser("rank", help="node rankings")
    _graph_args(rank)
    common(rank)
    rank.add_argument("--variant",
                      choices=["classical", "adiabatic", "szegedy", "interpolated", "qsw"],
                      default="classical")
    rank.add_argument("--damping", type=_finite_float, default=0.85)
    rank.add_argument("--alpha", type=_finite_float, default=None,
                      help="dissipative weight in (0, 1] (interpolated variant)")
    rank.add_argument("--steps", type=int, default=512, help="szegedy walk steps")
    rank.add_argument("--jump", choices=["transport", "dephasing"], default="transport")

    entropy = sub.add_parser("entropy", help="Von Neumann entropy of a graph state")
    _graph_args(entropy)
    common(entropy)
    entropy.add_argument("--density", choices=["rescaled", "propagator"], default="rescaled")
    entropy.add_argument("--tau", type=_finite_float, default=1.0,
                         help="propagator time (propagator density only)")

    compare = sub.add_parser("compare", help="divergences between two graph states")
    _graph_args(compare)
    compare.add_argument("--other", metavar="FILE", help="second edge-list file")
    compare.add_argument("--other-toy", metavar="NAME", help="second bundled toy graph")
    common(compare)
    compare.add_argument("--measure", choices=["js", "kl"], default="js")
    compare.add_argument("--density", choices=["rescaled", "propagator"], default="propagator")
    compare.add_argument("--tau", type=_finite_float, default=1.0)

    comm = sub.add_parser("communities", help="closeness matrices and partitions")
    _graph_args(comm)
    common(comm)
    comm.add_argument("--method", choices=["agglomerate", "magnetic"], default="agglomerate")
    comm.add_argument("--measure",
                      choices=["short-time", "long-time", "fidelity", "link-failure"],
                      default="long-time")
    comm.add_argument("--generator",
                      choices=["adjacency", "laplacian", "quantum-laplacian"],
                      default="adjacency")
    comm.add_argument("--symmetrize", action="store_true")
    comm.add_argument("--t", type=_finite_float, default=None,
                      help="transport horizon (default: measure-specific)")
    comm.add_argument("--policy", choices=["superposition", "mixed"], default="superposition",
                      help="pair initial state for the fidelity measure")
    comm.add_argument("--theta", type=_finite_float, default=None,
                      help="direction phase in (0, pi) (magnetic method)")
    comm.add_argument("--k", type=int, default=2, help="community count (magnetic method)")
    comm.add_argument("--matrix-out", metavar="FILE", help="write the closeness matrix as CSV")

    perc = sub.add_parser("percolate", help="bond percolation and subgraph emergence")
    common(perc)
    perc.add_argument("--lattice", default="64x64", metavar="WxH")
    perc.add_argument("--p", type=_finite_float, default=None, help="bond probability")
    perc.add_argument("--scan", metavar="GRID",
                      help="bond-probability grid (comma list or start:stop:count)")
    perc.add_argument("--link-p", type=_finite_float, default=None,
                      help="link-state parameter p; percolate at its conversion probability")
    perc.add_argument("--emergence", metavar="TARGET",
                      help="subgraph-emergence mode (edge, path3, triangle, square, clique4, clique5)")
    perc.add_argument("--z", type=_finite_float, default=1.0, help="density exponent, p = c N^-z")
    perc.add_argument("--n-values", default="64,128,256", metavar="LIST")
    perc.add_argument("--c-values", default="0.5,3.0", metavar="LIST")
    perc.add_argument("--trials", type=int, default=100)
    perc.add_argument("--trials-out", metavar="FILE", help="write per-trial records as CSV")

    layers = sub.add_parser("layers", help="cluster graph layers by state distance")
    layers.add_argument("--input", metavar="FILE", action="append",
                        help="edge-list file, repeat once per layer")
    common(layers)
    layers.add_argument("--tau", type=_finite_float, default=1.0)
    layers.add_argument("--matrix-out", metavar="FILE",
                        help="write the pairwise distance matrix as CSV")

    return parser


_DISPATCH = {
    "walk": _cmd_walk,
    "rank": _cmd_rank,
    "entropy": _cmd_entropy,
    "compare": _cmd_compare,
    "communities": _cmd_communities,
    "percolate": _cmd_percolate,
    "layers": _cmd_layers,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call of main and reused: parsing
    leaves no state on it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "seed", None) is None:
            args.seed = _default_seed()
        return _DISPATCH[args.command](args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (np.linalg.LinAlgError, IntegrationInstabilityError, ConvergenceError,
            DistributionError) as exc:
        print(f"qnet: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, GraphFormatError, SymmetryError,
            DisconnectedGraphError, ValueError) as exc:
        print(f"qnet: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qnet: i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
