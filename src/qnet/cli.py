"""Command-line front end: load graphs, run any analysis, emit JSON or CSV.

Exit codes: 0 success, 1 bad flags or bad input data, 2 numerical failure,
3 I/O failure. Output is deterministic for a fixed seed and flag set.
"""
from __future__ import annotations

import argparse
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
    js_distance,
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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map flags to 1
        raise UsageError(message)


def _default_seed() -> int:
    raw = os.environ.get("QNET_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"QNET_SEED must be an integer, got {raw!r}")


def _plain(x):
    """Recursively convert a payload to plain JSON types; non-finite floats
    become strings so the output stays strict JSON."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        if x.dtype.kind in "biu" or (x.dtype.kind == "f" and np.isfinite(x).all()):
            return x.tolist()  # already plain bools, ints and finite floats
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return x


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _write_matrix(path: str, matrix: np.ndarray) -> None:
    np.savetxt(path, np.asarray(matrix), delimiter=",", fmt="%.17g")


def _load_graph(toy: str | None, path: str | None, directed: bool | None) -> Graph:
    if (toy is None) == (path is None):
        raise UsageError("provide exactly one of --toy or --input")
    if toy is not None:
        return toys.toy_graph(toy)
    with open(path) as fh:
        text = fh.read()
    return load_edge_list(text, directed=directed)


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
    return np.linspace(start, stop, count)


def _parse_grid(text: str, name: str) -> list[float]:
    if ":" in text:
        return [float(v) for v in _parse_linspace(text, name)]
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"{name} must be a comma list or start:stop:count")


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
        payload["times"] = res.times
        payload["probabilities"] = res.series.T  # [node][time]
        payload["variance"] = res.variance
        if args.matrix_out:
            _write_matrix(args.matrix_out, res.series)
    payload["average"] = res.long_time
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
        payload = {
            "js_divergence_bits": js_divergence(rho, sigma),
            "js_distance": js_distance(rho, sigma),
        }
    else:
        payload = {"kl_bits": kl_divergence(rho, sigma)}
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
        _write_matrix(args.matrix_out, c.matrix)
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
    lines = ["p,trial,spanning,largest_fraction"]
    for stats in curve:
        for idx, rec in enumerate(stats.records):
            lines.append(
                f"{stats.p:.17g},{idx},{int(rec.spanning)},{rec.largest_fraction:.17g}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_percolate(args) -> int:
    modes = [args.p is not None, args.scan is not None,
             args.link_p is not None, args.emergence is not None]
    if sum(modes) != 1:
        raise UsageError("pick exactly one of --p, --scan, --link-p, --emergence")
    if args.emergence is not None:
        n_values = [int(v) for v in _parse_grid(args.n_values, "--n-values")]
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
        with open(path) as fh:
            graphs.append(load_edge_list(fh.read(), directed=args.directed))
        base = os.path.basename(path)
        labels.append(base.rsplit(".", 1)[0] if "." in base else base)
    stack = LayerStack(layers=tuple(graphs), labels=tuple(labels))
    clustering = layer_cluster(stack, tau=args.tau)
    if args.matrix_out:
        _write_matrix(args.matrix_out, clustering.distance_matrix)
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
    rank.add_argument("--damping", type=float, default=0.85)
    rank.add_argument("--alpha", type=float, default=None,
                      help="dissipative weight in (0, 1] (interpolated variant)")
    rank.add_argument("--steps", type=int, default=512, help="szegedy walk steps")
    rank.add_argument("--jump", choices=["transport", "dephasing"], default="transport")

    entropy = sub.add_parser("entropy", help="Von Neumann entropy of a graph state")
    _graph_args(entropy)
    common(entropy)
    entropy.add_argument("--density", choices=["rescaled", "propagator"], default="rescaled")
    entropy.add_argument("--tau", type=float, default=1.0,
                         help="propagator time (propagator density only)")

    compare = sub.add_parser("compare", help="divergences between two graph states")
    _graph_args(compare)
    compare.add_argument("--other", metavar="FILE", help="second edge-list file")
    compare.add_argument("--other-toy", metavar="NAME", help="second bundled toy graph")
    common(compare)
    compare.add_argument("--measure", choices=["js", "kl"], default="js")
    compare.add_argument("--density", choices=["rescaled", "propagator"], default="propagator")
    compare.add_argument("--tau", type=float, default=1.0)

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
    comm.add_argument("--t", type=float, default=None,
                      help="transport horizon (default: measure-specific)")
    comm.add_argument("--policy", choices=["superposition", "mixed"], default="superposition",
                      help="pair initial state for the fidelity measure")
    comm.add_argument("--theta", type=float, default=None,
                      help="direction phase in (0, pi) (magnetic method)")
    comm.add_argument("--k", type=int, default=2, help="community count (magnetic method)")
    comm.add_argument("--matrix-out", metavar="FILE", help="write the closeness matrix as CSV")

    perc = sub.add_parser("percolate", help="bond percolation and subgraph emergence")
    common(perc)
    perc.add_argument("--lattice", default="64x64", metavar="WxH")
    perc.add_argument("--p", type=float, default=None, help="bond probability")
    perc.add_argument("--scan", metavar="GRID",
                      help="bond-probability grid (comma list or start:stop:count)")
    perc.add_argument("--link-p", type=float, default=None,
                      help="link-state parameter p; percolate at its conversion probability")
    perc.add_argument("--emergence", metavar="TARGET",
                      help="subgraph-emergence mode (edge, path3, triangle, square, clique4, clique5)")
    perc.add_argument("--z", type=float, default=1.0, help="density exponent, p = c N^-z")
    perc.add_argument("--n-values", default="64,128,256", metavar="LIST")
    perc.add_argument("--c-values", default="0.5,3.0", metavar="LIST")
    perc.add_argument("--trials", type=int, default=100)
    perc.add_argument("--trials-out", metavar="FILE", help="write per-trial records as CSV")

    layers = sub.add_parser("layers", help="cluster graph layers by state distance")
    layers.add_argument("--input", metavar="FILE", action="append",
                        help="edge-list file, repeat once per layer")
    common(layers)
    layers.add_argument("--tau", type=float, default=1.0)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
