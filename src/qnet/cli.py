"""Command-line front end: load graphs, run any analysis, emit JSON or CSV.

Exit codes: 0 success, 1 bad flags or bad input data, 2 numerical failure,
3 I/O failure; an input too large for the memory at hand (MemoryError) is bad
input, exit 1. Output is deterministic for a fixed seed and flag set. Each
subcommand builds its payload here, from the fields of the library's result,
and main writes it; no other module knows the JSON layout. Only communities
--method magnetic and percolate draw random numbers, so only they read --seed
or QNET_SEED. A flag that the chosen mode never reads is refused, exit 1,
before the graph is loaded.

Every payload is built from plain Python values where it is made, and every
float is written as its repr text: JSON is json.dumps(payload, indent=2,
sort_keys=True) byte for byte, and a CSV cell is the same text, so it reads
back as the same double. Float arrays (matrices, walk series, trial records)
are formatted by one formatter, _float_text, which takes orjson's shortest
digits in repr's layout; scalars and short lists go through the JSON encoder.
A matrix is formatted a block of rows at a time, and each block's CSV rows
are written as soon as it is formatted. The only non-finite value written is
kl_bits "inf"; any other is refused, exit 1.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from typing import Iterator

import numpy as np
import orjson

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
    graph_entropy,
    js_divergence,
    kl_divergence,
    layer_cluster,
)
from .errors import (
    ConvergenceError,
    DisconnectedGraphError,
    DistributionError,
    GraphFormatError,
    IntegrationInstabilityError,
    SymmetryError,
)
from .graphs import Graph, build_operators, google_matrix, load_edge_list
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
from .walks import WalkSpec, evolve, long_time_average, uniform_superposition


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


def _seed(args) -> int:
    """--seed, else QNET_SEED, else 0; read only by a run that draws random numbers."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("QNET_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"QNET_SEED must be an integer, got {raw!r}")


# Cells per orjson call in _float_blocks: big enough that the call overhead
# vanishes, small enough that one block's text stays well under a MB, which
# bounds what a CSV writer holds beyond its output.
_BLOCK_CELLS = 2**13
_NUMPY = orjson.OPT_SERIALIZE_NUMPY


class _Rows(list):
    """A row table: each JSON array row as the comma-joined float text of its
    cells, as _series_columns makes it. _emit writes its rows without
    formatting a number again."""


def _float_text(block) -> str:
    """json.dumps(block.tolist(), separators=(",", ":")) of a finite float
    array, from one orjson call; ValueError for a non-finite entry. orjson
    writes the same shortest round-trip digits as repr, and in the same
    layout for 0 and 1e-4 <= |x| < 1e16; outside that range (0.000032, 1e16
    where repr writes 3.2e-05, 1e+16) a cell is written as null and replaced
    by its repr."""
    a = np.ascontiguousarray(block, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("cannot write a non-finite number")
    size = np.abs(a)
    odd = ((size < 1e-4) & (a != 0.0)) | (size >= 1e16)
    if not odd.any():
        return orjson.dumps(a, option=_NUMPY).decode()
    cells = map(repr, a[odd].tolist())
    parts = orjson.dumps(np.where(odd, np.nan, a), option=_NUMPY).decode().split("null")
    return "".join(part + cell for part, cell in zip(parts, cells)) + parts[-1]


def _float_blocks(matrix) -> Iterator[list[str]]:
    """The rows of a finite 2-D float matrix, one block of rows at a time, each
    row as one comma-joined string of repr text. A non-finite entry raises
    ValueError here, before the first block."""
    m = np.asarray(matrix, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("cannot write a matrix with non-finite entries")
    step = max(1, _BLOCK_CELLS // max(1, m.shape[1]))
    return (_float_text(m[start:start + step])[2:-2].split("],[")
            for start in range(0, m.shape[0], step))


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


def _write_matrix(path: str, matrix) -> None:
    """Write a finite 2-D float matrix as CSV, one row a line, each block of
    rows as soon as _float_blocks formats it. A non-finite matrix is refused
    before the file is created."""
    blocks = _float_blocks(matrix)
    with open(path, "w") as fh:
        for rows in blocks:
            fh.writelines(row + "\n" for row in rows)


def _series_columns(series, path: str | None) -> _Rows:
    """The columns of a finite 2-D float matrix as a row table; with a path,
    its rows are first written there as CSV by _write_matrix."""
    if path:
        _write_matrix(path, series)
    return _Rows(row for rows in _float_blocks(np.asarray(series).T) for row in rows)


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
    if g.directed and not symmetrize:
        raise SymmetryError("directed graph: pass --symmetrize to use (A + A^H)/2")
    policy = "error" if generator == "quantum-laplacian" else "exclude"
    bundle = build_operators(g, symmetrize=symmetrize, isolated_policy=policy)
    return {"adjacency": bundle.adjacency, "laplacian": bundle.laplacian,
            "quantum-laplacian": bundle.quantum_generator}[generator]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_walk(args) -> dict:
    if args.matrix_out and args.times is None:
        raise UsageError("--matrix-out needs --times: the long-time average has no series")
    g = _load_graph(args.toy, args.input, args.directed)
    h = _hamiltonian(g, args.generator, args.symmetrize)
    if args.uniform:
        initial, initial_tag = uniform_superposition(h.shape[0]), "uniform"
    else:
        initial = initial_tag = args.start or 0
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
        payload["times"] = res.times.tolist()
        # [node][time] for the JSON; --matrix-out gets the [time][node] rows
        payload["probabilities"] = _series_columns(res.series, args.matrix_out)
        payload["variance"] = res.variance.tolist()
    payload["average"] = res.long_time.tolist()
    return payload


def _cmd_rank(args) -> dict:
    if args.alpha is not None and args.variant != "interpolated":
        raise UsageError("--alpha needs --variant interpolated")
    if args.steps is not None and args.variant != "szegedy":
        raise UsageError("--steps needs --variant szegedy")
    if args.jump is not None and args.variant not in ("interpolated", "qsw"):
        raise UsageError("--jump needs --variant interpolated or qsw")
    jump = args.jump or "transport"
    g = _load_graph(args.toy, args.input, args.directed)
    if args.variant in ("classical", "adiabatic", "szegedy"):
        gm = google_matrix(g, damping=args.damping)
        if args.variant == "classical":
            result = classical_pagerank(gm)
        elif args.variant == "adiabatic":
            result = adiabatic_rank(gm)
        else:
            result = szegedy_rank(gm, steps=512 if args.steps is None else args.steps)
    elif args.variant == "interpolated":
        if args.alpha is None:
            raise UsageError("--alpha is required for the interpolated variant")
        result = interpolated_rank(g, alpha=args.alpha, damping=args.damping,
                                   jump_form=jump)
    else:  # qsw
        result = qsw_activity(g, damping=args.damping, jump_form=jump)
    payload = {"damping": args.damping, "scores": result.scores.tolist(),
               "variant": result.variant}
    for key in ("variance", "ground_eigenvalue", "alpha", "converged", "iterations",
                "degenerate"):
        value = getattr(result, key)
        if value is not None:
            payload[key] = np.asarray(value).tolist()
    return payload


def _tau(args) -> float:
    """--tau, which only the propagator density reads; 1.0 when not given."""
    if args.tau is not None and args.density != "propagator":
        raise UsageError("--tau needs --density propagator")
    return 1.0 if args.tau is None else args.tau


def _density(g: Graph, kind: str, tau: float):
    if kind == "rescaled":
        return density_rescaled(g)
    return density_propagator(g, tau)


def _cmd_entropy(args) -> dict:
    tau = _tau(args)
    g = _load_graph(args.toy, args.input, args.directed)
    return {"entropy_bits": graph_entropy(g, args.density, tau)}


def _cmd_compare(args) -> dict:
    tau = _tau(args)
    g = _load_graph(args.toy, args.input, args.directed)
    other = _load_graph(args.other_toy, args.other, args.directed)
    if g.n != other.n:
        raise UsageError(f"graphs differ in size: {g.n} vs {other.n}")
    rho = _density(g, args.density, tau)
    sigma = _density(other, args.density, tau)
    if args.measure == "js":
        divergence = js_divergence(rho, sigma)
        # js_distance is this root; calling it would decompose the mixture again
        return {"js_divergence_bits": divergence, "js_distance": math.sqrt(divergence)}
    kl = kl_divergence(rho, sigma)
    # +inf past the reference's support, which JSON can only hold as text
    return {"kl_bits": "inf" if kl == math.inf else kl}


def _partition_keys(part) -> dict:
    """The payload keys of every partition, agglomerative or magnetic."""
    return {"communities": [list(c) for c in part.communities], "method": part.method,
            "tie": part.tie}


def _cmd_communities(args) -> dict:
    magnetic = args.method == "magnetic"
    measure = args.measure or "long-time"
    if magnetic and args.matrix_out:
        raise UsageError("--matrix-out needs --method agglomerate: "
                         "the magnetic method builds no closeness matrix")
    if not magnetic and args.theta is not None:
        raise UsageError("--theta needs --method magnetic")
    if args.t is not None and (magnetic or measure not in ("short-time", "long-time")):
        raise UsageError("--t needs --method agglomerate with --measure short-time or long-time")
    if args.policy is not None and (magnetic or measure != "fidelity"):
        raise UsageError("--policy needs --method agglomerate with --measure fidelity")
    if args.k is not None and not magnetic:
        raise UsageError("--k needs --method magnetic")
    if magnetic:
        for flag, value in (("--measure", args.measure), ("--generator", args.generator),
                            ("--symmetrize", args.symmetrize)):
            if value is not None:
                raise UsageError(f"{flag} needs --method agglomerate")
    g = _load_graph(args.toy, args.input, args.directed)
    if magnetic:
        if args.theta is None:
            raise UsageError("--theta is required for the magnetic method")
        k = 2 if args.k is None else args.k
        return _partition_keys(magnetic_partition(g, theta=args.theta, k=k, seed=_seed(args)))
    h = _hamiltonian(g, args.generator or "adjacency", bool(args.symmetrize))
    if measure == "short-time":
        c = closeness_short_time_transport(h, t=args.t)
    elif measure == "long-time":
        c = closeness_long_time_transport(h, t=args.t)
    elif measure == "fidelity":
        c = closeness_fidelity(h, policy=args.policy or "superposition")
    else:
        c = closeness_link_failure(h)
    if args.matrix_out:
        _write_matrix(args.matrix_out, c.matrix)
    part = agglomerate(c)
    payload = _partition_keys(part)
    payload["measure"] = c.measure
    payload["quality"] = part.quality
    payload["merges"] = [{"a": a, "b": b, "closeness": v} for a, b, v in part.merges]
    if c.time is not None:
        payload["time"] = c.time
    return payload


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
    every float in repr text."""
    with open(path, "w") as fh:
        fh.write("p,trial,spanning,largest_fraction\n")
        for stats in curve:
            p, *fractions = _float_text(
                [stats.p, *(rec.largest_fraction for rec in stats.records)])[1:-1].split(",")
            fh.writelines(f"{p},{idx},{int(rec.spanning)},{fraction}\n"
                          for idx, (rec, fraction) in enumerate(zip(stats.records, fractions)))


def _stats_keys(stats) -> dict:
    """The payload keys of one bond probability's lattice statistics."""
    return {"ci": stats.spanning_ci, "largest_fraction_mean": stats.largest_fraction_mean,
            "p": stats.p, "spanning_prob": stats.spanning_prob}


def _cmd_percolate(args) -> dict:
    if args.emergence is not None and args.trials_out:
        raise UsageError("--trials-out needs a lattice mode: --emergence keeps no per-trial records")
    if args.emergence is not None and args.lattice is not None:
        raise UsageError("--lattice needs a lattice mode: --p, --scan or --link-p")
    if args.emergence is None:
        for flag, value in (("--z", args.z), ("--n-values", args.n_values),
                            ("--c-values", args.c_values)):
            if value is not None:
                raise UsageError(f"{flag} needs --emergence")
    seed = _seed(args)
    if args.emergence is not None:
        text = "64,128,256" if args.n_values is None else args.n_values
        n_values = _parse_grid(text, "--n-values")
        if not all(v.is_integer() for v in n_values):
            raise UsageError(f"--n-values needs whole node counts, got {text!r}")
        n_values = [int(v) for v in n_values]
        c_values = _parse_grid("0.5,3.0" if args.c_values is None else args.c_values,
                               "--c-values")
        res = subgraph_emergence(args.emergence, z=1.0 if args.z is None else args.z,
                                 n_values=n_values, c_values=c_values, trials=args.trials,
                                 seed=seed)
        return {"c_values": list(res.c_values), "fractions": res.fractions.tolist(),
                "n_values": list(res.n_values), "regime": res.regime,
                "sharpness": res.sharpness.tolist(), "target": res.target, "z": res.z,
                "z_critical": res.z_critical}
    width, height = _parse_lattice("64x64" if args.lattice is None else args.lattice)
    if args.p is not None:
        stats = bond_percolation(width, height, args.p, trials=args.trials, seed=seed)
        if args.trials_out:
            _write_trials(args.trials_out, [stats])
        return _stats_keys(stats)
    if args.scan is not None:
        grid = _parse_grid(args.scan, "--scan")
        curve = bond_percolation_curve(width, height, grid, trials=args.trials, seed=seed)
        if args.trials_out:
            _write_trials(args.trials_out, curve)
        return {
            "points": [_stats_keys(s) for s in curve],
            "crossing": estimate_spanning_crossing(curve),
        }
    res = cep_lattice(width, height, args.link_p, trials=args.trials, seed=seed)
    if args.trials_out:
        _write_trials(args.trials_out, [res.stats])
    return {**_stats_keys(res.stats), "conversion_probability": res.conversion_probability,
            "link_p": res.link_p, "percolates": res.percolates}


def _cmd_layers(args) -> dict:
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
        _write_matrix(args.matrix_out, clustering.distance_matrix)
    return {
        "labels": list(clustering.labels),
        "merges": [
            {"a": a, "b": b, "distance": d} for a, b, d in clustering.merges
        ],
        "order": list(clustering.order),
        "tau": args.tau,
    }


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, edges=True, seed=False):
        """--output; --directed where an edge list is read; --seed where numbers are drawn."""
        p.add_argument("--output", metavar="FILE", help="write JSON here instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed (default: QNET_SEED env var, else 0)")
        if edges:
            p.add_argument("--directed", action="store_true", default=None,
                           help="treat the edge list as directed")

    walk = sub.add_parser("walk", help="continuous-time walk occupations")
    _graph_args(walk)
    common(walk)
    walk.add_argument("--generator", choices=["adjacency", "laplacian", "quantum-laplacian"],
                      default="adjacency")
    walk.add_argument("--symmetrize", action="store_true",
                      help="symmetrize a directed graph before building generators")
    start = walk.add_mutually_exclusive_group()
    start.add_argument("--start", type=int, help="start node (default 0)")
    start.add_argument("--uniform", action="store_true",
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
    rank.add_argument("--steps", type=int, default=None,
                      help="walk steps (szegedy variant, default 512)")
    rank.add_argument("--jump", choices=["transport", "dephasing"], default=None,
                      help="jump form (interpolated and qsw variants, default transport)")

    entropy = sub.add_parser("entropy", help="Von Neumann entropy of a graph state")
    _graph_args(entropy)
    common(entropy)
    entropy.add_argument("--density", choices=["rescaled", "propagator"], default="rescaled")
    entropy.add_argument("--tau", type=_finite_float, default=None,
                         help="propagator time (propagator density only, default 1.0)")

    compare = sub.add_parser("compare", help="divergences between two graph states")
    _graph_args(compare)
    compare.add_argument("--other", metavar="FILE", help="second edge-list file")
    compare.add_argument("--other-toy", metavar="NAME", help="second bundled toy graph")
    common(compare)
    compare.add_argument("--measure", choices=["js", "kl"], default="js")
    compare.add_argument("--density", choices=["rescaled", "propagator"], default="propagator")
    compare.add_argument("--tau", type=_finite_float, default=None,
                         help="propagator time (propagator density only, default 1.0)")

    comm = sub.add_parser("communities", help="closeness matrices and partitions")
    _graph_args(comm)
    common(comm, seed=True)
    comm.add_argument("--method", choices=["agglomerate", "magnetic"], default="agglomerate")
    comm.add_argument("--measure",
                      choices=["short-time", "long-time", "fidelity", "link-failure"],
                      default=None, help="closeness (agglomerate method, default long-time)")
    comm.add_argument("--generator",
                      choices=["adjacency", "laplacian", "quantum-laplacian"],
                      default=None, help="Hamiltonian (agglomerate method, default adjacency)")
    comm.add_argument("--symmetrize", action="store_true", default=None,
                      help="symmetrize a directed graph (agglomerate method)")
    comm.add_argument("--t", type=_finite_float, default=None,
                      help="transport horizon (default: measure-specific)")
    comm.add_argument("--policy", choices=["superposition", "mixed"], default=None,
                      help="pair initial state (fidelity measure, default superposition)")
    comm.add_argument("--theta", type=_finite_float, default=None,
                      help="direction phase in (0, pi) (magnetic method)")
    comm.add_argument("--k", type=int, default=None,
                      help="community count (magnetic method, default 2)")
    comm.add_argument("--matrix-out", metavar="FILE", help="write the closeness matrix as CSV")

    perc = sub.add_parser("percolate", help="bond percolation and subgraph emergence")
    common(perc, edges=False, seed=True)
    perc.add_argument("--lattice", default=None, metavar="WxH",
                      help="lattice size (lattice modes, default 64x64)")
    mode = perc.add_mutually_exclusive_group(required=True)
    mode.add_argument("--p", type=_finite_float, help="bond probability")
    mode.add_argument("--scan", metavar="GRID",
                      help="bond-probability grid (comma list or start:stop:count)")
    mode.add_argument("--link-p", type=_finite_float,
                      help="link-state parameter p; percolate at its conversion probability")
    mode.add_argument("--emergence", metavar="TARGET",
                      help="subgraph-emergence mode (edge, path3, triangle, square, clique4, clique5)")
    perc.add_argument("--z", type=_finite_float, default=None,
                      help="density exponent, p = c N^-z (emergence, default 1.0)")
    perc.add_argument("--n-values", default=None, metavar="LIST",
                      help="graph sizes (emergence, default 64,128,256)")
    perc.add_argument("--c-values", default=None, metavar="LIST",
                      help="density prefactors (emergence, default 0.5,3.0)")
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
    """Run one command line. Each distinct warning the run raised, as the
    warning filters admit it, goes to stderr as one 'qnet: warning:' line,
    ahead of the error line of a failed run."""
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = _parser().parse_args(argv)
            if (getattr(args, "directed", None) and args.input is None
                    and getattr(args, "other", None) is None):
                raise UsageError("--directed needs an edge-list file: a toy graph's "
                                 "direction is fixed")
            _emit(_DISPATCH[args.command](args), args.output)
            rc = 0
        # LinAlgError subclasses ValueError, so it must be caught first
        except (np.linalg.LinAlgError, IntegrationInstabilityError, ConvergenceError,
                DistributionError) as exc:
            rc, error = 2, f"numerical failure: {exc}"
        except (UsageError, GraphFormatError, SymmetryError,
                DisconnectedGraphError, ValueError) as exc:
            rc, error = 1, f"error: {exc}"
        except OSError as exc:
            rc, error = 3, f"i/o failure: {exc}"
        except MemoryError as exc:  # an input too large for the memory at hand
            rc, error = 1, (f"error: out of memory: {exc}" if str(exc) else "error: out of memory")
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"qnet: warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"qnet: {error}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
