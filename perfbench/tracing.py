"""Per-layer tracing of qnet from outside the program.

Every public function of every qnet module is wrapped, and every
module-level binding of it in any qnet module is rebound to the wrapper, so
calls made through names imported across modules (``from .linalg import
hermitian_eig``) are seen too. Each wrapper records a span: its duration, the
part covered by child spans, and whether an exception left it. A span's self
time is its duration minus its children's; the wrapper's own bookkeeping is
timed separately and reported as tracing time, so self times stay clean.

Spans are folded into per-function totals as they close; a handful of
derived counters read arguments or results at chosen boundaries.
"""
from __future__ import annotations

import hashlib
import inspect
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("graphs", "linalg", "walks", "ranking", "entropy", "communities",
          "percolation", "toys", "cli")
MODULES = ("qnet", "qnet.config", "qnet.errors") + tuple(f"qnet.{m}" for m in LAYERS)


class FnStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span recorder for one traced pass; install() wraps, uninstall() restores."""

    def __init__(self):
        self.stats: dict[str, FnStats] = defaultdict(FnStats)
        self.layer_errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []     # [layer, child_time] per open span
        self.own = 0.0                  # bookkeeping time spent in wrappers
        self._op_hashes: set[bytes] = set()
        self._emergence_depth = 0
        self._bindings: list[tuple[object, str, object]] = []

    # -- lifecycle -------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"qnet.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(layer, name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "qnet" and not modname.startswith("qnet."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._bindings.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])

    def uninstall(self) -> None:
        for mod, name, original in self._bindings:
            setattr(mod, name, original)
        self._bindings.clear()

    def begin_operation(self) -> None:
        """Spans of one CLI operation share one scope for repeat detection."""
        self._op_hashes.clear()

    # -- spans -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        observe = getattr(self, f"_observe_{layer}_{name}", None)
        signature = inspect.signature(fn)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            entered = clock()
            stack = tracer.stack
            stack.append([layer, 0.0])
            if key == "percolation.subgraph_emergence":
                tracer._emergence_depth += 1
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                frame = stack.pop()
                st = tracer.stats[key]
                st.calls += 1
                st.total += end - start
                st.self_time += end - start - frame[1]
                if failed and (not stack or stack[-1][0] != layer):
                    tracer.layer_errors[layer] += 1
                if key == "percolation.subgraph_emergence":
                    tracer._emergence_depth -= 1
                if key == "graphs.build_graph" and tracer._emergence_depth:
                    tracer.counters["emergence_graphs"] += 1
                if observe is not None and not failed:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(bound.arguments, result)
                exited = clock()
                tracer.own += (exited - entered) - (end - start)
                if stack:
                    stack[-1][1] += exited - entered

        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived counters ------------------------------------------------

    def _observe_linalg_hermitian_eig(self, args, result) -> None:
        m = np.asarray(args["m"])
        n = m.shape[0]
        groups = len(result.projectors)
        c = self.counters
        c["eig_max_n"] = max(c["eig_max_n"], n)
        c["eig_groups"] += groups
        # computed, not measured: one dense complex n x n projector per group
        c["projector_bytes"] = max(c["projector_bytes"], groups * n * n * 16)
        digest = hashlib.blake2b(np.ascontiguousarray(m, dtype=complex).tobytes(),
                                 digest_size=16).digest()
        if digest in self._op_hashes:
            c["eig_repeat_calls"] += 1
        self._op_hashes.add(digest)

    def _observe_ranking_classical_pagerank(self, args, result) -> None:
        self.counters["pagerank_iterations"] += result.iterations or 0

    def _steady_state_steps(self, args, result) -> None:
        dt = args["dt"]
        if dt is None:
            # the library's documented default: 0.01 / max(max|H|, 1) with
            # H = (|A| + |A|^T) / 2
            g = args["g"]
            a = np.zeros((g.n, g.n))
            for e in g.edges:
                a[e.src, e.dst] += abs(e.weight)
                if not g.directed:
                    a[e.dst, e.src] += abs(e.weight)
            dt = 0.01 / max(float((0.5 * (a + a.T)).max(initial=0.0)), 1.0)
        horizon = result.convergence_time if result.converged else args["t_final"]
        self.counters["steady_state_steps"] += round(horizon / dt)

    _observe_ranking_interpolated_rank = _steady_state_steps
    _observe_ranking_qsw_activity = _steady_state_steps

    def _observe_percolation_bond_percolation_curve(self, args, result) -> None:
        self.counters["lattice_runs"] += args["trials"] * len(args["p_values"])

    def _observe_percolation_subgraph_emergence(self, args, result) -> None:
        self.counters["emergence_trials"] += args["trials"] * len(args["n_values"])

    # -- report ----------------------------------------------------------

    def fn(self, key: str) -> FnStats:
        return self.stats.get(key, FnStats())

    def layer_self(self, layer: str) -> float:
        return sum(st.self_time for k, st in self.stats.items()
                   if k.split(".", 1)[0] == layer)

    def summary(self, wall: float, op_time: float) -> dict[str, float]:
        """Per-layer figures of one traced pass that took `wall` seconds, of
        which `op_time` inside qnet.cli.main as timed by the caller."""
        c = self.counters
        out: dict[str, float] = {}
        for key in ("graphs.load_edge_list", "graphs.build_graph",
                    "graphs.build_operators", "graphs.google_matrix",
                    "linalg.hermitian_eig", "linalg.rk4_step",
                    "linalg.check_physical_state", "walks.evolve",
                    "walks.long_time_average", "ranking.interpolated_rank",
                    "ranking.qsw_activity", "ranking.szegedy_rank",
                    "communities.closeness_long_time_transport",
                    "communities.closeness_fidelity", "communities.magnetic_partition",
                    "communities.agglomerate", "communities.closeness_link_failure",
                    "percolation.bond_percolation_curve",
                    "percolation.subgraph_emergence", "percolation.contains_subgraph",
                    "cli.main"):
            out[f"{key}.self_s"] = self.fn(key).self_time
        for key in ("graphs.build_graph", "linalg.hermitian_eig", "linalg.rk4_step",
                    "percolation.contains_subgraph"):
            out[f"{key}.calls"] = self.fn(key).calls
        out["linalg.hermitian_eig.repeat_calls"] = c["eig_repeat_calls"]
        out["linalg.eig_max_n"] = c["eig_max_n"]
        out["linalg.eig_groups"] = c["eig_groups"]
        out["linalg.projector_bytes"] = c["projector_bytes"]
        out["ranking.classical_pagerank.iterations"] = c["pagerank_iterations"]
        out["ranking.steady_state_steps"] = c["steady_state_steps"]
        out["percolation.lattice_runs"] = c["lattice_runs"]
        curve_time = self.fn("percolation.bond_percolation_curve").total
        out["percolation.lattice_runs_per_s"] = (
            c["lattice_runs"] / curve_time if curve_time > 0 else 0.0)
        out["percolation.graphs_per_trial"] = (
            c["emergence_graphs"] / c["emergence_trials"] if c["emergence_trials"] else 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self(layer)
            out[f"{layer}.errors"] = self.layer_errors[layer]
        bench_self = wall - op_time
        accounted = sum(self.layer_self(layer) for layer in LAYERS) + self.own + bench_self
        out["trace.own_s"] = self.own
        out["bench.self_s"] = bench_self
        out["trace.accounted_share"] = accounted / wall if wall > 0 else 0.0
        return out

    def table(self) -> str:
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1].self_time)
        lines = [f"{'function':<48} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
        for key, st in rows:
            lines.append(f"{key:<48} {st.calls:>8} {st.total:>10.4f} {st.self_time:>10.4f}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# import time


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(text: str) -> dict[str, dict]:
    """Cumulative seconds of every qnet module, and of the heaviest non-qnet
    module it imported itself, from ``python -X importtime`` output."""
    entries = []  # (depth, name, cumulative seconds) in the order printed
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) / 1e6))
    out = {}
    for pos, (depth, name, cum) in enumerate(entries):
        if name not in MODULES:
            continue
        # children are printed before their parent, one level deeper
        heaviest, dep_s = None, 0.0
        for d, child, ccum in reversed(entries[:pos]):
            if d <= depth:
                break
            if d == depth + 1 and not child.startswith("qnet") and ccum > dep_s:
                heaviest, dep_s = child, ccum
        out[name] = {"s": cum, "dep": heaviest, "dep_s": dep_s}
    return out


def import_profile(cmd: list[str], env: dict, cwd: str, repeats: int) -> dict[str, float]:
    """Median import.<module>.s and .dep_s over `repeats` fresh interpreters."""
    samples = defaultdict(list)
    deps = {}
    for _ in range(repeats):
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=60, check=True)
        for mod, rec in parse_importtime(proc.stderr).items():
            samples[f"import.{mod}.s"].append(rec["s"])
            samples[f"import.{mod}.dep_s"].append(rec["dep_s"])
            deps[mod] = rec["dep"]
    out = {}
    for mod in MODULES:
        for suffix in ("s", "dep_s"):
            vals = samples.get(f"import.{mod}.{suffix}")
            out[f"import.{mod}.{suffix}"] = statistics.median(vals) if vals else 0.0
    print("heaviest direct dependency per module: "
          + ", ".join(f"{m}={d}" for m, d in deps.items() if d), file=sys.stderr)
    return out
