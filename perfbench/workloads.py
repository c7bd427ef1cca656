"""The benchmark's workloads: seeded inputs, the CLI operations run on them,
and a check of every operation's output.

Each check compares the output with a computation made apart from the
program (see reference.py) or with a property the method must have; none
compares with a saved copy of an earlier output. Each operation also carries
perturbations of its output that its check must reject, so a check that
cannot fail is caught when the benchmark runs.
"""
from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.cluster import hierarchy

import inputs
import reference as ref


class CheckFailed(Exception):
    pass


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(actual, expected, atol: float, what: str) -> None:
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    expect(a.shape == e.shape, f"{what}: shape {a.shape}, expected {e.shape}")
    dev = float(np.abs(a - e).max()) if a.size else 0.0
    expect(dev <= atol, f"{what}: deviation {dev:.3e} above {atol:.1e}")


def lazy(fn):
    """Compute a reference once per run, on first use."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


@dataclass
class Result:
    rc: int | None
    error: str | None              # exception that escaped qnet.cli.main
    stderr: str
    payload: dict | None = None
    matrix: np.ndarray | None = None
    trials: np.ndarray | None = None   # rows of p, trial, spanning, largest_fraction


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[Result, dict], None]
    perturbations: list[Callable[[Result], Result]]
    outputs: list[str]
    matrix_out: str | None = None
    trials_out: str | None = None
    expect_rc: int = 0

    def failed(self, r: Result) -> bool:
        return r.error is not None or r.rc != self.expect_rc

    def load(self, rc, error, stderr) -> Result:
        r = Result(rc, error, stderr)
        if not self.failed(r) and self.expect_rc == 0:
            with open(self.outputs[0]) as fh:
                r.payload = json.load(fh)
            if self.matrix_out:
                r.matrix = np.loadtxt(self.matrix_out, delimiter=",", ndmin=2)
            if self.trials_out:
                r.trials = np.loadtxt(self.trials_out, delimiter=",", skiprows=1, ndmin=2)
        return r


class Plan:
    """Collects the operations of one workload and writes their input files."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ops: list[Op] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def graph(self, name: str, el: inputs.EdgeList) -> str:
        return el.write(self.path(name + ".edges"))

    def op(self, name, argv, check, perturbations, matrix=False, trials=False,
           expect_rc=0) -> None:
        out = self.path(name + ".json")
        argv = list(argv) + ["--output", out]
        outputs = [out]
        matrix_out = trials_out = None
        if matrix:
            matrix_out = self.path(name + ".matrix.csv")
            argv += ["--matrix-out", matrix_out]
            outputs.append(matrix_out)
        if trials:
            trials_out = self.path(name + ".trials.csv")
            argv += ["--trials-out", trials_out]
            outputs.append(trials_out)
        self.ops.append(Op(name, argv, check, perturbations, outputs,
                           matrix_out, trials_out, expect_rc))


# ---------------------------------------------------------------------------
# perturbations: each returns an edited copy of a result


def nudge(*path, by=1e-3):
    def edit(r: Result) -> Result:
        r = copy.deepcopy(r)
        obj = r.payload
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] += by
        return r
    edit.__name__ = f"nudge{list(path)}"
    return edit


def replace(*path, value):
    def edit(r: Result) -> Result:
        r = copy.deepcopy(r)
        obj = r.payload
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        return r
    edit.__name__ = f"replace{list(path)}"
    return edit


def nudge_matrix(r: Result) -> Result:
    r = copy.deepcopy(r)
    r.matrix[0, 1] += 1e-3
    r.matrix[1, 0] += 1e-3
    return r


def move_node(r: Result) -> Result:
    """Move the first node of the first community into the next one."""
    r = copy.deepcopy(r)
    comms = r.payload["communities"]
    node = comms[0].pop(0)
    if len(comms) > 1:
        comms[1].append(node)
    else:
        comms.append([node])
    r.payload["communities"] = [c for c in comms if c]
    return r


def break_monotone(r: Result) -> Result:
    """Make trial 0 span at the lowest p and not at the highest."""
    r = copy.deepcopy(r)
    rows = np.flatnonzero(r.trials[:, 1] == 0)
    r.trials[rows[0], 2] = 1.0
    r.trials[rows[-1], 2] = 0.0
    return r


def succeed(r: Result) -> Result:
    return Result(0, None, "")


# ---------------------------------------------------------------------------
# reusable checks


def check_distribution_rows(p: np.ndarray, what: str) -> None:
    close(p.sum(axis=-1), np.ones(p.shape[:-1]), 1e-9, f"{what} row sums")
    expect(p.min() >= 0.0, f"{what}: negative occupation {p.min():.3e}")


def check_walk(payload, h, start, times, sample, atol=1e-8) -> None:
    """Occupations match exp(-iht) at sampled times; rows and the long-time
    average are distributions, and the average matches the eigenspace sum."""
    close(payload["times"], times, 0.0, "time grid")
    p = np.asarray(payload["probabilities"]).T          # [time][node]
    check_distribution_rows(p, "occupations")
    close(p[sample], ref.walk_probabilities(h, start, times[sample]), atol, "occupations vs expm")
    avg = np.asarray(payload["average"])
    check_distribution_rows(avg, "long-time average")
    psi = np.zeros(h.shape[0], dtype=complex)
    if isinstance(start, (int, np.integer)):
        psi[start] = 1.0
    else:
        psi = np.asarray(start, dtype=complex)
    close(avg, ref.long_time_average(h, psi), atol, "long-time average vs eigenspaces")


def partition_checker(closeness: Callable[[], np.ndarray]):
    """Agglomeration output against scipy's average-linkage dendrogram of the
    reference closeness: same best level (or, on a flagged tie, the same best
    quality), same merge heights, consistent quality."""
    dendrogram = lazy(lambda: ref.average_linkage(closeness()))

    def check(payload) -> None:
        c = closeness()
        levels, heights = dendrogram()
        comms = payload["communities"]
        expect(sorted(x for cm in comms for x in cm) == list(range(c.shape[0])),
               "communities do not partition the nodes")
        best_set, best_q = max(levels, key=lambda lv: lv[1])
        close(payload["quality"], ref.partition_quality(c, comms), 1e-9, "partition quality")
        close(payload["quality"], best_q, 1e-9, "quality of the best dendrogram level")
        if not payload["tie"]:
            expect(frozenset(frozenset(cm) for cm in comms) == best_set,
                   "partition differs from the best average-linkage level")
        close(sorted(m["closeness"] for m in payload["merges"]), heights, 1e-9,
              "merge closeness values")
    return check


def check_blocks(payload, blocks) -> None:
    got = sorted(sorted(c) for c in payload["communities"])
    expect(got == sorted(sorted(b) for b in blocks),
           f"communities {[len(c) for c in got]} are not the planted blocks")


def check_emergence(payload, target, trials, low_c=None, high_c=None) -> None:
    f = np.asarray(payload["fractions"])
    expect(payload["target"] == target, "target name")
    expect(payload["regime"] == "critical", f"regime {payload['regime']}")
    expect(np.all(np.diff(f, axis=1) >= 0), "fractions fall as c grows")
    close(f * trials, np.round(f * trials), 1e-9, "fractions are whole trial counts")
    close(payload["sharpness"], f[:, -1] - f[:, 0], 1e-12, "sharpness")
    if low_c is not None:
        expect(f[:, 0].max() < low_c, f"fraction {f[:, 0].max()} below the transition")
        expect(f[:, -1].min() > high_c, f"fraction {f[:, -1].min()} above the transition")


def crossing(points) -> float | None:
    """Linear interpolation of the first upward crossing of one half."""
    pts = sorted((pt["p"], pt["spanning_prob"]) for pt in points)
    for (p0, q0), (p1, q1) in zip(pts, pts[1:]):
        if q0 == 0.5:
            return p0
        if q0 <= 0.5 <= q1 and q1 > q0:
            return p0 + (0.5 - q0) * (p1 - p0) / (q1 - q0)
    return pts[-1][0] if pts and pts[-1][1] == 0.5 else None


def check_scan(r: Result, grid, trials) -> None:
    pts = r.payload["points"]
    close([pt["p"] for pt in pts], grid, 1e-15, "p grid")
    tr = r.trials
    expect(tr.shape == (len(grid) * trials, 4), f"trial table shape {tr.shape}")
    span = tr[:, 2].reshape(len(grid), trials)
    largest = tr[:, 3].reshape(len(grid), trials)
    # common random numbers: a trial's open bonds only grow with p
    expect(np.all(np.diff(span, axis=0) >= 0), "a trial stops spanning as p grows")
    expect(np.all(np.diff(largest, axis=0) >= 0), "a trial's largest cluster shrinks as p grows")
    close([pt["spanning_prob"] for pt in pts], span.mean(axis=1), 1e-12, "spanning vs trials")
    close([pt["largest_fraction_mean"] for pt in pts], largest.mean(axis=1), 1e-12,
          "largest fraction vs trials")
    want = crossing(pts)
    got = r.payload["crossing"]
    expect((got is None) == (want is None), "crossing presence")
    if want is not None:
        close(got, want, 1e-12, "crossing interpolation")


def check_point(payload, p, trials) -> None:
    sp = payload["spanning_prob"]
    close(payload["p"], p, 1e-15, "bond probability")
    close(sp * trials, round(sp * trials), 1e-9, "spanning is a whole trial count")
    close(payload["ci"], 1.96 * math.sqrt(sp * (1 - sp) / trials), 1e-12, "95% half width")
    expect(0 < payload["largest_fraction_mean"] <= 1, "largest fraction range")


def check_scores(payload, expected, atol, what) -> None:
    s = np.asarray(payload["scores"])
    close(s.sum(), 1.0, 1e-9, f"{what} score sum")
    dev = float(np.abs(s - expected).sum())
    expect(dev <= atol, f"{what}: L1 deviation {dev:.3e} above {atol:.1e}")


def uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


# Tolerance for the dissipative rankings: they stop integrating once the
# per-step change of rho falls under 1e-8 (dt = 0.01), so they sit short of
# the exact null vector by up to about 1e-6 / gap per entry, the gap being at
# least 1 - damping = 0.15. At n <= 32 that bounds the L1 error by 2.2e-4;
# the error seen is near 2e-5.
STEADY_L1 = 5e-4


# ---------------------------------------------------------------------------
# workloads


def spectral(b: Plan, rng: np.random.Generator, seed: int) -> None:
    """Few large dense eigenproblems and their n^3 projector consumers."""
    # n = 256 where one call decomposes and consumes the projector stack;
    # n = 192 and 128 where pure-Python agglomeration (n^3) and the windowed
    # kernel (n^4) would otherwise leave room for only two or three passes
    n = 256
    g1 = inputs.connected_graph(rng, n, 2 * n, weighted=True)
    g2 = inputs.connected_graph(rng, n, 2 * n, weighted=True)
    d1 = inputs.connected_graph(rng, n, 2 * n, directed=True)
    mag = inputs.two_block_graph(rng, n // 2, 1024, 2, directed=True)
    gc = inputs.connected_graph(rng, 192, 384, weighted=True)
    win = inputs.two_block_graph(rng, 64, 384, 1, weighted=True)
    planted = inputs.two_block_graph(rng, 24, 60, 1, weighted=True)
    f1, f2, fd, fm, fc, fw, fp = (b.graph(k, el) for k, el in (
        ("g1", g1), ("g2", g2), ("d1", d1), ("mag", mag), ("gc", gc), ("win", win),
        ("planted", planted)))
    h1 = g1.adjacency()
    hc = gc.adjacency()
    hw = win.adjacency()
    start = int(rng.integers(n))
    times = np.linspace(0.0, 4.0, 5)

    b.op("walk", ["walk", "--input", f1, "--start", str(start), "--times", "0:4:5"],
         lambda r, _: check_walk(r.payload, h1, start, times, slice(None)),
         [nudge("probabilities", 0, 1), nudge("average", 0)])

    c_inf = lazy(lambda: ref.closeness_infinite(hc))
    part_inf = partition_checker(c_inf)

    def check_inf(r, _):
        close(r.matrix, c_inf(), 1e-9, "infinite-horizon closeness")
        part_inf(r.payload)
    b.op("long_time", ["communities", "--input", fc, "--measure", "long-time"],
         check_inf, [nudge_matrix, move_node], matrix=True)

    c_fid = lazy(lambda: ref.closeness_fidelity(hc))
    part_fid = partition_checker(c_fid)

    def check_fid(r, _):
        close(r.matrix, c_fid(), 1e-9, "fidelity closeness")
        part_fid(r.payload)
    b.op("fidelity", ["communities", "--input", fc, "--measure", "fidelity"],
         check_fid, [nudge_matrix, move_node], matrix=True)

    want_mag = lazy(lambda: ref.magnetic_communities(mag, 0.7854, 2, seed))

    def check_mag(r, _):
        got = r.payload["communities"]
        expect(sorted(x for c in got for x in c) == list(range(n)),
               "communities do not partition the nodes")
        expect(sorted(map(sorted, got)) == want_mag(),
               "magnetic partition differs from k-means on reference projector features")
    b.op("magnetic", ["communities", "--input", fm, "--method", "magnetic",
                      "--theta", "0.7854", "--k", "2", "--seed", str(seed)],
         check_mag, [move_node])

    pr_d1 = lazy(lambda: ref.pagerank(d1))
    b.op("adiabatic", ["rank", "--input", fd, "--variant", "adiabatic"],
         lambda r, _: check_scores(r.payload, pr_d1(), 1e-8, "adiabatic vs PageRank"),
         [nudge("scores", 0, by=1e-4)])

    s_prop = lazy(lambda: ref.entropy_bits(ref.propagator_density(g1, 1.0)))
    b.op("entropy", ["entropy", "--input", f1, "--density", "propagator", "--tau", "1.0"],
         lambda r, _: close(r.payload["entropy_bits"], s_prop(), 1e-9, "propagator entropy"),
         [nudge("entropy_bits", by=1e-6)])

    js = lazy(lambda: ref.js_divergence_bits(ref.propagator_density(g1, 1.0),
                                             ref.propagator_density(g2, 1.0)))

    def check_js(r, done, other=None):
        p = r.payload
        close(p["js_divergence_bits"], js(), 1e-9, "JS divergence")
        close(p["js_distance"], math.sqrt(max(p["js_divergence_bits"], 0.0)), 1e-12,
              "JS distance is the root of the divergence")
        expect(0.0 <= p["js_distance"] <= 1.0, "JS distance outside [0, 1]")
        if other is not None and other in done:
            close(p["js_distance"], done[other].payload["js_distance"], 1e-12,
                  "JS distance is symmetric")
    b.op("compare_ab", ["compare", "--input", f1, "--other", f2], check_js,
         [nudge("js_distance", by=1e-6)])
    b.op("compare_ba", ["compare", "--input", f2, "--other", f1],
         lambda r, done: check_js(r, done, "compare_ab"),
         [nudge("js_divergence_bits", by=1e-6)])

    def windowed_check(h, blocks=None):
        c_ref = lazy(lambda: ref.closeness_windowed(h, 2.0))
        part = partition_checker(c_ref)

        def check(r, _):
            close(r.matrix, c_ref(), 1e-9, "windowed closeness vs Gauss-Legendre quadrature")
            part(r.payload)
            if blocks:
                check_blocks(r.payload, blocks)
        return check

    b.op("windowed", ["communities", "--input", fw, "--measure", "long-time", "--t", "2.0"],
         windowed_check(hw), [nudge_matrix, move_node], matrix=True)
    # small blocks joined by one weak link: recovery held on every seed
    # tried, so the planted partition itself can be asserted
    b.op("planted", ["communities", "--input", fp, "--measure", "long-time", "--t", "2.0"],
         windowed_check(planted.adjacency(), [range(24), range(24, 48)]),
         [nudge_matrix, move_node], matrix=True)


def dynamics(b: Plan, rng: np.random.Generator, seed: int) -> None:
    """Many small eigenproblems, fixed-step master equations, the edge space."""
    r24 = inputs.connected_graph(rng, 24, 48, directed=True)
    q32 = inputs.connected_graph(rng, 32, 64, directed=True)
    s48 = inputs.connected_graph(rng, 48, 96, directed=True)
    s8 = inputs.connected_graph(rng, 8, 8, directed=True)
    l60 = inputs.connected_graph(rng, 60, 120)
    fr, fq, fs, f8, fl = (b.graph(k, el) for k, el in
                          (("r24", r24), ("q32", q32), ("s48", s48), ("s8", s8), ("l60", l60)))

    for alpha in (0.25, 0.6, 1.0):
        want = lazy(lambda a=alpha: ref.steady_state_scores(r24, 1.0 - a, a, "transport"))
        pr = lazy(lambda: ref.pagerank(r24))

        def check(r, _, a=alpha, want=want, pr=pr):
            expect(r.payload["converged"], "did not reach a steady state")
            check_scores(r.payload, want(), STEADY_L1, f"interpolated alpha={a} vs Liouvillian")
            if a == 1.0:
                check_scores(r.payload, pr(), STEADY_L1, "interpolated alpha=1 vs PageRank")
        b.op(f"interpolated_{alpha}", ["rank", "--input", fr, "--variant", "interpolated",
                                       "--alpha", str(alpha)],
             check, [nudge("scores", 0, by=1e-3)])

    for jump in ("transport", "dephasing"):
        want = lazy(lambda j=jump: ref.steady_state_scores(q32, 1.0, 1.0, j))
        b.op(f"qsw_{jump}", ["rank", "--input", fq, "--variant", "qsw", "--jump", jump],
             lambda r, _, j=jump, want=want: (
                 expect(r.payload["converged"], "did not reach a steady state"),
                 check_scores(r.payload, want(), STEADY_L1, f"qsw {j} vs Liouvillian")),
             [nudge("scores", 0, by=1e-3)])

    for name, el, f, dense in (("szegedy_48", s48, fs, False), ("szegedy_8", s8, f8, True)):
        want = lazy(lambda el=el, dense=dense:
                    ref.szegedy_scores(ref.google_matrix(el, 0.85), 512, dense))

        def check(r, _, want=want, what=name):
            scores, var = want()
            close(r.payload["scores"], scores, 1e-10, f"{what} scores")
            close(r.payload["variance"], var, 1e-10, f"{what} variance")
        b.op(name, ["rank", "--input", f, "--variant", "szegedy", "--steps", "512"],
             check, [nudge("scores", 1, by=1e-6), nudge("variance", 0, by=1e-6)])

    pr48 = lazy(lambda: ref.pagerank(s48))
    b.op("classical", ["rank", "--input", fs, "--variant", "classical"],
         lambda r, _: check_scores(r.payload, pr48(), 1e-10, "power iteration vs PageRank"),
         [nudge("scores", 2, by=1e-6)])

    h60 = l60.adjacency()
    aff = lazy(lambda: ref.link_failure_affinity(h60))
    part = partition_checker(aff)

    def check_lf(r, _):
        close(r.matrix, ref.finalize(aff()), 1e-9, "link-failure affinity")
        part(r.payload)
    b.op("link_failure", ["communities", "--input", fl, "--measure", "link-failure"],
         check_lf, [nudge_matrix, move_node], matrix=True)


def montecarlo(b: Plan, rng: np.random.Generator, seed: int) -> None:
    """Lattice union-find and random-graph subgraph search; no linear algebra."""
    seeds = [str(int(s)) for s in rng.integers(0, 2**31 - 1, size=4)]
    grid = [0.44, 0.5, 0.56]

    def check_scan64(r, _):
        check_scan(r, grid, 200)
        got = r.payload["crossing"]
        expect(got is not None and abs(got - 0.5) <= 0.03,
               f"64x64 spanning crossing {got} is not within 0.03 of 1/2")
    b.op("scan", ["percolate", "--lattice", "64x64", "--scan", "0.44,0.5,0.56",
                  "--trials", "200", "--seed", seeds[0]],
         check_scan64, [break_monotone, replace("crossing", value=0.46)], trials=True)

    def check_cep(r, _):
        p = r.payload
        expect(p["conversion_probability"] == 0.7 and p["link_p"] == 0.7,
               "singlet conversion probability of a p = 0.7 link is 0.7")
        check_point(p, 0.7, 200)
        expect(p["spanning_prob"] >= 0.95 and p["percolates"],
               "32x32 bond lattice at p = 0.7 must span")
    b.op("cep", ["percolate", "--lattice", "32x32", "--link-p", "0.7", "--trials", "200",
                 "--seed", seeds[1]],
         check_cep, [replace("conversion_probability", value=0.49), nudge("spanning_prob", by=-0.2)])

    b.op("triangle", ["percolate", "--emergence", "triangle", "--n-values", "256",
                      "--c-values", "0.5,1.5,3.5", "--trials", "200", "--seed", seeds[2]],
         lambda r, _: check_emergence(r.payload, "triangle", 200, 0.1, 0.9),
         [replace("fractions", 0, value=[0.5, 0.4, 1.0])])

    # p = c n^(-2/3) is the K4 threshold: about c^6 / 24 copies expected
    b.op("clique4", ["percolate", "--emergence", "clique4", "--z", repr(2.0 / 3.0),
                     "--n-values", "48", "--c-values", "0.5,2.5", "--trials", "40",
                     "--seed", seeds[3]],
         lambda r, _: check_emergence(r.payload, "clique4", 40, 0.1, 0.9),
         [replace("regime", value="subcritical"), replace("fractions", 0, value=[0.0, 0.5])])


def cli(b: Plan, rng: np.random.Generator, seed: int) -> None:
    """Argument parsing, edge-list parsing and payload emission dominate."""
    os.environ["QNET_SEED"] = str(int(rng.integers(0, 2**31 - 1)))
    la = b.graph("layer_a", inputs.path_graph(3))
    lb = b.graph("layer_b", inputs.cycle_graph(3))

    # -- the eighteen determinism invocations of the acceptance gate ------
    t_k2 = np.linspace(0.0, 6.3, 25)

    def check_k2(r, _):
        p = np.asarray(r.payload["probabilities"])
        close(p[0], np.cos(t_k2) ** 2, 1e-12, "k2 walk follows cos^2 t")
        close(p[1], np.sin(t_k2) ** 2, 1e-12, "k2 walk follows sin^2 t")
        close(r.payload["average"], [0.5, 0.5], 1e-12, "k2 long-time average")
    b.op("toy_walk_k2", ["walk", "--toy", "k2", "--times", "0:6.3:25"], check_k2,
         [nudge("probabilities", 0, 3, by=1e-6)])

    bar = inputs.barbell7()
    a = bar.adjacency()
    deg = a.sum(axis=1)
    hq = (np.diag(deg) - a) / np.sqrt(np.outer(deg, deg))
    t_bar = np.linspace(0.0, 10.0, 11)
    b.op("toy_walk_barbell", ["walk", "--toy", "barbell7", "--generator", "quantum-laplacian",
                              "--uniform", "--times", "0:10:11"],
         lambda r, _: check_walk(r.payload, hq, uniform(7), t_bar, slice(None), 1e-10),
         [nudge("probabilities", 3, 4, by=1e-6)])

    chain = inputs.directed_chain(3)
    pr_chain = lazy(lambda: ref.pagerank(chain))
    b.op("toy_rank_classical", ["rank", "--toy", "chain3-directed"],
         lambda r, _: check_scores(r.payload, pr_chain(), 1e-10, "classical vs PageRank"),
         [nudge("scores", 0, by=1e-6)])

    def check_adiabatic(r, done):
        check_scores(r.payload, pr_chain(), 1e-9, "adiabatic vs PageRank")
        if "toy_rank_classical" in done:
            check_scores(r.payload, np.asarray(done["toy_rank_classical"].payload["scores"]),
                         1e-9, "adiabatic vs classical rank")
    b.op("toy_rank_adiabatic", ["rank", "--toy", "chain3-directed", "--variant", "adiabatic"],
         check_adiabatic, [nudge("scores", 1, by=1e-6)])

    sz = lazy(lambda: ref.szegedy_scores(ref.google_matrix(chain, 0.85), 128, dense=True))
    b.op("toy_rank_szegedy", ["rank", "--toy", "chain3-directed", "--variant", "szegedy",
                              "--steps", "128"],
         lambda r, _: (close(r.payload["scores"], sz()[0], 1e-10, "szegedy vs dense unitary"),
                       close(r.payload["variance"], sz()[1], 1e-10, "szegedy variance")),
         [nudge("scores", 0, by=1e-6)])

    ss_int = lazy(lambda: ref.steady_state_scores(chain, 0.5, 0.5, "transport"))
    b.op("toy_rank_interpolated", ["rank", "--toy", "chain3-directed", "--variant",
                                   "interpolated", "--alpha", "0.5"],
         lambda r, _: check_scores(r.payload, ss_int(), STEADY_L1, "interpolated vs Liouvillian"),
         [nudge("scores", 0, by=1e-3)])

    ss_qsw = lazy(lambda: ref.steady_state_scores(chain, 1.0, 1.0, "transport"))
    b.op("toy_rank_qsw", ["rank", "--toy", "chain3-directed", "--variant", "qsw"],
         lambda r, _: check_scores(r.payload, ss_qsw(), STEADY_L1, "qsw vs Liouvillian"),
         [nudge("scores", 2, by=1e-3)])

    star = inputs.star_graph(4)
    b.op("toy_entropy_star", ["entropy", "--toy", "star-s4"],
         lambda r, _: close(r.payload["entropy_bits"],
                            ref.entropy_bits(ref.rescaled_density(star)), 1e-12,
                            "rescaled-Laplacian entropy of the star"),
         [nudge("entropy_bits", by=1e-6)])

    p3, tri = inputs.path_graph(3), inputs.cycle_graph(3)
    b.op("toy_entropy_p3", ["entropy", "--toy", "p3", "--density", "propagator", "--tau", "2.0"],
         lambda r, _: close(r.payload["entropy_bits"],
                            ref.entropy_bits(ref.propagator_density(p3, 2.0)), 1e-12,
                            "propagator entropy of p3"),
         [nudge("entropy_bits", by=1e-6)])

    rho_p3 = lazy(lambda: ref.propagator_density(p3, 1.0))
    rho_tri = lazy(lambda: ref.propagator_density(tri, 1.0))

    def check_js(r, _):
        p = r.payload
        close(p["js_divergence_bits"], ref.js_divergence_bits(rho_p3(), rho_tri()), 1e-12,
              "JS divergence p3 / triangle")
        close(p["js_distance"], math.sqrt(p["js_divergence_bits"]), 1e-12, "JS distance")
        expect(0.0 <= p["js_distance"] <= 1.0, "JS distance outside [0, 1]")
    b.op("toy_compare_js", ["compare", "--toy", "p3", "--other-toy", "triangle"], check_js,
         [nudge("js_distance", by=1e-6)])
    b.op("toy_compare_kl", ["compare", "--toy", "p3", "--other-toy", "triangle",
                            "--measure", "kl"],
         lambda r, _: close(r.payload["kl_bits"], ref.kl_bits(rho_p3(), rho_tri()), 1e-10,
                            "KL divergence p3 / triangle"),
         [nudge("kl_bits", by=1e-6)])

    bar_blocks = partition_checker(lazy(lambda: ref.closeness_windowed(a, 2.0)))

    def check_bar_long(r, _):
        bar_blocks(r.payload)
        sets = [set(c) for c in r.payload["communities"]]
        expect(len(sets) == 2 and any({0, 1, 2} <= s for s in sets)
               and any({4, 5, 6} <= s for s in sets), "barbell does not split at the bridge")
    b.op("toy_communities_long", ["communities", "--toy", "barbell7", "--measure", "long-time",
                                  "--t", "2.0"],
         check_bar_long, [move_node])

    bar_lf = partition_checker(lazy(lambda: ref.link_failure_affinity(a)))
    b.op("toy_communities_lf", ["communities", "--toy", "barbell7", "--measure", "link-failure"],
         lambda r, _: bar_lf(r.payload), [move_node, nudge("merges", 0, "closeness", by=1e-6)])

    b.op("toy_percolate_p", ["percolate", "--lattice", "16x16", "--p", "0.5", "--trials", "25"],
         lambda r, _: check_point(r.payload, 0.5, 25), [nudge("ci", by=1e-6)])

    def check_toy_scan(r, _):
        pts = r.payload["points"]
        close([pt["p"] for pt in pts], [0.4, 0.5, 0.6], 1e-15, "p grid")
        sp = [pt["spanning_prob"] for pt in pts]
        expect(np.all(np.diff(sp) >= 0), "spanning falls as p grows")
        for pt in pts:
            check_point(pt, pt["p"], 10)
        want, got = crossing(pts), r.payload["crossing"]
        expect((got is None) == (want is None), "crossing presence")
        if want is not None:
            close(got, want, 1e-12, "crossing interpolation")
    b.op("toy_percolate_scan", ["percolate", "--lattice", "16x16", "--scan", "0.4,0.5,0.6",
                                "--trials", "10"],
         check_toy_scan, [replace("points", 0, "spanning_prob", value=1.0)])

    b.op("toy_percolate_emergence", ["percolate", "--emergence", "triangle", "--n-values",
                                     "32,64", "--c-values", "0.5,3.0", "--trials", "20"],
         lambda r, _: check_emergence(r.payload, "triangle", 20),
         [replace("fractions", 1, value=[0.5, 0.25])])

    def check_toy_cep(r, _):
        p = r.payload
        expect(p["conversion_probability"] == 0.7, "conversion probability of p = 0.7 link")
        check_point(p, 0.7, 10)
        expect(p["percolates"] == (p["spanning_prob"] >= 0.5), "percolates flag")
    b.op("toy_percolate_cep", ["percolate", "--lattice", "12x12", "--link-p", "0.7",
                               "--trials", "10"],
         check_toy_cep, [replace("percolates", value=None)])

    def check_toy_layers(r, _):
        p = r.payload
        expect(p["labels"] == ["layer_a", "layer_b"] and p["order"] == [0, 1], "layer labels")
        expect(len(p["merges"]) == 1 and (p["merges"][0]["a"], p["merges"][0]["b"]) == (0, 1),
               "layer merge")
        close(p["merges"][0]["distance"],
              math.sqrt(ref.js_divergence_bits(rho_p3(), rho_tri())), 1e-12, "layer distance")
    b.op("toy_layers", ["layers", "--input", la, "--input", lb], check_toy_layers,
         [nudge("merges", 0, "distance", by=1e-6)])

    # -- file input with large payloads ---------------------------------
    w120 = inputs.connected_graph(rng, 120, 240, weighted=True)
    fw = b.graph("w120", w120)
    start = int(rng.integers(120))
    t_long = np.linspace(0.0, 20.0, 2001)

    def check_long_walk(r, _):
        check_walk(r.payload, w120.adjacency(), start, t_long, slice(0, None, 250))
        expect(np.array_equal(r.matrix, np.asarray(r.payload["probabilities"]).T),
               "CSV series differs from the JSON payload")
    b.op("walk_long_grid", ["walk", "--input", fw, "--start", str(start),
                            "--times", "0:20:2001"],
         check_long_walk, [nudge("probabilities", 5, 7, by=1e-6), nudge_matrix], matrix=True)

    layers = [inputs.connected_graph(rng, 48, extra) for extra in (24, 48, 72, 96, 120, 144)]
    files = [b.graph(f"layer{k}", el) for k, el in enumerate(layers)]

    def layer_distances():
        rhos = [ref.propagator_density(el, 1.0) for el in layers]
        d = np.zeros((6, 6))
        for i in range(6):
            for j in range(i + 1, 6):
                d[i, j] = d[j, i] = math.sqrt(ref.js_divergence_bits(rhos[i], rhos[j]))
        return d
    dist = lazy(layer_distances)

    def check_layers(r, _):
        close(r.matrix, dist(), 1e-10, "layer JS distances")
        expect(r.payload["labels"] == [f"layer{k}" for k in range(6)], "layer labels")
        z = hierarchy.linkage(dist()[np.triu_indices(6, 1)], method="average")
        merges = r.payload["merges"]
        expect([(m["a"], m["b"]) for m in merges] == [(int(x), int(y)) for x, y in z[:, :2]],
               "layer dendrogram differs from scipy average linkage")
        close([m["distance"] for m in merges], z[:, 2], 1e-10, "layer merge distances")
        expect(r.payload["order"] == hierarchy.leaves_list(z).tolist(), "leaf order")
    b.op("layers_six", ["layers"] + [x for f in files for x in ("--input", f)],
         check_layers, [nudge_matrix, nudge("merges", 0, "distance", by=1e-6)], matrix=True)

    scan_seed = str(int(rng.integers(0, 2**31 - 1)))
    b.op("scan_trials_out", ["percolate", "--lattice", "32x32", "--scan", "0.3:0.7:9",
                             "--trials", "50", "--seed", scan_seed],
         lambda r, _: check_scan(r, list(np.linspace(0.3, 0.7, 9)), 50),
         [break_monotone, nudge("points", 2, "spanning_prob", by=0.02)], trials=True)

    fk = b.graph("k64", inputs.complete_graph(64))
    b.op("entropy_complete", ["entropy", "--input", fk],
         lambda r, _: close(r.payload["entropy_bits"], math.log2(63), 1e-10,
                            "complete-graph entropy is log2(n - 1)"),
         [nudge("entropy_bits", by=1e-6)])

    # A 'nodes' header far beyond the address space (10^7 nodes: a 728 TiB
    # dense matrix). With a size guard at the input boundary the CLI exits 1
    # with a usage error; without one, a MemoryError escapes qnet.cli.main.
    huge = b.path("huge.edges")
    with open(huge, "w") as fh:
        fh.write(inputs.EdgeList(2, [(0, 1)]).text(nodes_header=10**7))

    def check_huge(r, _):
        expect(r.rc == 1 and "qnet: error:" in r.stderr,
               "oversized graph is not rejected as a usage error")
    b.op("oversized_header", ["entropy", "--input", huge], check_huge, [succeed], expect_rc=1)


# The benchmark's workloads. Each joins two of the operation groups above:
# with two workloads, the runs of a two-set comparison fit its time limit
# at a run length long enough to keep the run-to-run spread that drift in
# machine speed causes within the bounds (see README.md). spectral_dynamics holds both uses of linalg (few large
# eigenproblems, many small ones and RK4); montecarlo_cli leaves linalg
# nearly idle, so spectral-core changes should not move it.


def spectral_dynamics(b: Plan, rng: np.random.Generator, seed: int) -> None:
    spectral(b, rng, seed)
    dynamics(b, rng, seed)


def montecarlo_cli(b: Plan, rng: np.random.Generator, seed: int) -> None:
    montecarlo(b, rng, seed)
    cli(b, rng, seed)


WORKLOADS = {
    "spectral_dynamics": spectral_dynamics,
    "montecarlo_cli": montecarlo_cli,
}
