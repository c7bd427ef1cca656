"""The command-line contract over generated argv: every subcommand, good and
bad flag values alike, ends in a documented exit code with JSON on stdout.

Exit codes: 0 success, 1 usage or data error, 2 numerical failure, 3 I/O
failure. Values are drawn from small graphs and small grids, including empty
and comma-only lists, so the whole property costs a few seconds.
"""
from __future__ import annotations

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnet.cli import main

EDGE_LISTS = {
    "path4": "0 1\n1 2\n2 3\n",
    "weighted": "nodes 5\n0 1 2.5\n1 2 0.5\n2 3 1.0 0.7\n3 4 3.0\n4 0 1.0\n",
    "directed": "directed\n0 1\n1 2\n2 0\n2 3\n",
    "isolated": "nodes 4\n0 1\n",
    "empty": "# no edges\n",
}

TOYS = ["k2", "p3", "triangle", "star-s4", "barbell7", "chain3-directed", "nope"]
FLOATS = ["0.5", "1", "0", "-1", "2.5", "1e-300", "1e300", "1.7e308", "nan", "inf", "x", ""]
INTS = ["0", "1", "2", "3", "-1", "7", "x", ""]
GRIDS = ["0.2,0.8", ",", "0.5", "", "0:1:3", "0,1", ",,", "1,0", "0:1:0", "1:0:2",
         "0:inf:3", "a,b", "0.5,nan", "-0.5", "2"]
TIME_GRIDS = ["0:1:3", "0:10:11", "1:0:2", "0:0:1", "0:1:0", "0:inf:3", "x", "",
              "0:1e308:2", "-1e308:1e308:3"]
N_GRIDS = ["8,16", ",", "4", "", "16:32:3", "0", "-4", "3.5", "16,8", "1"]


@pytest.fixture(scope="module")
def edge_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("edges")
    paths = {}
    for name, text in EDGE_LISTS.items():
        paths[name] = root / f"{name}.edges"
        paths[name].write_text(text)
    paths["missing"] = root / "missing.edges"
    return {name: str(path) for name, path in paths.items()}


def _graph(draw, files, prefix=""):
    source = draw(st.sampled_from(["toy", "toy", "toy", "input", "input", "both", "none"]))
    argv = []
    if source in ("toy", "both"):
        argv += [f"--{prefix}toy", draw(st.sampled_from(TOYS))]
    if source in ("input", "both"):
        argv += [f"--{prefix or 'input'}".rstrip("-"), files[draw(st.sampled_from(sorted(files)))]]
    return argv


def _flags(draw, options):
    """About a third of options, each flag with one drawn value (none for a switch)."""
    argv = []
    for flag, values in options.items():
        if draw(st.integers(0, 2)) == 0:
            argv += [flag] if values is None else [f"{flag}={draw(st.sampled_from(values))}"]
    return argv


@st.composite
def command_lines(draw, command, files):
    graph = _graph(draw, files)
    if command == "walk":
        return ["walk", *graph, *_flags(draw, {
            "--generator": ["adjacency", "laplacian", "quantum-laplacian", "bad"],
            "--symmetrize": None, "--start": INTS, "--uniform": None,
            "--times": TIME_GRIDS, "--directed": None})]
    if command == "rank":
        return ["rank", *graph, *_flags(draw, {
            "--variant": ["classical", "adiabatic", "szegedy", "interpolated", "qsw", "bad"],
            "--damping": FLOATS, "--alpha": FLOATS, "--steps": ["1", "16", "0", "-3", "x"],
            "--jump": ["transport", "dephasing"]})]
    if command == "entropy":
        return ["entropy", *graph, *_flags(draw, {
            "--density": ["rescaled", "propagator"], "--tau": FLOATS})]
    if command == "compare":
        return ["compare", *graph, *_graph(draw, files, "other-"), *_flags(draw, {
            "--measure": ["js", "kl"], "--density": ["rescaled", "propagator"],
            "--tau": FLOATS})]
    if command == "communities":
        return ["communities", *graph, *_flags(draw, {
            "--method": ["agglomerate", "magnetic"],
            "--measure": ["short-time", "long-time", "fidelity", "link-failure"],
            "--generator": ["adjacency", "laplacian", "quantum-laplacian"],
            "--symmetrize": None, "--t": FLOATS, "--policy": ["superposition", "mixed"],
            "--theta": FLOATS, "--k": INTS})]
    if command == "percolate":
        mode = draw(st.sampled_from(["--p", "--scan", "--link-p", "--emergence", None]))
        values = {"--scan": GRIDS, "--emergence": ["triangle", "square", "edge", "bad"]}
        picked = [f"{mode}={draw(st.sampled_from(values.get(mode, FLOATS)))}"] if mode else []
        return ["percolate", *picked,
                f"--lattice={draw(st.sampled_from(['8x8', '4x3', '2x1', '1x1', '0x5', 'x', '3']))}",
                f"--trials={draw(st.sampled_from(['2', '3', '2', '0', '-1']))}",
                f"--n-values={draw(st.sampled_from(N_GRIDS))}", *_flags(draw, {
                    "--c-values": GRIDS, "--z": FLOATS})]
    layers = []
    for _ in range(draw(st.sampled_from([2, 3, 1, 0]))):
        layers += ["--input", files[draw(st.sampled_from(sorted(files)))]]
    return ["layers", *layers, *_flags(draw, {"--tau": FLOATS})]


def _non_finite(x, key=None):
    """Paths of the non-finite markers in a payload, bar the one value that
    may be infinite: a KL divergence past the reference's support. json.loads
    reads bare NaN and Infinity as floats, so those count too."""
    if isinstance(x, dict):
        return [p for k, v in x.items() for p in _non_finite(v, k)]
    if isinstance(x, list):
        return [p for v in x for p in _non_finite(v, key)]
    if isinstance(x, float) and not math.isfinite(x):
        return [key]
    if x == "nan" or (x in ("inf", "-inf") and key != "kl_bits"):
        return [key]
    return []


@pytest.mark.parametrize("command", ["walk", "rank", "entropy", "compare", "communities",
                                     "percolate", "layers"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_command_line_ends_in_a_documented_exit(edge_files, command, data):
    argv = data.draw(command_lines(command, edge_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    if rc:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("qnet: "), (argv, err.getvalue())
        return
    payload = json.loads(out.getvalue())
    assert _non_finite(payload) == [], argv
    assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n", argv
