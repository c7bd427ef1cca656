"""Command-line interface: payload schemas, exit codes, file outputs, and
byte-determinism."""
from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qnet import (IntegrationInstabilityError, bond_percolation, cli, communities, entropy,
                  to_edge_list, vn_entropy, walks)
from qnet.cli import main

from _helpers import random_connected_graph

K4_EDGES = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
TWO_CYCLES_EDGES = (
    "directed\n"
    "0 1\n1 2\n2 3\n3 0\n"
    "4 5\n5 6\n6 7\n7 4\n"
    "3 4\n"
)


def run_cli(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


def run_json(capsys, *argv) -> dict:
    rc, out = run_cli(capsys, *argv)
    assert rc == 0, out
    return json.loads(out)


def test_entropy_of_clique(capsys, tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text(K4_EDGES)
    payload = run_json(capsys, "entropy", "--input", str(path))
    assert payload["entropy_bits"] == pytest.approx(1.584962500721156, abs=1e-12)


def test_entropy_propagator_flag(capsys):
    payload = run_json(capsys, "entropy", "--toy", "p3",
                       "--density", "propagator", "--tau", "50.0")
    assert payload["entropy_bits"] <= 1e-6


def test_entropy_propagator_past_underflow_is_pure(capsys):
    # at this tau exp(-tau * lambda) underflows (or overflows) even at the
    # Laplacian's zero eigenvalue, which LAPACK returns as about +-1e-16
    payload = run_json(capsys, "entropy", "--toy", "p3",
                       "--density", "propagator", "--tau", "1e19")
    assert payload["entropy_bits"] == 0.0


def test_walk_payload_schema(capsys):
    payload = run_json(capsys, "walk", "--toy", "k2", "--times", "0:3.14159:5")
    assert payload["nodes"] == 2
    assert payload["generator"] == "adjacency"
    assert payload["initial"] == 0
    assert len(payload["times"]) == 5
    probs = payload["probabilities"]
    assert len(probs) == 2 and len(probs[0]) == 5
    assert probs[0][0] == pytest.approx(1.0, abs=1e-12)
    assert payload["average"][0] == pytest.approx(0.5, abs=1e-9)


def test_rank_adiabatic_payload(capsys):
    payload = run_json(capsys, "rank", "--toy", "chain3-directed",
                       "--variant", "adiabatic")
    scores = payload["scores"]
    assert sum(scores) == pytest.approx(1.0, abs=1e-9)
    assert payload["ground_eigenvalue"] <= 1e-10
    assert payload["variant"] == "adiabatic"
    assert payload["damping"] == 0.85


def test_rank_variants_agree_on_order(capsys):
    classical = run_json(capsys, "rank", "--toy", "chain3-directed")["scores"]
    szegedy = run_json(capsys, "rank", "--toy", "chain3-directed",
                       "--variant", "szegedy", "--steps", "256")["scores"]
    assert list(np.argsort(classical)) == list(np.argsort(szegedy))


def test_compare_js_and_kl(capsys, tmp_path):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    a.write_text("0 1\n1 2\n")
    b.write_text("0 1\n1 2\n0 2\n")
    js = run_json(capsys, "compare", "--input", str(a), "--other", str(b))
    assert set(js) >= {"js_divergence_bits", "js_distance"}
    assert 0.0 <= js["js_divergence_bits"] <= 1.0
    assert js["js_distance"] == math.sqrt(js["js_divergence_bits"])
    kl = run_json(capsys, "compare", "--input", str(a), "--other", str(b),
                  "--measure", "kl", "--tau", "1.0")
    assert kl["kl_bits"] == pytest.approx(0.382175197082409, abs=1e-12)


def test_communities_barbell_window_split(capsys):
    payload = run_json(capsys, "communities", "--toy", "barbell7",
                       "--measure", "long-time", "--t", "2.0")
    sets = [set(c) for c in payload["communities"]]
    assert len(sets) == 2
    assert any({0, 1, 2} <= s for s in sets)
    assert any({4, 5, 6} <= s for s in sets)
    assert payload["measure"] == "long-time-transport"


def test_communities_magnetic_cycles(capsys, tmp_path):
    path = tmp_path / "cycles.edges"
    path.write_text(TWO_CYCLES_EDGES)
    payload = run_json(capsys, "communities", "--input", str(path),
                       "--method", "magnetic", "--theta", "0.7853981633974483",
                       "--k", "2")
    sets = {frozenset(c) for c in payload["communities"]}
    assert sets == {frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})}


def test_percolate_full_lattice_spans(capsys):
    payload = run_json(capsys, "percolate", "--lattice", "64x64",
                       "--p", "1.0", "--trials", "10")
    assert payload["spanning_prob"] == 1.0


def test_percolate_scan_and_crossing(capsys):
    payload = run_json(capsys, "percolate", "--lattice", "12x12",
                       "--scan", "0.3,0.5,0.7", "--trials", "30")
    probs = [row["spanning_prob"] for row in payload["points"]]
    assert probs == sorted(probs)
    assert "crossing" in payload


def test_percolate_emergence(capsys):
    payload = run_json(capsys, "percolate", "--emergence", "triangle",
                       "--z", "1.0", "--n-values", "32,64",
                       "--c-values", "0.2,3.0", "--trials", "30")
    assert payload["regime"] == "critical"
    frac = payload["fractions"]
    assert frac[-1][0] <= frac[-1][-1]


def test_percolate_cep(capsys):
    payload = run_json(capsys, "percolate", "--lattice", "12x12",
                       "--link-p", "1.0", "--trials", "5")
    assert payload["percolates"] is True
    assert payload["conversion_probability"] == pytest.approx(1.0)


def test_layers_clustering(capsys, tmp_path):
    names = []
    for label, text in (("a", "0 1\n1 2\n2 3\n"),
                        ("b", "0 1\n1 2\n2 3\n"),
                        ("c", "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")):
        path = tmp_path / f"{label}.edges"
        path.write_text(text)
        names.append(str(path))
    payload = run_json(capsys, "layers", "--input", names[0],
                       "--input", names[1], "--input", names[2])
    assert len(payload["labels"]) == 3
    first = payload["merges"][0]
    assert {first["a"], first["b"]} == {0, 1}
    assert first["distance"] <= 1e-7


# ---------------------------------------------------------------------------
# files and determinism


def test_output_file_and_matrix_out(capsys, tmp_path):
    out = tmp_path / "walk.json"
    mat = tmp_path / "series.csv"
    rc, _ = run_cli(capsys, "walk", "--toy", "k2", "--times", "0:1:3",
                    "--output", str(out), "--matrix-out", str(mat))
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["nodes"] == 2
    rows = mat.read_text().strip().splitlines()
    assert len(rows) == 3
    assert len(rows[0].split(",")) == 2


def test_trials_out_csv(capsys, tmp_path):
    path = tmp_path / "trials.csv"
    rc, _ = run_cli(capsys, "percolate", "--lattice", "10x10", "--p", "0.45",
                    "--trials", "6", "--trials-out", str(path))
    assert rc == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p,trial,spanning,largest_fraction"
    assert len(lines) == 7
    stats = bond_percolation(10, 10, 0.45, trials=6, seed=0)
    expected = [f"{stats.p!r},{k},{int(rec.spanning)},{rec.largest_fraction!r}"
                for k, rec in enumerate(stats.records)]
    assert lines[1:] == expected
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back[:, 3], [rec.largest_fraction for rec in stats.records])


def test_seed_env_matches_flag(capsys, monkeypatch):
    monkeypatch.setenv("QNET_SEED", "123")
    rc, via_env = run_cli(capsys, "percolate", "--lattice", "8x8",
                          "--p", "0.5", "--trials", "10")
    monkeypatch.delenv("QNET_SEED")
    rc2, via_flag = run_cli(capsys, "percolate", "--lattice", "8x8",
                            "--p", "0.5", "--trials", "10", "--seed", "123")
    assert rc == rc2 == 0
    assert via_env == via_flag


def test_repeat_runs_are_byte_identical(capsys):
    for argv in (
        ("walk", "--toy", "p3", "--times", "0:5:9"),
        ("rank", "--toy", "chain3-directed", "--variant", "szegedy"),
        ("percolate", "--lattice", "10x10", "--p", "0.45", "--trials", "15"),
    ):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


def _elementwise_plain(x):
    """Payload conversion that visits every array element on its own."""
    if isinstance(x, dict):
        return {str(k): _elementwise_plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_elementwise_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_elementwise_plain(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    return x


_WALK = np.random.default_rng(32).random((120, 2001))  # [node][time]


@pytest.mark.parametrize("payload", [
    {"a": {"b": {"c": [1, [2, [3.5, {"d": []}]]]}, "e": [{"f": {}}, []]}},
    {"empty_dict": {}, "empty_list": [], "nested_empty": [[], {}, [[]]]},
    {"mix": [True, 1, 2.5, False, 0, -0.0, 1e300, 5e-324], "flags": [True, False],
     "scalars": [3, -7, 2**70], "x": 1.0, "y": True, "z": None},
    {"pairs": [(1, 2.5), ("a", None)], "pair": (True, 0.1), "flat": [(), "b"]},
    {"\u00e9t\u00e9": "\u03c8 \u2192 \u03c6", "\u6f22": ["\u00fc", "\n\"\\", "\U0001f600"], "ascii": "plain"},
    {"probabilities": cli._Rows(cli._float_rows(_WALK)[0]),
     "times": np.linspace(0.0, 20.0, 2001).tolist(), "n": 120},
], ids=["nested", "empty", "mixed", "tuples", "non-ascii", "walk-2001x120"])
def test_emit_matches_indented_json_dumps(capsys, payload):
    cli._emit(payload, None)
    plain = {k: _WALK.tolist() if isinstance(v, cli._Rows) else v for k, v in payload.items()}
    expected = json.dumps(plain, indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out.encode() == expected.encode()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_payload_is_refused_before_the_output_opens(capsys, tmp_path, monkeypatch,
                                                                 bad):
    monkeypatch.setattr(cli, "vn_entropy", lambda rho: bad)
    out = tmp_path / "entropy.json"
    rc = main(["entropy", "--toy", "p3", "--output", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert captured.out == ""
    assert not out.exists()
    with pytest.raises(ValueError, match="non-finite"):
        cli._emit({"label": "ok", "rows": [[bad, 1.0]]}, None)
    assert capsys.readouterr().out == ""


@pytest.mark.filterwarnings("ignore::qnet.SupportViolationWarning")
def test_kl_past_the_reference_support_is_the_string_inf(capsys, tmp_path):
    path, links = tmp_path / "path.edges", tmp_path / "links.edges"
    path.write_text("0 1\n1 2\n2 3\n")
    links.write_text("nodes 4\n0 1\n2 3\n")
    rc, out = run_cli(capsys, "compare", "--input", str(path), "--other", str(links),
                      "--density", "rescaled", "--measure", "kl")
    assert rc == 0
    assert out == '{\n  "kl_bits": "inf"\n}\n'


@pytest.fixture(scope="module")
def walk120_edges(tmp_path_factory):
    """A seeded connected 120-node graph as an edge-list file."""
    path = tmp_path_factory.mktemp("walk120") / "w120.edges"
    path.write_text(to_edge_list(random_connected_graph(np.random.default_rng(33), 120, 0.03)))
    return path


@pytest.mark.parametrize("toy,times", [
    ("k2", "0:3.14159:5"),
    ("barbell7", "0:10:11"),
    (None, "0:20:2001"),
], ids=["k2", "barbell7", "n120-2001"])
def test_walk_matrix_out_is_the_json_text_transposed(capsys, tmp_path, walk120_edges,
                                                      toy, times):
    path = None if toy else str(walk120_edges)
    out, mat = tmp_path / "walk.json", tmp_path / "walk.csv"
    rc, _ = run_cli(capsys, "walk", *(("--toy", toy) if toy else ("--input", path)),
                    "--times", times, "--output", str(out), "--matrix-out", str(mat))
    assert rc == 0
    text = out.read_text()
    tokens = json.loads(text, parse_float=str)["probabilities"]  # [node][time] float text
    cells = [line.split(",") for line in mat.read_text().splitlines()]  # [time][node]
    assert cells == [list(column) for column in zip(*tokens)]

    g = cli._load_graph(toy, path, None)
    res = walks.evolve(walks.WalkSpec(generator=cli._hamiltonian(g, "adjacency", False),
                                      initial=0, times=cli._parse_linspace(times, "t")))
    payload = {"generator": "adjacency", "initial": 0, "nodes": g.n, "times": res.times,
               "probabilities": res.series.T, "variance": res.variance,
               "average": res.long_time}
    assert text == json.dumps(_elementwise_plain(payload), indent=2, sort_keys=True) + "\n"


def test_walk_peak_memory_is_bounded_by_its_json_size(capsys, tmp_path, walk120_edges):
    out, mat = tmp_path / "walk.json", tmp_path / "walk.csv"
    argv = ["walk", "--input", str(walk120_edges), "--times", "0:20:2001",
            "--output", str(out), "--matrix-out", str(mat)]
    assert main(argv) == 0  # warm: imports and caches are not the walk's
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * out.stat().st_size


def _repr_rows(m):
    return [",".join(map(repr, row)) for row in np.asarray(m, dtype=float).tolist()]


def _one_ulp_off(m):
    m = m.copy()
    m[0, -1] = np.nextafter(m[0, -1], np.inf)
    return m


def _signed_zero(m):
    m = m.copy()
    m[0, 1], m[1, 0] = 0.0, -0.0
    return m


_SYM = np.random.default_rng(34).standard_normal((9, 9))
_SYM = _SYM + _SYM.T
_SYM_300 = np.random.default_rng(36).random((300, 300))
_SYM_300 = _SYM_300 + _SYM_300.T


@pytest.mark.parametrize("matrix,mirrored", [
    (_SYM, True),
    (_one_ulp_off(_SYM), False),
    (_signed_zero(_SYM), False),
    (np.array([[0.1]]), True),
    (np.array([[0.1, 2.0, 1e-300, -3.5e17]]), False),
    (np.array([[0.1], [2.0], [1e-300], [-3.5e17]]), False),
    (np.random.default_rng(35).random((700, 50)), False),
    (_SYM_300, True),
], ids=["symmetric", "one-ulp-off", "signed-zero", "1x1", "1xn", "nx1", "multi-block",
        "symmetric-multi-block"])
def test_float_rows_are_repr_text_of_rows_and_columns(matrix, mirrored):
    rows, columns = cli._float_rows(matrix)
    assert rows == _repr_rows(matrix)
    assert columns == _repr_rows(matrix.T)
    assert (rows is columns) == mirrored


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_out_is_refused_before_the_file_is_created(
        capsys, tmp_path, monkeypatch, bad):
    def broken(h, policy):
        m = np.zeros(h.shape)
        m[0, 1] = m[1, 0] = bad
        return communities.ClosenessMatrix(m, "fidelity")
    monkeypatch.setattr(cli, "closeness_fidelity", broken)
    out = tmp_path / "closeness.csv"
    rc = main(["communities", "--toy", "barbell7", "--measure", "fidelity",
               "--matrix-out", str(out)])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes


def test_compare_js_takes_each_entropy_once(capsys, monkeypatch):
    calls = []

    def counted(rho):
        calls.append(rho)
        return vn_entropy(rho)
    monkeypatch.setattr(entropy, "vn_entropy", counted)
    payload = run_json(capsys, "compare", "--toy", "p3", "--other-toy", "triangle")
    assert len(calls) == 3    # rho, sigma and their mixture
    assert payload["js_distance"] == math.sqrt(payload["js_divergence_bits"])


def test_missing_file_is_io_failure(capsys):
    rc = main(["entropy", "--input", "/nonexistent/file.edges"])
    capsys.readouterr()
    assert rc == 3


@pytest.mark.parametrize("command", ["entropy", "layers"])
def test_bad_edge_list_names_its_line(capsys, tmp_path, command):
    good, bad = tmp_path / "good.edges", tmp_path / "bad.edges"
    good.write_text("0 1\n1 2\n")
    bad.write_text("nodes 3\n0 1\n1 2 nan\n")
    command = [command] if command == "entropy" else [command, "--input", str(good)]
    rc = main(command + ["--input", str(bad)])
    assert rc == 1
    assert "line 3: non-finite weight or phase" in capsys.readouterr().err
    rc = main(command + ["--input", str(tmp_path / "missing.edges")])
    capsys.readouterr()
    assert rc == 3


@pytest.mark.parametrize("argv", [
    ["entropy", "--density", "propagator", "--input", "{empty}"],
    ["layers", "--input", "{empty}", "--input", "{comments}"],
    ["communities", "--t", "1.0", "--input", "{empty}"],
    ["compare", "--input", "{empty}", "--other", "{comments}"],
], ids=["entropy", "layers", "communities", "compare"])
def test_edge_list_without_nodes_is_usage_error(capsys, tmp_path, argv):
    files = {"empty": tmp_path / "empty.edges", "comments": tmp_path / "comments.edges"}
    files["empty"].write_text("")
    files["comments"].write_text("# no edges\n")
    rc = main([a.format(**files) for a in argv])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"qnet: error: {files['empty']}: edge list has no nodes\n"


def test_overflowing_horizon_exits_0(capsys):
    payload = run_json(capsys, "communities", "--toy", "barbell7", "--t", "1.7e308")
    assert payload["time"] == 1.7e308


def test_bad_flag_is_usage_error(capsys):
    rc = main(["walk", "--toy", "k2", "--times", "abc"])
    capsys.readouterr()
    assert rc == 1
    rc = main(["walk"])  # neither --toy nor --input
    capsys.readouterr()
    assert rc == 1
    rc = main(["entropy", "--toy", "k2", "--input", "x.edges"])
    capsys.readouterr()
    assert rc == 1


def test_directed_graph_without_symmetrize_rejected(capsys, tmp_path):
    path = tmp_path / "d.edges"
    path.write_text("directed\n0 1\n1 2\n")
    rc = main(["walk", "--input", str(path), "--times", "0:1:3"])
    capsys.readouterr()
    assert rc == 1
    rc = main(["walk", "--input", str(path), "--times", "0:1:3", "--symmetrize"])
    capsys.readouterr()
    assert rc == 0


def test_unstable_integration_is_numerical_failure(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise IntegrationInstabilityError("trace drifted to 1.5 at t=1; reduce dt")
    monkeypatch.setattr(cli, "interpolated_rank", fail)
    rc = main(["rank", "--toy", "chain3-directed", "--variant", "interpolated",
               "--alpha", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "qnet: numerical failure:" in err
    # the steady state is solved, not integrated: there is no step to set
    rc = main(["rank", "--toy", "chain3-directed", "--variant", "interpolated",
               "--alpha", "0.5", "--dt", "1"])
    capsys.readouterr()
    assert rc == 1


def test_linalg_failure_is_numerical_failure(capsys, monkeypatch):
    def fail(rho):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(cli, "vn_entropy", fail)
    rc = main(["entropy", "--toy", "triangle"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "qnet: numerical failure:" in err


def test_drifted_walk_distribution_is_numerical_failure(capsys, monkeypatch):
    exact = walks.hermitian_eig

    def inflated(m, **kwargs):  # eigenvectors 10% too long: sums read 1.21
        dec = exact(m, **kwargs)
        return dataclasses.replace(dec, vectors=1.1 * dec.vectors)
    monkeypatch.setattr(walks, "hermitian_eig", inflated)
    rc = main(["walk", "--toy", "k2", "--times", "0:1:5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "qnet: numerical failure: occupation distribution sum drifted" in err


def test_oversized_lattice_is_usage_error(capsys):
    rc = main(["percolate", "--lattice", "100000x100000", "--p", "0.5", "--trials", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "qnet: error:" in err and "exceeds the limit" in err


def test_oversized_szegedy_steps_are_usage_error(capsys):
    tracemalloc.start()
    try:
        rc = main(["rank", "--toy", "chain3-directed", "--variant", "szegedy",
                   "--steps", "100000000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 1
    assert "qnet: error:" in err and "step series" in err and "exceeds the limit" in err
    assert peak < 1 << 20


def test_oversized_szegedy_register_is_usage_error(capsys, tmp_path):
    path = tmp_path / "wide.edges"
    path.write_text("directed\nnodes 2049\n0 1\n")
    rc = main(["rank", "--input", str(path), "--variant", "szegedy", "--steps", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "qnet: error:" in err and "register array" in err and "exceeds the limit" in err


def test_szegedy_rank_runs_past_the_dense_cap(capsys, tmp_path):
    n = 200
    path = tmp_path / "tournament.edges"
    path.write_text("directed\n" + "".join(f"{i} {j}\n" for i in range(n)
                                           for j in range(i + 1, n)))
    payload = run_json(capsys, "rank", "--input", str(path), "--variant", "szegedy",
                       "--steps", "16")
    assert len(payload["scores"]) == n
    assert sum(payload["scores"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("edge", ["0 1 nan", "0 1 inf", "0 1 1.0 nan", "0 1 1.0 -inf"])
@pytest.mark.parametrize("command", [["entropy"], ["rank", "--variant", "classical"]])
def test_non_finite_edge_is_usage_error(capsys, tmp_path, edge, command):
    path = tmp_path / "bad.edges"
    path.write_text(f"1 2\n{edge}\n")
    rc = main([*command, "--input", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "qnet: error:" in err and "non-finite" in err


def test_threads_flag_is_gone(capsys):
    rc = main(["percolate", "--lattice", "8x8", "--p", "0.5", "--threads", "2"])
    capsys.readouterr()
    assert rc == 1


FLOAT_FLAGS = [
    ["rank", "--toy", "chain3-directed", "--damping"],
    ["rank", "--toy", "chain3-directed", "--variant", "interpolated", "--alpha"],
    ["entropy", "--toy", "p3", "--density", "propagator", "--tau"],
    ["compare", "--toy", "p3", "--other-toy", "p3", "--tau"],
    ["communities", "--toy", "barbell7", "--measure", "short-time", "--t"],
    ["communities", "--toy", "barbell7", "--measure", "long-time", "--t"],
    ["communities", "--toy", "barbell7", "--method", "magnetic", "--theta"],
    ["percolate", "--lattice", "8x8", "--p"],
    ["percolate", "--lattice", "8x8", "--link-p"],
    ["percolate", "--emergence", "edge", "--n-values", "8", "--trials", "2", "--z"],
    ["layers", "--tau"],
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", FLOAT_FLAGS, ids=lambda a: f"{a[0]}{a[-1]}")
def test_non_finite_float_flag_is_usage_error(capsys, argv, value):
    rc = main([*argv[:-1], f"{argv[-1]}={value}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"argument {argv[-1]}: expected a finite number" in err


@pytest.mark.parametrize("measure", ["long-time", "short-time"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_horizon_writes_no_matrix(capsys, tmp_path, measure, value):
    out = tmp_path / "closeness.csv"
    rc = main(["communities", "--toy", "barbell7", "--measure", measure,
               "--t", value, "--matrix-out", str(out)])
    capsys.readouterr()
    assert rc == 1
    assert not out.exists()


def test_magnetic_needs_theta(capsys):
    rc = main(["communities", "--toy", "barbell7", "--method", "magnetic"])
    capsys.readouterr()
    assert rc == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qnet.cli", "entropy", "--toy", "triangle"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entropy_bits"] == pytest.approx(1.0, abs=1e-12)


def test_cli_import_leaves_scipy_cluster_unloaded():
    # scipy.cluster is most of the package's import time; only the layer
    # dendrogram and the magnetic k-means load it, when they run
    code = ("import sys, qnet.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.cluster')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["walk", "--toy", "k2", "--times", "0:inf:3"],
    ["walk", "--toy", "k2", "--times", "nan:1:3"],
    ["walk", "--toy", "k2", "--times=-1e308:1e308:3"],
    ["percolate", "--lattice", "8x8", "--scan", "0:nan:3"],
    ["percolate", "--lattice", "8x8", "--scan", "0.2,inf"],
    ["percolate", "--emergence", "triangle", "--n-values", "16", "--c-values", "inf"],
    ["percolate", "--emergence", "triangle", "--n-values", "16", "--c-values", "0.5,nan"],
    ["percolate", "--emergence", "triangle", "--n-values", "inf", "--c-values", "0.5"],
], ids=" ".join)
def test_non_finite_grid_is_usage_error(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "qnet: error:" in err and "finite" in err


@pytest.mark.parametrize("argv", [
    ["percolate", "--lattice", "8x8", "--scan", ",", "--trials", "2"],
    ["percolate", "--emergence", "triangle", "--n-values", ",", "--c-values", "0.5,1"],
], ids=" ".join)
def test_empty_grid_is_usage_error(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "qnet: error:" in captured.err and "must not be empty" in captured.err


def test_oversized_time_grid_is_usage_error(capsys):
    tracemalloc.start()
    try:
        rc = main(["walk", "--toy", "k2", "--times", "0:1:10000000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 1
    assert "qnet: error:" in err and "exceeds the limit" in err
    assert peak < 1 << 20


@pytest.mark.parametrize("flag", ["--trials=0", "--trials=-2", "--n-values=0",
                                  "--n-values=-4", "--n-values=100000000", "--c-values=-1,2"])
def test_bad_emergence_input_is_usage_error(capsys, flag):
    tracemalloc.start()
    try:
        rc = main(["percolate", "--emergence", "triangle", "--n-values", "32",
                   "--c-values", "0.5,3", "--trials", "4", flag])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 1
    assert "qnet: error:" in err
    assert peak < 1 << 20


@pytest.mark.parametrize("values", ["32.9", "16,32.5", "32:64:4"])
def test_fractional_emergence_size_is_usage_error(capsys, values):
    rc = main(["percolate", "--emergence", "triangle", "--n-values", values,
               "--c-values", "0.5", "--trials", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "qnet: error:" in err and "--n-values" in err


def test_whole_emergence_sizes_from_a_grid_are_accepted(capsys):
    payload = run_json(capsys, "percolate", "--emergence", "triangle", "--n-values", "32:64:3",
                       "--c-values", "0.5", "--trials", "2")
    assert payload["n_values"] == [32, 48, 64]


def test_oversized_link_failure_is_usage_error(capsys, tmp_path):
    path = tmp_path / "big.edges"
    path.write_text("nodes 513\n0 1\n")
    assert main(["communities", "--input", str(path), "--measure", "link-failure"]) == 1
    assert "exceeds the chunk limit" in capsys.readouterr().err


# one process, one parser: defaults must come back after a call that set
# them, and a usage error must leave nothing behind for the next call
BACK_TO_BACK = [
    ["rank", "--toy", "chain3-directed", "--variant", "adiabatic"],
    ["walk", "--toy", "k2", "--times", "0:1:3"],
    ["percolate", "--emergence", "triangle", "--n-values", "32.9"],
    ["rank", "--toy", "chain3-directed"],
    ["entropy", "--toy", "star-s4", "--density", "propagator", "--tau=nan"],
    ["communities", "--toy", "barbell7", "--measure", "link-failure"],
    ["entropy", "--toy", "star-s4"],
]


def test_back_to_back_main_calls_match_fresh_processes(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        runs = []
        for argv in BACK_TO_BACK:
            rc = main(list(argv))
            captured = capsys.readouterr()
            runs.append((rc, captured.out.encode(), captured.err.encode()))
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    for argv, (rc, out, err) in zip(BACK_TO_BACK, runs):
        proc = subprocess.run([sys.executable, "-m", "qnet.cli", *argv], capture_output=True)
        assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
