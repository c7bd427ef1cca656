"""Command-line interface: payload schemas, exit codes, file outputs, and
byte-determinism."""
from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qnet import IntegrationInstabilityError, cli, walks
from qnet.cli import main

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
    rc, _ = run_cli(capsys, "percolate", "--lattice", "8x8", "--p", "0.5",
                    "--trials", "6", "--trials-out", str(path))
    assert rc == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p,trial,spanning,largest_fraction"
    assert len(lines) == 7


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
        v = float(x)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return x


def test_emitted_arrays_match_elementwise_conversion(capsys):
    rng = np.random.default_rng(31)
    floats = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
    nonfinite = floats.copy()
    nonfinite[1, 2], nonfinite[3, 0], nonfinite[6, 4] = np.nan, np.inf, -np.inf
    payload = {
        "bool": rng.random((3, 4)) < 0.5,
        "int": rng.integers(-2**40, 2**40, size=(4, 3)),
        "uint8": rng.integers(0, 255, size=6).astype(np.uint8),
        "float": floats,
        "float32": rng.standard_normal(5).astype(np.float32),
        "nonfinite": nonfinite,
        "empty": np.zeros((0, 3)),
        "nested": [{"row": floats[2]}, (np.arange(3), 0.5)],
    }
    cli._emit(payload, None)
    expected = json.dumps(_elementwise_plain(payload), indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out.encode() == expected.encode()


# ---------------------------------------------------------------------------
# exit codes


def test_missing_file_is_io_failure(capsys):
    rc = main(["entropy", "--input", "/nonexistent/file.edges"])
    capsys.readouterr()
    assert rc == 3


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
