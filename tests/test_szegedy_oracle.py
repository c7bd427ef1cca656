"""The register-array Szegedy step against the dense edge-space reference in
_szegedy_reference: seeded random digraphs for the ranking, and property
tests for the single step and for the dense step matrix at its cap. Both
paths of szegedy_rank, the coefficient walk and the register walk, against
a long-double register walk, and the coefficient step against the register
step on the span of the prepared columns and their swaps."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnet import google_matrix, ranking, szegedy_rank, szegedy_step_matrix, toys
from qnet.ranking import _coefficient_step, _szegedy_step

from _helpers import random_directed_graph
import _szegedy_reference as reference

# sizes of the seeded digraphs: both ends of the dense reference's range and
# eighteen drawn in between
ORACLE_SIZES = (2, 64, *np.random.default_rng(2012).integers(3, 64, size=18).tolist())

# the two steps differ only in summation order, which rounding alone separates
ORACLE_ATOL = 1e-13

# one step against the dense unitary, entry by entry and in norm
STEP_ATOL = 1e-10

# every path over 512 steps against the long-double register walk
LONG_DOUBLE_ATOL = 1e-13

# (graph, damping) of the long-double comparison: the undirected toys, whose
# discriminant has eigenvalues within 1e-3 of 1, and the directed 2-cycle, at
# eigenvalue 1, take the register walk; the 3-chain and the larger seeded
# digraphs are gapped enough for the coefficient walk
LONG_DOUBLE_CASES = {
    "barbell7-0.85": (lambda: toys.toy_graph("barbell7"), 0.85),
    "barbell7-0.99": (lambda: toys.toy_graph("barbell7"), 0.99),
    "lattice-8x8-0.85": (lambda: toys.toy_graph("lattice-8x8"), 0.85),
    "lattice-8x8-0.99": (lambda: toys.toy_graph("lattice-8x8"), 0.99),
    "cycle2-0.85": (lambda: toys.directed_cycle(2), 0.85),
    "chain3-0.85": (lambda: toys.toy_graph("chain3-directed"), 0.85),
    **{f"digraph{n}-{seed}": (lambda n=n, seed=seed: random_directed_graph(
        np.random.default_rng(seed), n), 0.85)
       for seed, n in ((1, 3), (2, 5), (3, 8), (4, 16), (5, 24), (6, 48))},
}


# runs of one and two 32-step periods: the longer run checks that rounding
# does not build up between the two walks over the renormalized steps
@pytest.mark.parametrize("periods", [1, 2])
@pytest.mark.parametrize("damping", [0.85, 0.5])
@pytest.mark.parametrize("case", range(len(ORACLE_SIZES)))
def test_szegedy_rank_matches_dense_reference(case, damping, periods):
    rng = np.random.default_rng(700 + case)
    gm = google_matrix(random_directed_graph(rng, ORACLE_SIZES[case]), damping)
    got = szegedy_rank(gm, steps=32 * periods)
    want = reference.szegedy_rank(gm, steps=32 * periods)
    for field in ("scores", "variance", "series"):
        np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                   rtol=0.0, atol=ORACLE_ATOL, err_msg=field)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       damping=st.floats(0.05, 1.0))
def test_szegedy_step_matches_dense_matrix_and_keeps_norm(n, seed, damping):
    rng = np.random.default_rng(seed)
    gm = google_matrix(random_directed_graph(rng, n), damping)
    apply, size = reference.szegedy_step_operator(gm)
    assert size == n
    x = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    y = apply(x)
    assert np.abs(y - szegedy_step_matrix(gm) @ x).max() <= STEP_ATOL
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= STEP_ATOL * np.linalg.norm(x)


def test_dense_step_matches_reference_at_the_cap():
    rng = np.random.default_rng(64)
    gm = google_matrix(random_directed_graph(rng, 64), 0.85)
    apply, _ = reference.szegedy_step_operator(gm)
    x = rng.standard_normal(64 * 64) + 1j * rng.standard_normal(64 * 64)
    assert np.abs(szegedy_step_matrix(gm) @ x - apply(x)).max() <= STEP_ATOL


def test_step_on_a_stack_is_bitwise_the_step_on_each_array():
    rng = np.random.default_rng(19)
    s = np.sqrt(google_matrix(random_directed_graph(rng, 9), 0.85).matrix).T
    stack = rng.standard_normal((5, 9, 9))
    got = _szegedy_step(s, 2.0 * s, stack)
    for b in range(len(stack)):
        assert got[b].tobytes() == _szegedy_step(s, 2.0 * s, stack[b]).tobytes()


@pytest.mark.parametrize("case", LONG_DOUBLE_CASES)
def test_both_walks_match_the_long_double_walk_over_512_steps(case):
    build, damping = LONG_DOUBLE_CASES[case]
    gm = google_matrix(build(), damping)
    want = reference.long_double_series(gm, 512)
    got = szegedy_rank(gm, steps=512)
    assert np.abs(got.series - want).max() <= LONG_DOUBLE_ATOL
    scores = want.mean(axis=0)
    assert np.abs(got.scores - scores / scores.sum()).max() <= LONG_DOUBLE_ATOL


def _register_array(s, a, b):
    """x = sum_i a_i psi_i + b_i phi_i as a register array: x[i, k] = a_i s[i, k] + b_k s[k, i]."""
    return a[:, None] * s + (b[:, None] * s).T


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       damping=st.floats(0.05, 1.0))
def test_coefficient_step_is_the_register_step_on_the_span(n, seed, damping):
    rng = np.random.default_rng(seed)
    mat = google_matrix(random_directed_graph(rng, n), damping).matrix
    s, d = np.sqrt(mat).T, np.sqrt(mat * mat.T)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    want = _szegedy_step(s, 2.0 * s, _szegedy_step(s, 2.0 * s, _register_array(s, a, b)))
    assert np.abs(_register_array(s, *_coefficient_step(2.0 * d, a, b)) - want).max() <= STEP_ATOL


def _never(*args):
    raise AssertionError("the other walk ran")


@pytest.mark.parametrize("damping", [0.85, 0.99])
def test_gapped_directed_chain_takes_the_coefficient_walk(monkeypatch, damping):
    gm = google_matrix(toys.toy_graph("chain3-directed"), damping)
    want = szegedy_rank(gm, steps=512)
    monkeypatch.setattr(ranking, "_register_series", _never)
    assert np.array_equal(szegedy_rank(gm, steps=512).series, want.series)


@pytest.mark.parametrize("name", ["k2", "p3", "triangle", "star-s4", "barbell7",
                                  "lattice-8x8", "cycle2"])
def test_undirected_toys_and_the_two_cycle_take_the_register_walk(monkeypatch, name):
    g = toys.directed_cycle(2) if name == "cycle2" else toys.toy_graph(name)
    gm = google_matrix(g, 0.85)
    want = szegedy_rank(gm, steps=512)
    monkeypatch.setattr(ranking, "_coefficient_series", _never)
    assert np.array_equal(szegedy_rank(gm, steps=512).series, want.series)
