"""The register-array Szegedy step against the dense edge-space reference in
_szegedy_reference: seeded random digraphs for the ranking, and property
tests for the single step and for the dense step matrix at its cap."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnet import google_matrix, szegedy_rank, szegedy_step_matrix
from qnet.ranking import _szegedy_step

from _helpers import random_directed_graph
import _szegedy_reference as reference

# sizes of the seeded digraphs: both ends of the dense reference's range and
# eighteen drawn in between
ORACLE_SIZES = (2, 64, *np.random.default_rng(2012).integers(3, 64, size=18).tolist())

# the two steps differ only in summation order, which rounding alone separates
ORACLE_ATOL = 1e-13

# one step against the dense unitary, entry by entry and in norm
STEP_ATOL = 1e-10


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
