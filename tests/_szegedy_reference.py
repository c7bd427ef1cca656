"""Dense edge-space reference for the two-register Szegedy walk, kept as the
oracle for the register-array step in qnet.ranking: the n^2 x n real
state-prep matrix of prepared columns, a step operator that applies it twice
per reflection, and the ranking loop built on them.
"""
from __future__ import annotations

import numpy as np

from qnet.graphs import GoogleMatrix
from qnet.ranking import RankingResult, _as_transition


def szegedy_state_prep(gm: GoogleMatrix | np.ndarray) -> np.ndarray:
    """Columns psi_i = |i>_1 (x) sum_k sqrt(G_ki) |k>_2 in the n*n edge space."""
    mat = _as_transition(gm)
    n = mat.shape[0]
    sq = np.sqrt(mat)
    psi = np.zeros((n * n, n))
    for i in range(n):
        psi[i * n: (i + 1) * n, i] = sq[:, i]
    return psi


def szegedy_step_operator(gm: GoogleMatrix | np.ndarray):
    """Return (apply, n): apply(x) is one step swap . (2 Pi - 1) applied to x."""
    psi = szegedy_state_prep(gm)
    n = psi.shape[1]

    def apply(x: np.ndarray) -> np.ndarray:
        y = 2.0 * (psi @ (psi.conj().T @ x)) - x
        return y.reshape(n, n).T.reshape(-1)

    return apply, n


def szegedy_rank(
    gm: GoogleMatrix | np.ndarray,
    steps: int = 512,
) -> RankingResult:
    """Cumulative time-averaged second-register occupations of the
    two-register walk.

    One walk step is the two-reflection composition (swap . reflect applied
    twice), which keeps the register roles fixed between measurements; the
    walk starts in the uniform superposition of the prepared columns, the
    second register is read after each of t = 1..steps walk steps, and the
    scores are the running mean with per-node variance of the step series.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    apply, n = szegedy_step_operator(gm)
    psi = szegedy_state_prep(gm).sum(axis=1) / np.sqrt(n)
    state = psi.astype(complex)
    series = np.empty((steps, n))
    for t in range(steps):
        state = apply(apply(state))
        state = state / np.linalg.norm(state)
        series[t] = (np.abs(state.reshape(n, n)) ** 2).sum(axis=0)
    scores = series.mean(axis=0)
    scores = scores / scores.sum()
    return RankingResult(
        variant="szegedy",
        scores=scores,
        variance=series.var(axis=0),
        series=series,
    )


def long_double_series(gm: GoogleMatrix | np.ndarray, steps: int) -> np.ndarray:
    """The register walk's step series in long double (np.longdouble): the
    register array x[i, k] on |i>_1 |k>_2 from s[i, k] = sqrt(G_ki) of the
    given float64 G, two reflect-and-swaps a step, renormalized every step.
    Where long double carries more digits than float64 (x86 extended
    precision), its own rounding sits far below a float64 walk's."""
    s = np.sqrt(_as_transition(gm).astype(np.longdouble)).T
    n = s.shape[0]
    x = s / np.sqrt(np.longdouble(n))
    series = np.empty((steps, n), dtype=np.longdouble)
    for t in range(steps):
        for _ in range(2):
            x = (2 * s * (s * x).sum(axis=-1)[:, None] - x).T
        x = x / np.sqrt((x * x).sum())
        series[t] = (x * x).sum(axis=0)
    return series
