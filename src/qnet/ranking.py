"""Node ranking: power iteration, ground-state ranking, edge-space walks,
and dissipative interpolation between the unitary and classical limits.

The ground-state ranking reads the kernel of rank_hamiltonian, the positive
semidefinite (I - G)^T (I - G) of a column-stochastic G, which is the
stationary distribution.

The two-register (Szegedy) walk ranks by the occupations of its second
register, the one Paparo and Martin-Delgado measure. Its state stays in the
span of the prepared columns psi_i and their swaps phi_i, so where rounding
allows it the walk runs on the 2n coefficients of that span, two matvecs with
the discriminant D = sqrt(G o G^T) a step; elsewhere it keeps the n x n
register array, one O(n^2) reflect-and-swap at a time. Graphs of up to 2048
nodes rank, the limit MAX_SZEGEDY_ENTRIES sets on n^2 and on the step series.
szegedy_step_matrix writes the register step densely on the n^2 edge space,
for unitarity checks on graphs of up to 64 nodes.

The dissipative rankings are steady states of a master equation, solved in
closed form on the eigendecomposition of the symmetrized Hamiltonian rather
than found by integrating it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS
from .errors import ConvergenceError
from .graphs import Graph, GoogleMatrix, adjacency_matrix, google_matrix
from .linalg import _kernel_transport, hermitian_eig

# szegedy_step_matrix is (n^2)^2 entries, 128 MiB at this cap of n^2 = 4096
SZEGEDY_EDGE_SPACE_CAP = 4096
# n * n (the register array, or the discriminant of the coefficient walk) and
# the step series (steps * n entries, which also bounds the coefficient
# history of 2 * steps * n) are checked against this count before anything is
# allocated; a 2048-node graph is the largest the walk takes.
MAX_SZEGEDY_ENTRIES = 2**22
# power-iteration steps classical_pagerank takes before it gives up
MAX_PAGERANK_ITERATIONS = 10_000


@dataclass(frozen=True)
class RankingResult:
    variant: str
    scores: np.ndarray
    variance: np.ndarray | None = None
    ground_eigenvalue: float | None = None
    alpha: float | None = None
    converged: bool | None = None
    iterations: int | None = None
    degenerate: bool | None = None
    series: np.ndarray | None = field(default=None, repr=False)


def _as_transition(gm: GoogleMatrix | np.ndarray) -> np.ndarray:
    mat = gm.matrix if isinstance(gm, GoogleMatrix) else np.asarray(gm, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(f"transition matrix must be square and non-empty, got {mat.shape}")
    col_sums = mat.sum(axis=0)
    if (np.abs(col_sums - 1.0).max() > DEFAULT_TOLS.distribution_sum_atol
            or mat.min() < -DEFAULT_TOLS.distribution_negative_atol):
        raise ValueError("matrix is not column-stochastic")
    return mat


def classical_pagerank(gm: GoogleMatrix | np.ndarray) -> RankingResult:
    """Stationary distribution by power iteration from the uniform start, stopped
    once one step changes it by at most Tolerances.pagerank_l1_atol (L1)."""
    mat = _as_transition(gm)
    n = mat.shape[0]
    p = np.full(n, 1.0 / n)
    for it in range(1, MAX_PAGERANK_ITERATIONS + 1):
        nxt = mat @ p
        nxt /= nxt.sum()
        if np.abs(nxt - p).sum() <= DEFAULT_TOLS.pagerank_l1_atol:
            return RankingResult(variant="classical", scores=nxt, iterations=it)
        p = nxt
    raise ConvergenceError(
        "power iteration did not reach L1 tolerance "
        f"{DEFAULT_TOLS.pagerank_l1_atol:.1e} in {MAX_PAGERANK_ITERATIONS} steps"
    )


def rank_hamiltonian(gm: GoogleMatrix | np.ndarray) -> np.ndarray:
    """(I - G)^H (I - G): PSD, and its kernel is the stationary distribution."""
    mat = _as_transition(gm)
    shifted = np.eye(mat.shape[0]) - mat
    return shifted.T @ shifted


def adiabatic_rank(gm: GoogleMatrix | np.ndarray) -> RankingResult:
    """Ranking from the ground state of the PSD rank Hamiltonian.

    A degenerate ground space (ties in the stationary structure, e.g. damping
    1 on a disconnected graph) is flagged; scores then come from the
    basis-independent ground-projector diagonal, the squared row norms of the
    ground eigenvector block.
    """
    h = rank_hamiltonian(gm)
    dec = hermitian_eig(h)
    ground_energy = float(dec.group_values[0])
    if dec.ground_degeneracy > 1:
        scores = np.sum(np.abs(dec.blocks[0]) ** 2, axis=1)
        scores /= scores.sum()
        return RankingResult(
            variant="adiabatic",
            scores=scores,
            ground_eigenvalue=ground_energy,
            degenerate=True,
        )
    v0 = np.real(dec.ground_vector)
    if v0.sum() < 0:
        v0 = -v0
    scores = np.clip(v0, 0.0, None)
    scores /= scores.sum()
    return RankingResult(
        variant="adiabatic",
        scores=scores,
        ground_eigenvalue=ground_energy,
        degenerate=False,
    )


# ---------------------------------------------------------------------------
# edge-space (two-register) walk


def _szegedy_step(s: np.ndarray, s2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One step swap . (2 Pi - 1) on the register array x, x[i, k] on
    |i>_1 |k>_2, or on each array of a stack x[..., i, k], with
    s[i, k] = sqrt(G_ki) and s2 = 2.0 * s, built once per walk: Pi projects
    onto the prepared columns |i>_1 (x) s[i], and the swap exchanges the
    registers. O(n^2) per array."""
    c = (s * x).sum(axis=-1)
    return (s2 * c[..., None] - x).swapaxes(-1, -2)


def szegedy_step_matrix(gm: GoogleMatrix | np.ndarray) -> np.ndarray:
    """Dense one-step operator on the flat edge space, entry i * n + k on
    |i>_1 |k>_2: column b is the walk's own step applied to basis state b.
    For small n (unitarity checks), capped at SZEGEDY_EDGE_SPACE_CAP."""
    s = np.sqrt(_as_transition(gm)).T
    n = s.shape[0]
    if n * n > SZEGEDY_EDGE_SPACE_CAP:
        raise ValueError(
            f"edge space {n}^2 exceeds the dense cap {SZEGEDY_EDGE_SPACE_CAP}"
        )
    step = _szegedy_step(s, 2.0 * s, np.eye(n * n).reshape(n * n, n, n))
    return step.reshape(n * n, n * n).T


def _register_series(mat: np.ndarray, steps: int) -> np.ndarray:
    """Register-2 occupations after each of 1..steps walk steps, from the n x n
    register array, renormalized after every step."""
    n = mat.shape[0]
    s = np.sqrt(mat).T
    s2 = 2.0 * s
    x = s / np.sqrt(n)
    series = np.empty((steps, n))
    for t in range(steps):
        x = _szegedy_step(s, s2, _szegedy_step(s, s2, x))
        x = x / np.linalg.norm(x)
        series[t] = (x ** 2).sum(axis=0)
    return series


def _coefficient_step(d2: np.ndarray, a: np.ndarray, b: np.ndarray):
    """One walk step on the coefficients of x = sum_i a_i psi_i + b_i phi_i,
    with d2 = 2D: each reflect-and-swap maps (a, b) to (-b, a + 2Db), since
    <psi_i|phi_j> = D_ij, so two of them give (-u, 2Du - b) with u = a + 2Db."""
    u = a + d2 @ b
    return -u, d2 @ u - b


def _coefficient_series(mat: np.ndarray, d2: np.ndarray, steps: int) -> np.ndarray:
    """Register-2 occupations after each of 1..steps walk steps, from the 2n
    coefficients (a, b) of the state, stored for every step. The register-2
    occupation of x is G a^2 + b o (2Da + b), whose sum is |x|^2, so each
    step's row is divided by its sum; the rows for all steps take two GEMMs."""
    n = mat.shape[0]
    a_t, b_t = np.empty((steps, n)), np.empty((steps, n))
    a, b = np.full(n, 1.0 / np.sqrt(n)), np.zeros(n)
    for t in range(steps):
        a, b = _coefficient_step(d2, a, b)
        a_t[t], b_t[t] = a, b
    cross = a_t @ d2
    cross += b_t
    cross *= b_t
    a_t *= a_t
    series = a_t @ mat.T
    series += cross
    series /= series.sum(axis=1, keepdims=True)
    return series


def _coefficients_admitted(d: np.ndarray, steps: int) -> bool:
    """Whether the coefficient walk stays accurate on the discriminant d over
    steps walk steps. An eigenvalue of d near +-1 makes the frame {psi, phi}
    nearly degenerate, and each step's rounding then enters the coefficients
    magnified by 1/sqrt(gap), gap = 1 - max|eig d|; the unitary walk carries
    it along undamped. The walk is admitted while steps * eps / sqrt(gap)
    stays within Tolerances.szegedy_rounding_atol."""
    gap = 1.0 - np.abs(np.linalg.eigvalsh(d)).max()
    return (steps * np.finfo(float).eps
            <= DEFAULT_TOLS.szegedy_rounding_atol * np.sqrt(max(gap, 0.0)))


def szegedy_rank(
    gm: GoogleMatrix | np.ndarray,
    steps: int = 512,
) -> RankingResult:
    """Cumulative time-averaged occupations of the second register of the
    two-register walk, the register Paparo and Martin-Delgado measure.

    One walk step is the two-reflection composition (swap . reflect applied
    twice), which keeps the register roles fixed between measurements; the
    walk starts in the uniform superposition of the prepared columns, the
    second register is read after each of t = 1..steps walk steps, and the
    scores are the running mean with per-node variance of the step series.

    The state stays in span{psi_i, phi_i}. Where the discriminant
    D = sqrt(G o G^T) has the spectral gap that _coefficients_admitted asks
    for, the walk keeps the state's 2n coefficients, two matvecs a step, and
    their 2 * steps * n history; this is the path of gapped directed chains.
    Elsewhere, as on every undirected toy graph at 512 steps, it keeps the
    n x n register array, O(n^2) time and memory a step. n^2 and the step
    series (steps * n entries) are each checked against MAX_SZEGEDY_ENTRIES
    before anything is allocated, which admits graphs of up to 2048 nodes.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    mat = _as_transition(gm)
    n = mat.shape[0]
    if n * n > MAX_SZEGEDY_ENTRIES:
        raise ValueError(f"register array of {n}^2 entries exceeds the limit of "
                         f"{MAX_SZEGEDY_ENTRIES} entries")
    if steps * n > MAX_SZEGEDY_ENTRIES:
        raise ValueError(f"step series of {steps} steps x {n} nodes exceeds the limit "
                         f"of {MAX_SZEGEDY_ENTRIES} entries")
    d = np.sqrt(mat * mat.T)
    if _coefficients_admitted(d, steps):
        series = _coefficient_series(mat, 2.0 * d, steps)
    else:
        series = _register_series(mat, steps)
    scores = series.mean(axis=0)
    scores = scores / scores.sum()
    return RankingResult(
        variant="szegedy",
        scores=scores,
        variance=series.var(axis=0),
        series=series,
    )


# ---------------------------------------------------------------------------
# dissipative ranking


def _symmetrized_hamiltonian(g: Graph) -> np.ndarray:
    a = np.abs(adjacency_matrix(g))
    return 0.5 * (a + a.T)


def _dissipative_rank(g: Graph, unitary_weight: float, dissipative_weight: float,
                      damping: float, jump_form: str):
    """Scores, converged flag and degenerate flag of the steady state of
    d rho/dt = -i wu [H, rho] + wd * sum_ij (L_ij rho L_ij^H - {L_ij^H L_ij, rho}/2).

    transport: L_ij = sqrt(G_ij) |i><j| moves population along the chain.
    In the eigenbasis of H a steady state has rho_ab = K_ab diag(G p)_ab with
    K_ab = wd / (wd + i wu (l_a - l_b)), the Fourier transform of the
    positive measure wd e^{-wd s} ds, hence Hermitian PSD. Its diagonal is
    p = Phi G p with the doubly stochastic Phi = _kernel_transport(dec, K),
    so p is the stationary distribution of the column-stochastic Phi G,
    taken from adiabatic_rank, which also flags a reducible Phi G.
    converged reports the post-condition |Phi G p - p|_1 <= steady_state_atol.

    dephasing: L_ij = sqrt(G_ij) |i><i| kills coherences and moves no
    population, so the uniform state I/n is stationary and is returned.
    """
    gmat = google_matrix(g, damping).matrix  # also validates damping for both forms
    if jump_form == "dephasing":
        return np.full(g.n, 1.0 / g.n), True, None
    if jump_form != "transport":
        raise ValueError(f"unknown jump_form {jump_form!r}")
    dec = hermitian_eig(_symmetrized_hamiltonian(g))
    delta = dec.group_values[:, None] - dec.group_values[None, :]
    kernel = dissipative_weight / (dissipative_weight + 1j * unitary_weight * delta)
    chain = _kernel_transport(dec, kernel) @ gmat
    steady = adiabatic_rank(chain)
    residual = float(np.abs(chain @ steady.scores - steady.scores).sum())
    return steady.scores, residual <= DEFAULT_TOLS.steady_state_atol, steady.degenerate


def interpolated_rank(
    g: Graph,
    alpha: float,
    damping: float = 0.85,
    jump_form: str = "transport",
) -> RankingResult:
    """Steady-state diagonal of d rho/dt = -i(1-alpha)[H, rho] + alpha * dissipator.

    alpha in (0, 1]: any dissipative admixture admits a stationary state;
    alpha = 1 reproduces the classical stationary distribution. A steady
    state that is not unique (damping 1 on a graph whose chain is reducible)
    is flagged degenerate=True.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    scores, converged, degenerate = _dissipative_rank(
        g, 1.0 - alpha, alpha, damping, jump_form)
    return RankingResult(variant="interpolated", scores=scores, alpha=float(alpha),
                         converged=converged, degenerate=degenerate)


def qsw_activity(
    g: Graph,
    damping: float = 0.85,
    jump_form: str = "transport",
) -> RankingResult:
    """Steady-state activity with unitary and dissipative parts at full weight:
    the equal-weight case of the master equation of interpolated_rank."""
    scores, converged, degenerate = _dissipative_rank(
        g, 1.0, 1.0, damping, jump_form)
    return RankingResult(variant="qsw", scores=scores,
                         converged=converged, degenerate=degenerate)
