"""Node ranking: power iteration, ground-state ranking, edge-space walks,
and dissipative interpolation between the unitary and classical limits.

The dissipative rankings are steady states of a master equation, solved in
closed form on the eigendecomposition of the symmetrized Hamiltonian rather
than found by integrating it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import ConvergenceError
from .graphs import Graph, GoogleMatrix, adjacency_matrix, google_matrix
from .linalg import _kernel_transport, hermitian_eig

SZEGEDY_EDGE_SPACE_CAP = 4096  # dense edge-space vectors, n*n entries


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
    ground_vectors: np.ndarray | None = None
    series: np.ndarray | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        out: dict = {"variant": self.variant, "scores": [float(x) for x in self.scores]}
        if self.variance is not None:
            out["variance"] = [float(x) for x in self.variance]
        if self.ground_eigenvalue is not None:
            out["ground_eigenvalue"] = float(self.ground_eigenvalue)
        if self.alpha is not None:
            out["alpha"] = float(self.alpha)
        if self.converged is not None:
            out["converged"] = bool(self.converged)
        if self.iterations is not None:
            out["iterations"] = int(self.iterations)
        if self.degenerate is not None:
            out["degenerate"] = bool(self.degenerate)
        return out


def _as_transition(gm: GoogleMatrix | np.ndarray) -> np.ndarray:
    mat = gm.matrix if isinstance(gm, GoogleMatrix) else np.asarray(gm, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"transition matrix must be square, got {mat.shape}")
    col_sums = mat.sum(axis=0)
    if (np.abs(col_sums - 1.0).max() > DEFAULT_TOLS.distribution_sum_atol
            or mat.min() < -DEFAULT_TOLS.distribution_negative_atol):
        raise ValueError("matrix is not column-stochastic")
    return mat


def classical_pagerank(
    gm: GoogleMatrix | np.ndarray,
    tol: float = 1e-13,
    max_iter: int = 10_000,
) -> RankingResult:
    """Stationary distribution by power iteration from the uniform start."""
    mat = _as_transition(gm)
    n = mat.shape[0]
    p = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        nxt = mat @ p
        nxt /= nxt.sum()
        if np.abs(nxt - p).sum() <= tol:
            return RankingResult(variant="classical", scores=nxt, iterations=it)
        p = nxt
    raise ConvergenceError(
        f"power iteration did not reach L1 tolerance {tol:.1e} in {max_iter} steps"
    )


def rank_hamiltonian(gm: GoogleMatrix | np.ndarray) -> np.ndarray:
    """(I - G)^H (I - G): PSD, and its kernel is the stationary distribution."""
    mat = _as_transition(gm)
    shifted = np.eye(mat.shape[0]) - mat
    return shifted.T @ shifted


def adiabatic_rank(gm: GoogleMatrix | np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> RankingResult:
    """Ranking from the ground state of the PSD rank Hamiltonian.

    A degenerate ground space (ties in the stationary structure, e.g. damping
    1 on a disconnected graph) is flagged and all ground vectors returned;
    scores then come from the basis-independent ground-projector diagonal,
    the squared row norms of the ground eigenvector block.
    """
    h = rank_hamiltonian(gm)
    dec = hermitian_eig(h, tols=tols)
    rank = dec.ground_degeneracy
    ground_energy = float(dec.group_values[0])
    if rank > 1:
        scores = np.sum(np.abs(dec.blocks[0]) ** 2, axis=1)
        scores /= scores.sum()
        return RankingResult(
            variant="adiabatic",
            scores=scores,
            ground_eigenvalue=ground_energy,
            degenerate=True,
            ground_vectors=dec.vectors[:, :rank],
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


def szegedy_state_prep(gm: GoogleMatrix | np.ndarray) -> np.ndarray:
    """Columns psi_i = |i>_1 (x) sum_k sqrt(G_ki) |k>_2 in the n*n edge space."""
    mat = _as_transition(gm)
    n = mat.shape[0]
    if n * n > SZEGEDY_EDGE_SPACE_CAP:
        raise ValueError(
            f"edge space {n}^2 exceeds the dense cap {SZEGEDY_EDGE_SPACE_CAP}"
        )
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


def szegedy_step_matrix(gm: GoogleMatrix | np.ndarray) -> np.ndarray:
    """Dense one-step operator, for small n (tests and unitarity checks)."""
    psi = szegedy_state_prep(gm)
    n = psi.shape[1]
    reflect = 2.0 * (psi @ psi.conj().T) - np.eye(n * n)
    swap = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            swap[i * n + j, j * n + i] = 1.0
    return swap @ reflect


def szegedy_rank(
    gm: GoogleMatrix | np.ndarray,
    steps: int = 512,
    measure_register: int = 2,
    tols: Tolerances = DEFAULT_TOLS,
) -> RankingResult:
    """Cumulative time-averaged register occupations of the two-register walk.

    One walk step is the two-reflection composition (swap . reflect applied
    twice), which keeps the register roles fixed between measurements; the
    walk starts in the uniform superposition of the prepared columns, the
    chosen register is read after each of t = 1..steps walk steps, and the
    scores are the running mean with per-node variance of the step series.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if measure_register not in (1, 2):
        raise ValueError("measure_register must be 1 or 2")
    apply, n = szegedy_step_operator(gm)
    psi = szegedy_state_prep(gm).sum(axis=1) / np.sqrt(n)
    state = psi.astype(complex)
    series = np.empty((steps, n))
    for t in range(steps):
        state = apply(apply(state))
        state = state / np.linalg.norm(state)
        occ = np.abs(state.reshape(n, n)) ** 2
        series[t] = occ.sum(axis=0) if measure_register == 2 else occ.sum(axis=1)
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
                      damping: float, jump_form: str, tols: Tolerances):
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
    dec = hermitian_eig(_symmetrized_hamiltonian(g), tols=tols)
    delta = dec.group_values[:, None] - dec.group_values[None, :]
    kernel = dissipative_weight / (dissipative_weight + 1j * unitary_weight * delta)
    chain = _kernel_transport(dec, kernel) @ gmat
    steady = adiabatic_rank(chain, tols)
    residual = float(np.abs(chain @ steady.scores - steady.scores).sum())
    return steady.scores, residual <= tols.steady_state_atol, steady.degenerate


def interpolated_rank(
    g: Graph,
    alpha: float,
    damping: float = 0.85,
    jump_form: str = "transport",
    tols: Tolerances = DEFAULT_TOLS,
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
        g, 1.0 - alpha, alpha, damping, jump_form, tols)
    return RankingResult(variant="interpolated", scores=scores, alpha=float(alpha),
                         converged=converged, degenerate=degenerate)


def qsw_activity(
    g: Graph,
    damping: float = 0.85,
    jump_form: str = "transport",
    tols: Tolerances = DEFAULT_TOLS,
) -> RankingResult:
    """Steady-state activity with unitary and dissipative parts at full weight:
    the equal-weight case of the master equation of interpolated_rank."""
    scores, converged, degenerate = _dissipative_rank(
        g, 1.0, 1.0, damping, jump_form, tols)
    return RankingResult(variant="qsw", scores=scores,
                         converged=converged, degenerate=degenerate)
