"""Node ranking: power iteration, ground-state ranking, edge-space walks,
and dissipative interpolation between the unitary and classical limits.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import ConvergenceError
from .graphs import Graph, GoogleMatrix, adjacency_matrix, google_matrix
from .linalg import _master_equation_states, _step_count, hermitian_eig
from .walks import _initial_state

SZEGEDY_EDGE_SPACE_CAP = 4096  # dense edge-space vectors, n*n entries


@dataclass(frozen=True)
class RankingResult:
    variant: str
    scores: np.ndarray
    variance: np.ndarray | None = None
    ground_eigenvalue: float | None = None
    alpha: float | None = None
    converged: bool | None = None
    convergence_time: float | None = None
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
        if self.convergence_time is not None:
            out["convergence_time"] = float(self.convergence_time)
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


def _dissipator(gmat: np.ndarray, jump_form: str):
    """Closed form of sum_k (L rho L^H - {L^H L, rho}/2) for the two jump families.

    transport: L_ij = sqrt(G_ij) |i><j|  (moves population along the chain;
               sum L^H L = I because G is column-stochastic)
    dephasing: L_ij = sqrt(G_ij) |i><i|  (kills coherences, moves nothing)
    """
    if jump_form == "transport":
        def diss(rho: np.ndarray) -> np.ndarray:
            return np.diag(gmat @ np.diag(rho)) - rho
        return diss
    if jump_form == "dephasing":
        rates = gmat.sum(axis=1)
        damp = 0.5 * (rates[:, None] + rates[None, :])
        def diss(rho: np.ndarray) -> np.ndarray:
            return np.diag(rates * np.diag(rho)) - damp * rho
        return diss
    raise ValueError(f"unknown jump_form {jump_form!r}")


def _symmetrized_hamiltonian(g: Graph) -> np.ndarray:
    a = np.abs(adjacency_matrix(g))
    return 0.5 * (a + a.T)


def _dissipative_rank(g: Graph, unitary_weight: float, dissipative_weight: float,
                      damping: float, t_final: float, dt: float | None, jump_form: str,
                      initial: int | np.ndarray | None, tols: Tolerances):
    """Scores, converged flag and convergence time of the steady state of
    d rho/dt = -i wu [H, rho] + wd * dissipator.

    The master-equation states are consumed until the max-norm change of one
    step is at most tols.steady_state_atol, or until t_final is reached.
    """
    h = _symmetrized_hamiltonian(g)
    diss = _dissipator(google_matrix(g, damping).matrix, jump_form)

    def rhs(rho: np.ndarray) -> np.ndarray:
        # x * 1.0 == x exactly, so weight 1 skips one array pass per evaluation
        out = diss(rho) if dissipative_weight == 1.0 else dissipative_weight * diss(rho)
        if unitary_weight:
            out = out - 1j * unitary_weight * (h @ rho - rho @ h)
        return out

    if dt is None:
        dt = 0.01 / max(np.abs(h).max(), 1.0)
    if initial is None:
        rho0 = np.eye(g.n, dtype=complex) / g.n
    else:
        kind, state = _initial_state(initial, g.n, tols)
        rho0 = np.outer(state, state.conj()) if kind == "pure" else state
    states = _master_equation_states(rhs, rho0, dt, tols)
    rho = next(states)
    converged, t_conv = False, None
    for k in range(1, _step_count(t_final, dt) + 1):
        prev, rho = rho, next(states)
        if np.abs(rho - prev).max() <= tols.steady_state_atol:
            converged, t_conv = True, k * dt
            break
    scores = np.clip(np.real(np.diag(rho)), 0.0, None)
    return scores / scores.sum(), converged, t_conv


def interpolated_rank(
    g: Graph,
    alpha: float,
    damping: float = 0.85,
    t_final: float = 300.0,
    dt: float | None = None,
    jump_form: str = "transport",
    initial: int | np.ndarray | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> RankingResult:
    """Steady-state diagonal of d rho/dt = -i(1-alpha)[H, rho] + alpha * dissipator.

    alpha in (0, 1]: any dissipative admixture admits a stationary state;
    alpha = 1 reproduces the classical stationary distribution. A run that
    hits t_final before the per-step change drops under the steady-state
    tolerance is returned flagged converged=False.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    scores, converged, t_conv = _dissipative_rank(
        g, 1.0 - alpha, alpha, damping, t_final, dt, jump_form, initial, tols)
    return RankingResult(variant="interpolated", scores=scores, alpha=float(alpha),
                         converged=converged, convergence_time=t_conv)


def qsw_activity(
    g: Graph,
    damping: float = 0.85,
    t_final: float = 300.0,
    dt: float | None = None,
    jump_form: str = "transport",
    initial: int | np.ndarray | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> RankingResult:
    """Steady-state activity with unitary and dissipative parts at full weight:
    the equal-weight case of the master equation of interpolated_rank."""
    scores, converged, t_conv = _dissipative_rank(
        g, 1.0, 1.0, damping, t_final, dt, jump_form, initial, tols)
    return RankingResult(variant="qsw", scores=scores,
                         converged=converged, convergence_time=t_conv)
