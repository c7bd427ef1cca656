"""Hermitian spectral plumbing and fixed-step master-equation integration.

Design notes:
  * Eigendecompositions come from LAPACK (numpy.linalg.eigh) and group the
    eigenvector columns into one block V_a per degenerate eigenvalue, since
    downstream long-time averages are sums over eigenspaces, not individual
    eigenvectors. Consumers work on the blocks with matvecs and GEMMs; the
    projector P_a = V_a V_a^H is never stored, so a decomposition holds O(n^2)
    numbers however simple the spectrum.
  * Matrix functions of Hermitian operators are built from the decomposition
    directly, (V * f(w)) @ V^H, instead of generic Pade routines.
  * Transport sums sum_ab K_ab (P_a)_ij conj(P_b)_ij over a Hermitian PSD
    kernel K on the eigenvalue groups share one helper, _kernel_transport:
    windowed closeness and the dissipative rankings' steady-state map both
    use it.
  * The density-matrix integrator is a fixed-step classical RK4 with
    re-hermitization and trace renormalization after every step; it refuses
    to continue when the state drifts off the physical manifold.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import IntegrationInstabilityError, SymmetryError


def assert_hermitian(m: np.ndarray, tols: Tolerances = DEFAULT_TOLS, name: str = "operator") -> None:
    """Raise SymmetryError with a deviation report unless m is Hermitian."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SymmetryError(f"{name} must be a square matrix, got shape {m.shape}")
    dev = np.abs(m - m.conj().T)
    scale = max(np.abs(m).max(), 1.0) if m.size else 1.0
    worst = float(dev.max()) if m.size else 0.0
    allowed = tols.hermitian_rtol * scale
    if worst > allowed:
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise SymmetryError(
            f"{name} is not hermitian: max |M - M^H| = {worst:.3e} at entry "
            f"({i},{j}), allowed {allowed:.3e}"
        )


def check_density_matrix(m: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> None:
    """Raise ValueError unless m is a square, Hermitian, unit-trace PSD matrix."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"density matrix must be square, got {m.shape}")
    if np.abs(m - m.conj().T).max() > tols.density_hermitian_atol:
        raise ValueError("density matrix is not hermitian")
    if abs(np.trace(m).real - 1.0) > tols.density_trace_atol:
        raise ValueError(f"density matrix trace {np.trace(m).real} != 1")
    if np.linalg.eigvalsh(m)[0] < -tols.density_psd_atol:
        raise ValueError("density matrix has a negative eigenvalue")


def is_unitary(u: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> bool:
    u = np.asarray(u)
    eye = np.eye(u.shape[0])
    return bool(np.abs(u.conj().T @ u - eye).max() <= tols.unitary_atol)


class _Projectors(Sequence):
    """P_a = V_a V_a^H per group, built when indexed: len() costs nothing and
    no more than one n x n projector exists unless the caller keeps them."""

    def __init__(self, blocks: tuple[np.ndarray, ...]):
        self._blocks = blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, a):
        if isinstance(a, slice):
            return [self[k] for k in range(*a.indices(len(self)))]
        block = self._blocks[a]
        return block @ block.conj().T


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns, grouped by a
    degeneracy tolerance into contiguous column blocks, one per eigenspace."""

    eigenvalues: np.ndarray          # (n,) real, ascending
    vectors: np.ndarray              # (n, n), column k pairs with eigenvalues[k]
    group_sizes: np.ndarray          # (n_groups,) column count of each block
    group_values: np.ndarray         # (n_groups,) representative eigenvalue per group

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Column views V_a of `vectors`, one per group (no copies)."""
        ends = np.cumsum(self.group_sizes)
        return tuple(self.vectors[:, e - k:e] for k, e in zip(self.group_sizes, ends))

    @property
    def group_labels(self) -> np.ndarray:
        """(n,) group index of every eigenvector column."""
        return np.repeat(np.arange(len(self.group_sizes)), self.group_sizes)

    @property
    def projectors(self) -> Sequence[np.ndarray]:
        """Eigenspace projectors V_a V_a^H, computed on access."""
        return _Projectors(self.blocks)

    @property
    def ground_vector(self) -> np.ndarray:
        return self.vectors[:, 0]

    @property
    def ground_degeneracy(self) -> int:
        return int(self.group_sizes[0])


def hermitian_eig(
    m: np.ndarray,
    degeneracy_tol: float | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix with eigenvectors grouped by eigenspace.

    degeneracy_tol defaults to tols.degeneracy_rtol times the spectral range;
    a zero range (multiple of the identity) collapses to a single group.
    """
    m = np.asarray(m)
    assert_hermitian(m, tols)
    w, v = np.linalg.eigh(m)
    if degeneracy_tol is None:
        degeneracy_tol = tols.degeneracy_rtol * float(w[-1] - w[0])
    breaks = np.flatnonzero(np.diff(w) > degeneracy_tol) + 1
    bounds = np.concatenate(([0], breaks, [len(w)]))
    return EigenDecomposition(
        eigenvalues=w,
        vectors=v,
        group_sizes=np.diff(bounds),
        group_values=np.array([w[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])]),
    )


def _kernel_transport(dec: EigenDecomposition, kernel: np.ndarray) -> np.ndarray:
    """sum_ab K_ab (P_a)_ij conj(P_b)_ij for a Hermitian PSD kernel K over the
    eigenvalue groups of dec.

    With K = sum_r mu_r k_r k_r^H the sum is sum_r mu_r |V diag(k_r) V^H|^2,
    one GEMM per numerically nonzero mode; the result is real and nonnegative.
    """
    mu, modes = np.linalg.eigh(kernel)
    # drop modes below the numerical rank of K (numpy.linalg.matrix_rank's cut)
    keep = mu > len(mu) * np.finfo(float).eps * mu[-1]
    v = dec.vectors
    labels = dec.group_labels
    c = np.zeros(v.shape)
    for m, k in zip(mu[keep], modes[:, keep].T):
        c += m * np.abs((v * k[labels]) @ v.conj().T) ** 2
    return c


def matrix_function_hermitian(m: np.ndarray, f: Callable[[np.ndarray], np.ndarray],
                              tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """f applied to a Hermitian matrix through its eigendecomposition."""
    m = np.asarray(m)
    assert_hermitian(m, tols)
    w, v = np.linalg.eigh(m)
    return (v * f(w)) @ v.conj().T


def expm_hermitian(m: np.ndarray, scale: complex = 1.0,
                   tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """exp(scale * m) for Hermitian m. Purely imaginary scales give unitaries."""
    return matrix_function_hermitian(m, lambda w: np.exp(scale * w), tols)


def lindblad_rhs(h: np.ndarray, jumps: Sequence[np.ndarray] = ()):
    """Right-hand side d rho/dt = -i [H, rho] + sum_k (L rho L^H - {L^H L, rho}/2).

    Returns a closure suitable for integrate_master_equation. The jump list
    may be empty (pure Hamiltonian evolution of a density matrix).
    """
    h = np.asarray(h, dtype=complex)
    assert_hermitian(h, name="hamiltonian")
    pairs = [(np.asarray(L, dtype=complex), np.asarray(L, dtype=complex).conj().T) for L in jumps]
    anti = sum((Ld @ L for L, Ld in pairs), np.zeros_like(h))

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h @ rho - rho @ h)
        if pairs:
            diss = -0.5 * (anti @ rho + rho @ anti)
            for L, Ld in pairs:
                diss += L @ rho @ Ld
            out = out + diss
        return out

    return rhs


def rk4_step(rhs: Callable[[np.ndarray], np.ndarray], rho: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(rho)
    k2 = rhs(rho + 0.5 * dt * k1)
    k3 = rhs(rho + 0.5 * dt * k2)
    k4 = rhs(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray    # (steps+1,), exact multiples of dt
    states: np.ndarray   # (steps+1, n, n) renormalized density matrices

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def populations(self) -> np.ndarray:
        """Real diagonal occupations, shape (steps+1, n)."""
        return np.real(np.einsum("tii->ti", self.states))


def check_physical_state(rho: np.ndarray, t: float, tols: Tolerances = DEFAULT_TOLS) -> None:
    """Raise IntegrationInstabilityError if rho left the density-matrix manifold."""
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) > tols.trace_drift_atol:
        raise IntegrationInstabilityError(
            f"trace drifted to {trace:.9f} at t={t:.6g} (allowed drift "
            f"{tols.trace_drift_atol:.1e}); reduce dt"
        )
    low = float(np.linalg.eigvalsh(rho)[0])
    if low < -tols.negative_eig_atol:
        raise IntegrationInstabilityError(
            f"state eigenvalue {low:.3e} at t={t:.6g} is below "
            f"-{tols.negative_eig_atol:.1e}; reduce dt"
        )


def integrate_master_equation(
    rhs: Callable[[np.ndarray], np.ndarray],
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    tols: Tolerances = DEFAULT_TOLS,
) -> Trajectory:
    """Fixed-step RK4 evolution of a density matrix under a trace-annihilating rhs.

    Every stored state is re-hermitized and trace-renormalized. Trace drift
    beyond tols.trace_drift_atol (before renormalization) or an eigenvalue
    below -tols.negative_eig_atol aborts with IntegrationInstabilityError.
    """
    if t_final < 0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    rho = np.asarray(rho0, dtype=complex).copy()
    assert_hermitian(rho, tols, name="initial state")
    if abs(np.trace(rho).real - 1.0) > tols.density_trace_atol:
        raise ValueError(f"initial state trace is {np.trace(rho).real:.9f}, expected 1")
    drift = complex(np.trace(rhs(rho)))
    if abs(drift) > tols.trace_annihilation_atol * max(1.0, float(np.abs(rho).max())):
        raise ValueError(
            f"rhs does not annihilate the trace: tr(rhs(rho0)) = {drift:.3e}"
        )
    steps = int(np.ceil(t_final / dt - 1e-12)) if t_final > 0 else 0
    out = np.empty((steps + 1,) + rho.shape, dtype=complex)
    out[0] = rho
    for k in range(1, steps + 1):
        rho = rk4_step(rhs, rho, dt)
        rho = 0.5 * (rho + rho.conj().T)
        check_physical_state(rho, k * dt, tols)
        rho = rho / np.real(np.trace(rho))
        out[k] = rho
    return Trajectory(times=np.arange(steps + 1) * dt, states=out)
