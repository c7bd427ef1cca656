"""Hermitian spectral plumbing and fixed-step master-equation integration.

Design notes:
  * Eigendecompositions come from LAPACK (numpy.linalg.eigh) and group the
    eigenvector columns into one block V_a per degenerate eigenvalue, since
    downstream long-time averages are sums over eigenspaces, not individual
    eigenvectors. Consumers work on the blocks with matvecs and GEMMs; the
    projector P_a = V_a V_a^H is never stored, so a decomposition holds O(n^2)
    numbers however simple the spectrum.
  * A matrix without phases, real or complex-typed with an exactly zero
    imaginary part, goes to LAPACK's real symmetric driver and keeps real
    eigenvectors; a complex factor against them (a kernel mode, walk phases)
    is applied as two real GEMMs, one per part. The degeneracy break rule
    lives in _group_starts, which works on the last axis, so a stack of
    spectra (link failure) is grouped exactly as hermitian_eig groups one.
  * A function of an operator, like the network propagator exp(-tau L), is
    formed by its consumer from hermitian_eig's spectrum, which qnet.entropy
    then keeps on the density matrix instead of decomposing it again.
  * The infinite-time dephased sum sum_a square(V_a Y_a) has one kernel,
    _dephased, over a stack of decompositions: a walk's long-time occupations,
    the K = I transport sums and link failure's trimmed stacks all use it.
  * Transport sums sum_ab K_ab (P_a)_ij conj(P_b)_ij over a Hermitian PSD
    kernel K on the eigenvalue groups have one helper, _kernel_transport:
    infinite, windowed and short-time closeness, fidelity closeness and the
    dissipative rankings' steady-state map all use it.
  * Every density matrix taken in (make_density, a walk's matrix start, the
    integrator's rho0) passes one validator, _density_spectrum, which returns
    the spectrum its positivity test computed, so make_density decomposes once.
  * The density-matrix integrator is a fixed-step classical RK4 with
    re-hermitization and trace renormalization after every step; it refuses
    to continue when the state drifts off the physical manifold.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLS
from .errors import IntegrationInstabilityError, SymmetryError


def assert_hermitian(m: np.ndarray, name: str = "operator") -> None:
    """Raise SymmetryError with a deviation report unless m is Hermitian, and
    before any comparison when an entry is NaN or infinite (a NaN deviation
    would pass every tolerance test)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SymmetryError(f"{name} must be a square matrix, got shape {m.shape}")
    largest = np.abs(m).max() if m.size else 0.0  # NaN or inf iff an entry is
    if not np.isfinite(largest):
        raise SymmetryError(f"{name} has non-finite entries")
    dev = np.abs(m - m.conj().T)
    scale = max(largest, 1.0)
    worst = float(dev.max()) if m.size else 0.0
    allowed = DEFAULT_TOLS.hermitian_rtol * scale
    if worst > allowed:
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise SymmetryError(
            f"{name} is not hermitian: max |M - M^H| = {worst:.3e} at entry "
            f"({i},{j}), allowed {allowed:.3e}"
        )


def _density_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, vectors) from one eigh of m, in real arithmetic when m has no
    phases, or ValueError unless m is square, finite and Hermitian (SymmetryError),
    of unit trace and positive semidefinite."""
    assert_hermitian(m, name="density matrix")
    trace = np.trace(m).real
    if abs(trace - 1.0) > DEFAULT_TOLS.density_trace_atol:
        raise ValueError(f"density matrix trace {trace} != 1")
    w, v = np.linalg.eigh(_real_if_phase_free(m))
    if w[0] < -DEFAULT_TOLS.density_psd_atol:
        raise ValueError(f"density matrix has a negative eigenvalue {w[0]:.3e}")
    return w, v


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
    """Ascending eigenvalues and orthonormal eigenvector columns (real for a
    phase-free matrix), grouped by a degeneracy tolerance into contiguous
    column blocks, one per eigenspace."""

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
    def group_starts(self) -> np.ndarray:
        """(n,) mask, True at the first column of every group."""
        return np.bincount(np.cumsum(self.group_sizes) - self.group_sizes,
                           minlength=len(self.eigenvalues)) > 0

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


def _real_if_phase_free(m: np.ndarray) -> np.ndarray:
    """The real part of a complex-typed m whose imaginary part is exactly zero,
    else m: LAPACK's real symmetric driver then decomposes it."""
    return m.real if np.iscomplexobj(m) and not m.imag.any() else m


def _group_starts(w: np.ndarray) -> np.ndarray:
    """Boolean mask over the last axis of ascending eigenvalues w, True where an
    eigenvalue group starts: at the first eigenvalue, and wherever the gap to
    the previous one exceeds Tolerances.degeneracy_rtol times the spectral
    range of that row. A zero range (multiple of the identity) is one group."""
    starts = np.ones(w.shape, dtype=bool)
    span = w[..., -1:] - w[..., :1]
    starts[..., 1:] = np.diff(w, axis=-1) > DEFAULT_TOLS.degeneracy_rtol * span
    return starts


def hermitian_eig(m: np.ndarray) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix with eigenvectors grouped by eigenspace.

    Neighbouring eigenvalues closer than Tolerances.degeneracy_rtol times the
    spectral range share a group; a zero range (multiple of the identity)
    collapses to a single group. A real matrix, or a complex one whose
    imaginary part is exactly zero, is decomposed in real arithmetic and
    comes back with real vectors.
    """
    m = np.asarray(m)
    assert_hermitian(m)
    w, v = np.linalg.eigh(_real_if_phase_free(m))
    starts = np.flatnonzero(_group_starts(w))
    sizes = np.diff(starts, append=len(w))
    return EigenDecomposition(
        eigenvalues=w,
        vectors=v,
        group_sizes=sizes,
        group_values=np.add.reduceat(w, starts) / sizes,
    )


def _abs2_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x @ y|^2 entrywise. A complex x against a real y runs as the two real
    GEMMs Re(x) @ y and Im(x) @ y instead of one complex GEMM (four real ones)."""
    if np.iscomplexobj(x) and not np.iscomplexobj(y):
        return (x.real @ y) ** 2 + (x.imag @ y) ** 2
    return np.abs(x @ y) ** 2


def _above_rank_cut(w: np.ndarray) -> np.ndarray:
    """Mask of the ascending w above numpy.linalg.matrix_rank's cut n eps max(w)."""
    return w > len(w) * np.finfo(float).eps * w[-1]


def _abs2(x: np.ndarray) -> np.ndarray:
    return np.abs(x) ** 2


def _dephased(vectors: np.ndarray, starts: np.ndarray, y: np.ndarray,
              square: Callable[[np.ndarray], np.ndarray] = _abs2) -> np.ndarray:
    """sum_a square(V_a Y_a) over the eigenvalue groups a of each of B decompositions:
    vectors (B, n, n), group starts (B, n), rows y (B, n, r) -> (B, n, r).

    y = V^H Phi gives the dephased occupations sum_a |P_a phi|^2 of each column
    phi; y = V^H gives sum_a |P_a|^2, or sum_a P_a o P_a with square = np.square.
    A singleton's term is the outer product square(v) square(y_k), so all
    singletons take one batched GEMM, and each degenerate group one block product.
    """
    ends = np.ones_like(starts)
    ends[:, :-1] = starts[:, 1:]  # a group ends where the next one starts, or at the row's end
    out = (square(vectors) * (starts & ends)[:, np.newaxis, :]) @ square(y)
    # a degenerate group starts without ending, and ends without starting
    lasts = np.flatnonzero(ends & ~starts).tolist()
    for f, e in zip(np.flatnonzero(starts & ~ends).tolist(), lasts):
        b, j = divmod(f, starts.shape[1])
        out[b] += square(vectors[b, :, j:j + e - f + 1] @ y[b, j:j + e - f + 1])
    return out


def _kernel_transport(dec: EigenDecomposition, kernel: np.ndarray | None = None,
                      conjugate: bool = True) -> np.ndarray:
    """sum_ab K_ab (P_a)_ij conj(P_b)_ij for a Hermitian PSD kernel K over the
    eigenvalue groups of dec.

    kernel=None means K = I: _dephased with y = V^H gives sum_a |P_a|^2, or
    sum_a P_a o P_a when conjugate=False. Otherwise, with K = sum_r mu_r k_r k_r^H
    the sum is sum_r mu_r |V diag(k_r) V^H|^2, one GEMM per numerically nonzero
    mode (two real ones for a complex mode on real vectors); the result is real
    and nonnegative.
    """
    v = dec.vectors
    vh = v.conj().T
    if kernel is None:
        return _dephased(v[np.newaxis], dec.group_starts[np.newaxis], vh[np.newaxis],
                         _abs2 if conjugate else np.square)[0]
    mu, modes = np.linalg.eigh(kernel)
    keep = _above_rank_cut(mu)
    labels = dec.group_labels
    c = np.zeros(v.shape)
    for m, k in zip(mu[keep], modes[:, keep].T):
        c += m * _abs2_matmul(v * k[labels], vh)
    return c


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


def integrate_master_equation(
    rhs: Callable[[np.ndarray], np.ndarray],
    rho0: np.ndarray,
    t_final: float,
    dt: float,
) -> Trajectory:
    """Fixed-step RK4 evolution of a density matrix under a trace-annihilating rhs.

    rho0 must be a density matrix (_density_spectrum), else ValueError before
    the first step. Every stored state is re-hermitized and trace-renormalized.
    Trace drift beyond Tolerances.trace_drift_atol (before renormalization) or
    an eigenvalue below -Tolerances.negative_eig_atol aborts with
    IntegrationInstabilityError.
    """
    if t_final < 0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    rho = np.asarray(rho0, dtype=complex).copy()
    _density_spectrum(rho)
    drift = complex(np.trace(rhs(rho)))
    if abs(drift) > DEFAULT_TOLS.trace_annihilation_atol * max(1.0, float(np.abs(rho).max())):
        raise ValueError(
            f"rhs does not annihilate the trace: tr(rhs(rho0)) = {drift:.3e}"
        )
    steps = int(np.ceil(t_final / dt - DEFAULT_TOLS.step_count_slack)) if t_final > 0 else 0
    out = np.empty((steps + 1,) + rho.shape, dtype=complex)
    out[0] = rho
    for k in range(1, steps + 1):
        rho = rk4_step(rhs, rho, dt)
        rho = 0.5 * (rho + rho.conj().T)
        trace = float(np.real(np.trace(rho)))
        if abs(trace - 1.0) > DEFAULT_TOLS.trace_drift_atol:
            raise IntegrationInstabilityError(
                f"trace drifted to {trace:.9f} at t={k * dt:.6g} (allowed drift "
                f"{DEFAULT_TOLS.trace_drift_atol:.1e}); reduce dt"
            )
        low = float(np.linalg.eigvalsh(rho)[0])
        if low < -DEFAULT_TOLS.negative_eig_atol:
            raise IntegrationInstabilityError(
                f"state eigenvalue {low:.3e} at t={k * dt:.6g} is below "
                f"-{DEFAULT_TOLS.negative_eig_atol:.1e}; reduce dt"
            )
        rho = rho / trace
        out[k] = rho
    return Trajectory(times=np.arange(steps + 1) * dt, states=out)
