"""Continuous-time walk evolution, long-time averages, and quantumness.

A start is used through its spectrum (p, Phi): a node or a vector is one
column, a density matrix its eigenvectors. Long-time averages use the closed
eigenspace form sum_k p_k sum_a |V_a V_a^H phi_k|^2 from linalg._dephased,
without forming any projector; time quadrature of the instantaneous series
appears only in tests as an oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .errors import DisconnectedGraphError, DistributionError, GraphFormatError
from .graphs import Graph, build_operators
from .linalg import (EigenDecomposition, _above_rank_cut, _abs2_matmul, _dephased,
                     _density_spectrum, hermitian_eig)


# Times per block of the series in evolve: its phase and product temporaries
# hold about this many entries whatever the grid's length.
_SERIES_BLOCK_ENTRIES = 2**15


@dataclass(frozen=True)
class WalkSpec:
    """A Hermitian generator, an initial state, and an evaluation time grid.

    initial may be a node id, a state vector, or a density matrix.
    """

    generator: np.ndarray
    initial: int | np.ndarray
    times: np.ndarray | None = None


@dataclass(frozen=True)
class OccupationResult:
    times: np.ndarray | None = None
    series: np.ndarray | None = None      # (T, n) instantaneous occupations
    long_time: np.ndarray | None = None   # (n,) infinite-time average
    variance: np.ndarray | None = None    # (n,) fluctuation variance of the series


def _initial_state(initial, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The start as its spectrum (p, Phi), rho0 = Phi diag(p) Phi^H: a node or a
    vector is one column of weight 1, a density matrix its _density_spectrum
    columns above the numerical-rank cut, so a rank-r start costs r columns."""
    if isinstance(initial, (int, np.integer)):
        if not 0 <= initial < n:
            raise ValueError(f"start node {initial} outside [0, {n})")
        initial = np.eye(1, n, int(initial))[0]  # the node's basis vector
    arr = np.asarray(initial, dtype=complex)
    if arr.ndim == 1:
        if arr.shape[0] != n:
            raise ValueError(f"state vector length {arr.shape[0]} != {n}")
        norm = np.linalg.norm(arr)
        if norm == 0:
            raise ValueError("zero state vector")
        return np.ones(1), (arr / norm)[:, np.newaxis]
    if arr.ndim == 2:
        if arr.shape != (n, n):
            raise ValueError(f"density matrix must be square ({n}, {n}), got {arr.shape}")
        p, phi = _density_spectrum(arr)
        keep = _above_rank_cut(p)
        return p[keep], phi[:, keep]
    raise ValueError("initial must be a node id, a vector, or a density matrix")


def _check_distributions(p: np.ndarray) -> np.ndarray:
    """p, rows of occupation distributions, clipped at 0 in place once they
    pass the checks."""
    if not np.isfinite(p).all():
        raise DistributionError("occupation distribution has non-finite entries")
    sums = p.sum(axis=-1)
    if np.abs(sums - 1.0).max() > DEFAULT_TOLS.distribution_sum_atol:
        raise DistributionError(
            f"occupation distribution sum drifted to {sums[np.abs(sums - 1).argmax()]:.12f}"
        )
    if p.min() < -DEFAULT_TOLS.distribution_negative_atol:
        raise DistributionError(f"negative occupation {p.min():.3e}")
    return np.clip(p, 0.0, None, out=p)


def _long_time(dec: EigenDecomposition, p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Infinite-time occupations sum_k p_k sum_a |V_a V_a^H phi_k|^2 of the start
    (p, Phi), from y = V^H Phi."""
    occ = _dephased(dec.vectors[np.newaxis], dec.group_starts[np.newaxis], y[np.newaxis])[0]
    return _check_distributions((occ @ p)[np.newaxis])[0]


def evolve(spec: WalkSpec) -> OccupationResult:
    """Occupation series p_i(t) = <i| U_t rho0 U_t^H |i> on the time grid,
    with the infinite-time average from the same eigendecomposition. Each column
    phi_k of the start (p, Phi) adds p_k |V e^{-iwt} V^H phi_k|^2: r columns cost r T n^2,
    computed a block of times at a time."""
    if spec.times is None:
        raise ValueError("evolve needs a time grid")
    times = np.asarray(spec.times, dtype=float)
    if not times.size:
        raise ValueError("evolve needs at least one time")
    if not np.isfinite(times).all():
        raise ValueError("evolve needs finite times")
    dec = hermitian_eig(spec.generator)
    p, phi = _initial_state(spec.initial, len(dec.eigenvalues))
    w, v = dec.eigenvalues, dec.vectors
    y = v.conj().T @ phi
    probs = np.empty((len(times), len(w)))
    step = max(1, _SERIES_BLOCK_ENTRIES // len(w))
    for start in range(0, len(times), step):
        phases = np.exp(-1j * np.outer(times[start:start + step], w))
        probs[start:start + step] = sum(pk * _abs2_matmul(phases * yk, v.T)
                                        for pk, yk in zip(p, y.T))
    probs = _check_distributions(probs)
    return OccupationResult(
        times=times,
        series=probs,
        long_time=_long_time(dec, p, y),
        variance=probs.var(axis=0),
    )


def long_time_average(spec: WalkSpec) -> OccupationResult:
    """Infinite-time mean occupations from the grouped eigenvector blocks."""
    dec = hermitian_eig(spec.generator)
    p, phi = _initial_state(spec.initial, len(dec.eigenvalues))
    return OccupationResult(long_time=_long_time(dec, p, dec.vectors.conj().T @ phi))


def uniform_superposition(n: int) -> np.ndarray:
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def quantumness(g: Graph, initial="uniform-pure") -> float:
    """Ground-state deficit of the initial state under the Hermitian generator.

    Zero iff the initial state already lies along the generator's ground
    state; vanishes for regular graphs started in the uniform superposition.
    A graph whose ground state is degenerate is refused: one that is
    disconnected, joined only through zero-weight links, or has an isolated node.
    """
    if g.n == 0:
        raise GraphFormatError("empty graph has no ground state")
    dec = hermitian_eig(build_operators(g).quantum_generator)
    if dec.ground_degeneracy > 1:
        raise DisconnectedGraphError(
            "quantumness needs a connected graph (ground state is degenerate)"
        )
    phi0 = dec.ground_vector
    if isinstance(initial, str):
        if initial not in ("uniform-pure", "maximally-mixed"):
            raise ValueError(f"unknown initial-state policy {initial!r}")
        if initial == "maximally-mixed":
            return 1.0 - 1.0 / g.n
        initial = uniform_superposition(g.n)
    p, phi = _initial_state(initial, g.n)
    overlap = float(p @ np.abs(phi.conj().T @ phi0) ** 2)
    return float(max(0.0, 1.0 - overlap))
