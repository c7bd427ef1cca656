"""Continuous-time walk evolution, long-time averages, and chirality probes.

Long-time averages always use the closed eigenspace form, evaluated on the
grouped eigenvector blocks V_a of the generator as sum_a |V_a V_a^H psi|^2
without forming any projector; time quadrature of the instantaneous series
appears only in tests as an oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .errors import DisconnectedGraphError, DistributionError
from .graphs import Graph, adjacency_matrix, build_operators, is_connected
from .linalg import EigenDecomposition, _abs2_matmul, _density_spectrum, hermitian_eig


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


def _initial_state(initial, n: int):
    """Normalize the initial-state argument to ('pure', psi) or ('mixed', rho)."""
    if isinstance(initial, (int, np.integer)):
        if not 0 <= initial < n:
            raise ValueError(f"start node {initial} outside [0, {n})")
        psi = np.zeros(n, dtype=complex)
        psi[int(initial)] = 1.0
        return "pure", psi
    arr = np.asarray(initial, dtype=complex)
    if arr.ndim == 1:
        if arr.shape[0] != n:
            raise ValueError(f"state vector length {arr.shape[0]} != {n}")
        norm = np.linalg.norm(arr)
        if norm == 0:
            raise ValueError("zero state vector")
        return "pure", arr / norm
    if arr.ndim == 2:
        if arr.shape != (n, n):
            raise ValueError(f"density matrix must be square ({n}, {n}), got {arr.shape}")
        _density_spectrum(arr)
        return "mixed", arr
    raise ValueError("initial must be a node id, a vector, or a density matrix")


def _check_distributions(p: np.ndarray) -> np.ndarray:
    if not np.isfinite(p).all():
        raise DistributionError("occupation distribution has non-finite entries")
    sums = p.sum(axis=-1)
    if np.abs(sums - 1.0).max() > DEFAULT_TOLS.distribution_sum_atol:
        raise DistributionError(
            f"occupation distribution sum drifted to {sums[np.abs(sums - 1).argmax()]:.12f}"
        )
    if p.min() < -DEFAULT_TOLS.distribution_negative_atol:
        raise DistributionError(f"negative occupation {p.min():.3e}")
    return np.clip(p, 0.0, None)


def _pure_occupations(vectors: np.ndarray, starts: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Infinite-time occupations sum_a |V_a V_a^H psi|^2 of the pure state psi
    under each decomposition of a stack, shape (B, n).

    vectors is (B, n, n), the eigenvector columns of B matrices; starts holds
    the first column of every eigenvalue group along the flattened (B * n)
    column axis, so one segment sum forms every block amplitude V_a V_a^H psi
    of the stack and a second sums their squares per matrix.
    """
    b, n, _ = vectors.shape
    coeff = (psi.conj() @ vectors).conj()                       # (B, n): V^H psi
    # terms[i, (m, k)] = V_ik (V^H psi)_k of matrix m, laid out so that each
    # group of each matrix is one contiguous run of columns
    terms = np.multiply(vectors.transpose(1, 0, 2), coeff, order="C").reshape(n, b * n)
    amps = np.add.reduceat(terms, starts, axis=1)               # (n, groups)
    first = np.flatnonzero(starts % n == 0)                     # each matrix's first group
    occ = np.add.reduceat(np.abs(amps) ** 2, first, axis=1).T
    return _check_distributions(occ)


def _dephased_occupations(dec: EigenDecomposition, kind: str, state: np.ndarray) -> np.ndarray:
    """Infinite-time occupations sum_a diag(P_a rho0 P_a) with P_a = V_a V_a^H."""
    v = dec.vectors
    if kind == "pure":
        starts = np.cumsum(dec.group_sizes) - dec.group_sizes
        return _pure_occupations(v[np.newaxis], starts, state)[0]
    # rho0 in the eigenbasis, with coherences between different groups dephased
    labels = dec.group_labels
    coh = np.where(labels[:, None] == labels[None, :], v.conj().T @ state @ v, 0.0)
    avg = np.real(np.sum((v @ coh) * v.conj(), axis=1))
    return _check_distributions(avg[np.newaxis, :])[0]


def evolve(spec: WalkSpec) -> OccupationResult:
    """Occupation series p_i(t) = <i| U_t rho0 U_t^H |i> on the time grid,
    with the infinite-time average from the same eigendecomposition."""
    if spec.times is None:
        raise ValueError("evolve needs a time grid")
    times = np.asarray(spec.times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("evolve needs finite times")
    gen = np.asarray(spec.generator)
    dec = hermitian_eig(gen)
    kind, state = _initial_state(spec.initial, gen.shape[0])
    w, v = dec.eigenvalues, dec.vectors
    if kind == "pure":
        coeff = v.conj().T @ state
        probs = _abs2_matmul(np.exp(-1j * np.outer(times, w)) * coeff, v.T)
    else:
        probs = np.empty((len(times), gen.shape[0]))
        for k, t in enumerate(times):
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            probs[k] = np.real(np.diag(u @ state @ u.conj().T))
    probs = _check_distributions(probs)
    return OccupationResult(
        times=times,
        series=probs,
        long_time=_dephased_occupations(dec, kind, state),
        variance=probs.var(axis=0),
    )


def long_time_average(spec: WalkSpec) -> OccupationResult:
    """Infinite-time mean occupations from the grouped eigenvector blocks."""
    gen = np.asarray(spec.generator)
    dec = hermitian_eig(gen)
    kind, state = _initial_state(spec.initial, gen.shape[0])
    return OccupationResult(long_time=_dephased_occupations(dec, kind, state))


def uniform_superposition(n: int) -> np.ndarray:
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def quantumness(g: Graph, initial="uniform-pure") -> float:
    """Ground-state deficit of the initial state under the Hermitian generator.

    Zero iff the initial state already lies along the generator's ground
    state; vanishes for regular graphs started in the uniform superposition.
    """
    if not is_connected(g):
        raise DisconnectedGraphError(
            "quantumness needs a connected graph (ground state is degenerate)"
        )
    dec = hermitian_eig(build_operators(g).quantum_generator)
    phi0 = dec.ground_vector
    if isinstance(initial, str):
        if initial == "uniform-pure":
            overlap = abs(np.vdot(phi0, uniform_superposition(g.n))) ** 2
        elif initial == "maximally-mixed":
            overlap = 1.0 / g.n
        else:
            raise ValueError(f"unknown initial-state policy {initial!r}")
    else:
        kind, state = _initial_state(initial, g.n)
        if kind == "pure":
            overlap = abs(np.vdot(phi0, state)) ** 2
        else:
            overlap = float(np.real(np.vdot(phi0, state @ phi0)))
    return float(max(0.0, 1.0 - overlap))


@dataclass(frozen=True)
class ChiralTransportReport:
    times: np.ndarray
    forward: np.ndarray         # p_{source->target}(t) under H
    time_reversed: np.ndarray   # same transport under conj(H)
    max_bias: float
    symmetry_broken: bool


def chiral_transport_report(
    g: Graph,
    source: int,
    target: int,
    times: np.ndarray,
) -> ChiralTransportReport:
    """Compare site transport under H against its time-reversed counterpart;
    time-reversal symmetry counts as broken when the largest difference
    exceeds Tolerances.chiral_bias_atol."""
    h = adjacency_matrix(g)
    times = np.asarray(times, dtype=float)
    fwd = evolve(WalkSpec(h, source, times)).series[:, target]
    rev = evolve(WalkSpec(h.conj(), source, times)).series[:, target]
    bias = float(np.abs(fwd - rev).max())
    return ChiralTransportReport(
        times=times,
        forward=fwd,
        time_reversed=rev,
        max_bias=bias,
        symmetry_broken=bias > DEFAULT_TOLS.chiral_bias_atol,
    )
