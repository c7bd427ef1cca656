"""Central numerical tolerances.

Every tolerance used by the library lives in one frozen record so that a
single override (a dataclasses.replace copy passed to the routines that
accept one) changes behaviour consistently instead of chasing scattered constants.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # operator symmetry checks
    hermitian_rtol: float = 1e-12       # max|M - M^H| relative to max|M|
    unitary_atol: float = 1e-10         # max|U^H U - I|
    # eigendecomposition
    degeneracy_rtol: float = 1e-9       # eigenvalue grouping, relative to spectral range
    # master-equation integration
    trace_drift_atol: float = 1e-6      # |tr(rho) - 1| before renormalization
    negative_eig_atol: float = 1e-8     # most negative admissible density eigenvalue
    trace_annihilation_atol: float = 1e-9  # |tr(rhs(rho0))| for a valid generator
    # density-matrix validation and entropy
    density_hermitian_atol: float = 1e-10  # max|rho - rho^H|
    density_trace_atol: float = 1e-10
    density_psd_atol: float = 1e-10
    eig_clip_floor: float = 1e-14       # eigenvalues below this count as exact zeros
    support_mass_atol: float = 1e-12    # mass allowed outside a reference support
    # probability distributions and stochastic matrices
    distribution_sum_atol: float = 1e-9
    distribution_negative_atol: float = 1e-12
    # dissipative-ranking steady state
    steady_state_atol: float = 1e-8     # L1 residual |Phi G p - p| of the solved state
    # community detection
    merge_pick_atol: float = 1e-15      # pairs this close to the best linkage count as the best
    merge_tie_atol: float = 1e-12       # a second pair this close flags a dendrogram tie
    level_tie_atol: float = 1e-12       # a second level this close flags a best-level tie
    zero_response_atol: float = 1e-14   # link-failure responses below this count as none


DEFAULT_TOLS = Tolerances()
