"""Central numerical tolerances.

Every threshold the library compares against is a field of one frozen
record, DEFAULT_TOLS, which the checks read in place; no routine takes a
per-call override, so a value changes in one spot and only here.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # operator symmetry checks
    hermitian_rtol: float = 1e-12       # max|M - M^H| relative to max|M|
    # eigendecomposition
    degeneracy_rtol: float = 1e-9       # eigenvalue grouping, relative to spectral range
    # master-equation integration
    trace_drift_atol: float = 1e-6      # |tr(rho) - 1| before renormalization
    negative_eig_atol: float = 1e-8     # most negative admissible density eigenvalue
    trace_annihilation_atol: float = 1e-9  # |tr(rhs(rho0))| for a valid generator
    step_count_slack: float = 1e-12     # t_final/dt this far above an integer rounds down to it
    # density-matrix validation and entropy
    density_trace_atol: float = 1e-10
    density_psd_atol: float = 1e-10
    eig_clip_floor: float = 1e-14       # eigenvalues below this count as exact zeros
    support_mass_atol: float = 1e-12    # mass allowed outside a reference support
    # probability distributions and stochastic matrices
    distribution_sum_atol: float = 1e-9
    distribution_negative_atol: float = 1e-12
    # two-register (Szegedy) walk: the coefficient walk runs while
    # steps * eps / sqrt(1 - max|eig D|) stays at or below this
    szegedy_rounding_atol: float = 3e-13
    # classical PageRank
    pagerank_l1_atol: float = 1e-13     # power iteration stops at this L1 change per step
    # dissipative-ranking steady state
    steady_state_atol: float = 1e-8     # L1 residual |Phi G p - p| of the solved state
    # community detection
    merge_pick_atol: float = 1e-15      # pairs this close to the best linkage count as the best
    merge_tie_atol: float = 1e-12       # a second pair this close flags a dendrogram tie
    level_tie_atol: float = 1e-12       # a second level this close flags a best-level tie
    # entanglement percolation
    critical_ratio_atol: float = 1e-12  # |z - z_c| below this is the critical regime


DEFAULT_TOLS = Tolerances()
