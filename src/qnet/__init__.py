"""Quantum walks, spectral entropies, and percolation tools for complex networks."""

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    ConvergenceError,
    DisconnectedGraphError,
    DistributionError,
    GraphFormatError,
    IntegrationInstabilityError,
    QnetError,
    SupportViolationWarning,
    SymmetryError,
)
from .graphs import (
    Edge,
    Graph,
    GoogleMatrix,
    OperatorBundle,
    adjacency_matrix,
    build_graph,
    build_operators,
    google_matrix,
    load_edge_list,
    stochastic_eigenmodes,
    to_edge_list,
)
from .linalg import (
    EigenDecomposition,
    Trajectory,
    hermitian_eig,
    integrate_master_equation,
    lindblad_rhs,
)
from .walks import (
    OccupationResult,
    WalkSpec,
    evolve,
    long_time_average,
    quantumness,
    uniform_superposition,
)
from .ranking import (
    RankingResult,
    adiabatic_rank,
    classical_pagerank,
    interpolated_rank,
    qsw_activity,
    rank_hamiltonian,
    szegedy_rank,
    szegedy_step_matrix,
)
from .entropy import (
    DensityMatrix,
    LayerClustering,
    LayerStack,
    density_propagator,
    density_rescaled,
    graph_entropy,
    js_distance,
    js_divergence,
    kl_divergence,
    layer_cluster,
    make_density,
    vn_entropy,
)
from .communities import (
    ClosenessMatrix,
    Partition,
    agglomerate,
    closeness_fidelity,
    closeness_link_failure,
    closeness_long_time_transport,
    closeness_short_time_transport,
    magnetic_laplacian,
    magnetic_partition,
)
from .percolation import (
    CepResult,
    ClusterStats,
    EmergenceResult,
    LinkState,
    bond_percolation,
    bond_percolation_curve,
    cep_lattice,
    contains_subgraph,
    estimate_spanning_crossing,
    singlet_conversion_probability,
    subgraph_emergence,
)
from . import toys

__version__ = "0.1.0"
