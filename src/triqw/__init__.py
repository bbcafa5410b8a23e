"""Tripartite entanglement of identical particles on a finite mode lattice.

Exact Fock-space machinery for three bosons or fermions, the
superselection-respecting entanglement of particles, the competing
geometric mode-entanglement measure, and the continuous-time quantum
walk scenarios that exercise them.
"""

from .dynamics import (
    LatticeParams,
    evolve_state,
    evolve_state_oracle,
    many_body_hamiltonian,
    single_particle_propagator,
)
from .entanglement import (
    EntanglementReport,
    Partition,
    Sector,
    SectorDecomposition,
    SectorState,
    bipartite_negativity,
    entanglement_of_particles,
    geometric_measure,
    hermitian_eigenvalues,
    mode_qubit_tensor,
    partial_transpose,
    project_sector,
    su_generators,
    tripartite_negativity,
)
from .fock import (
    DensityMatrix,
    FockBasis,
    ManyBodyState,
    Statistics,
    apply_annihilation,
    apply_creation,
    build_monomial_state,
    enumerate_basis,
)
from .observables import (
    expectation_oracle,
    interparticle_distance,
    single_particle_density,
    two_particle_correlation,
)
from .scans import PhiScan, WalkScan, chi_report, phi_scan, snapshot, walk_scan
from .states import (
    ADJACENT_PARTITION,
    ALTERNATING_PARTITION,
    CHI_PARTITION,
    PHI_KETS,
    WALK_INIT,
    chi_state,
    phi_state,
    phi_weights,
)

__version__ = "0.1.0"

__all__ = [
    "ADJACENT_PARTITION",
    "ALTERNATING_PARTITION",
    "CHI_PARTITION",
    "DensityMatrix",
    "EntanglementReport",
    "FockBasis",
    "LatticeParams",
    "ManyBodyState",
    "PHI_KETS",
    "Partition",
    "PhiScan",
    "Sector",
    "SectorDecomposition",
    "SectorState",
    "Statistics",
    "WALK_INIT",
    "WalkScan",
    "apply_annihilation",
    "apply_creation",
    "bipartite_negativity",
    "build_monomial_state",
    "chi_report",
    "chi_state",
    "entanglement_of_particles",
    "enumerate_basis",
    "evolve_state",
    "evolve_state_oracle",
    "expectation_oracle",
    "geometric_measure",
    "hermitian_eigenvalues",
    "interparticle_distance",
    "many_body_hamiltonian",
    "mode_qubit_tensor",
    "partial_transpose",
    "phi_scan",
    "phi_state",
    "phi_weights",
    "project_sector",
    "single_particle_density",
    "single_particle_propagator",
    "snapshot",
    "su_generators",
    "tripartite_negativity",
    "two_particle_correlation",
    "walk_scan",
]
