"""Tripartite entanglement of identical particles on a finite mode lattice.

Exact Fock-space machinery for three bosons or fermions, the
superselection-respecting entanglement of particles, the competing
geometric mode-entanglement measure, and the continuous-time quantum
walk scenarios that exercise them.
"""

from .dynamics import LatticeParams, evolve_state, single_particle_propagator
from .entanglement import (
    Partition,
    bipartite_negativity,
    entanglement_of_particles,
    geometric_measure,
    partial_transpose,
    project_sector,
    tripartite_negativity,
)
from .fock import DensityMatrix, ManyBodyState, Statistics, enumerate_basis
from .observables import (
    interparticle_distance,
    single_particle_density,
    two_particle_correlation,
)
from .scans import chi_report, phi_scan, snapshot, walk_scan
from .states import (
    ADJACENT_PARTITION,
    ALTERNATING_PARTITION,
    CHI_PARTITION,
    WALK_INIT,
    chi_state,
    phi_state,
)

__version__ = "0.1.0"

__all__ = [
    "ADJACENT_PARTITION",
    "ALTERNATING_PARTITION",
    "CHI_PARTITION",
    "DensityMatrix",
    "LatticeParams",
    "ManyBodyState",
    "Partition",
    "Statistics",
    "WALK_INIT",
    "bipartite_negativity",
    "chi_report",
    "chi_state",
    "entanglement_of_particles",
    "enumerate_basis",
    "evolve_state",
    "geometric_measure",
    "interparticle_distance",
    "partial_transpose",
    "phi_scan",
    "phi_state",
    "project_sector",
    "single_particle_density",
    "single_particle_propagator",
    "snapshot",
    "tripartite_negativity",
    "two_particle_correlation",
    "walk_scan",
]
