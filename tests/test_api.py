"""The package facade: ``triqw.__all__`` grows or shrinks only on purpose."""

import triqw

PUBLIC_NAMES = [
    "ADJACENT_PARTITION",
    "ALTERNATING_PARTITION",
    "CHI_PARTITION",
    "DensityMatrix",
    "EntanglementReport",
    "FockBasis",
    "LatticeParams",
    "ManyBodyState",
    "Partition",
    "PhiScan",
    "SectorState",
    "Statistics",
    "WALK_INIT",
    "WalkScan",
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(triqw.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(triqw, name), name
