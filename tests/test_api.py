"""The package facade: ``triqw.__all__`` grows or shrinks only on purpose."""

import pytest

import triqw

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(triqw.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(triqw, name), name


@pytest.mark.parametrize(
    "module, name",
    [
        ("entanglement", "EntanglementReport"),
        ("entanglement", "SectorState"),
        ("scans", "PhiScan"),
        ("scans", "WalkScan"),
        ("fock", "FockBasis"),
    ],
)
def test_result_types_live_in_their_modules(module, name):
    """Callers get these back from the public functions, or build them with
    ``enumerate_basis``; they stay importable from their modules."""
    assert not hasattr(triqw, name)
    assert isinstance(getattr(getattr(triqw, module), name), type)
