"""The package facade: ``triqw.__all__`` grows or shrinks only on purpose, and its
text parsers reject what is not text."""

import re

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


@pytest.mark.parametrize("value", [3, None, 2.5, ["bosons"], b"1,2|3,4|5,6"])
@pytest.mark.parametrize(
    "parse", [triqw.Statistics.from_name, triqw.Partition.parse], ids=["from_name", "parse"]
)
def test_text_parsers_reject_a_non_string_with_value_error(parse, value):
    # argparse passes strings, so only library callers can pass these
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        parse(value)
