"""The package facade: ``triqw.__all__`` grows or shrinks only on purpose, its
text parsers reject what is not text, and every value argument of a public
callable rejects junk with ValueError."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


BOSONS = triqw.Statistics.BOSONS
_PROP = triqw.single_particle_propagator(triqw.LatticeParams(6), 1.0)
_WALK = triqw.evolve_state(triqw.WALK_INIT, triqw.LatticeParams(6), 1.0, BOSONS)
# Every public callable that takes a value argument: its valid arguments and,
# by position, the kind of each value slot (times, phases, integers for
# counts and occupations, arrays for amplitudes and matrices).  The other
# slots are typed (statistics, partition, basis, params, state): a junk
# object there may fail as Python does.
VALUE_SLOTS = {
    "DensityMatrix": ([(2, 2), np.eye(4) / 4], {0: "integers", 1: "array"}),
    "ManyBodyState": ([_WALK.basis, _WALK.amp], {1: "array"}),
    "LatticeParams": ([6], {0: "integers"}),
    "Partition": ([(1, 2), (3, 4), (5, 6)], {0: "integers", 1: "integers", 2: "integers"}),
    "enumerate_basis": ([3, 6, BOSONS], {0: "integers", 1: "integers"}),
    "evolve_state": ([triqw.WALK_INIT, triqw.LatticeParams(6), 1.0, BOSONS],
                     {0: "integers", 2: "time"}),
    "single_particle_propagator": ([triqw.LatticeParams(6), 1.0], {1: "times"}),
    "phi_state": ([0.1, 0.2], {0: "phase", 1: "phase"}),
    "project_sector": ([_WALK, triqw.ADJACENT_PARTITION, (1, 1, 1)], {2: "integers"}),
    "bipartite_negativity": ([triqw.DensityMatrix((2, 2), np.eye(4) / 4), 0], {1: "integers"}),
    "partial_transpose": ([triqw.DensityMatrix((2, 2), np.eye(4) / 4), 0], {1: "integers"}),
    "single_particle_density": ([_PROP, triqw.WALK_INIT], {0: "array", 1: "integers"}),
    "two_particle_correlation": ([_PROP, triqw.WALK_INIT, BOSONS], {0: "array", 1: "integers"}),
    "interparticle_distance": ([np.eye(6)], {0: "array"}),
    "phi_scan": ([3, 3], {0: "integers", 1: "integers"}),
    "walk_scan": ([BOSONS, triqw.ADJACENT_PARTITION, 1.0, 3, triqw.WALK_INIT],
                  {2: "time", 3: "integers", 4: "integers"}),
    "snapshot": ([BOSONS, 1.0, triqw.WALK_INIT], {1: "time", 2: "integers"}),
}
JUNK = object()
# Junk for every value slot, then junk for one kind of slot only.
ANY_JUNK = [None, True, False, math.nan, math.inf, -math.inf, 1j, "1", "abc",
            [[1.0], [1.0, 2.0]], JUNK]
KIND_JUNK = {
    "integers": [-1, 2.5, 1e308, [1.5]],
    "time": [1e308, [1.0, 2.0]],  # 2 tau overflows; one time, not several
    "times": [1e308, [1.0, math.nan]],
    "phase": [[1.0, 2.0]],
    "array": [2.5, [1.0, 2.0], np.zeros((2, 3)), [[JUNK]]],
}


@st.composite
def junk_calls(draw):
    name = draw(st.sampled_from(sorted(VALUE_SLOTS)))
    args, slots = VALUE_SLOTS[name]
    slot = draw(st.sampled_from(sorted(slots)))
    return name, slot, draw(st.sampled_from(ANY_JUNK + KIND_JUNK[slots[slot]]))


def test_value_slots_cover_every_public_callable_with_a_value_argument():
    callables = {name for name in triqw.__all__ if callable(getattr(triqw, name))}
    typed_only = {"Statistics", "chi_report", "chi_state", "entanglement_of_particles",
                  "geometric_measure", "tripartite_negativity"}
    assert set(VALUE_SLOTS) == callables - typed_only
    for name, (args, _) in VALUE_SLOTS.items():
        getattr(triqw, name)(*args)


@settings(max_examples=300, deadline=None)
@given(case=junk_calls())
@example(case=("DensityMatrix", 1, JUNK))  # raised TypeError from np.asarray
@example(case=("ManyBodyState", 1, JUNK))
@example(case=("phi_state", 0, math.inf))  # raised "math domain error"
@example(case=("phi_state", 1, math.inf))  # warned twice first
def test_junk_in_a_value_slot_raises_value_error(case):
    name, slot, junk = case
    args = list(VALUE_SLOTS[name][0])
    args[slot] = junk
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            getattr(triqw, name)(*args)
