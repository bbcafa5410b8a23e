"""The traced benchmark pass binds library names by attribute.

``perfbench/traced.py`` looks up every function and method it wraps by
name in its ``triqw`` module, and counts ``triqw.fock.apply_creation``
calls in a separate pass.  A name that moves or disappears breaks only
``perfbench/run.py --trace 1``, so this installs and restores the
tracer's wrappers here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import traced  # noqa: E402

import triqw.fock  # noqa: E402


def test_tracer_installs_on_every_bound_name():
    patches = traced.Patches()
    try:
        traced.Tracer().install(patches)
    finally:
        patches.restore()
    assert callable(triqw.fock.apply_creation)
