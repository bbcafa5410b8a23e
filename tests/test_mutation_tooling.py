"""The mutation tooling follows the code: every hand-written mutant of
``tests/mutants.py`` still finds its text, and every entry of
``tests/equivalent_mutants.json`` still names a generated mutant.  A stale
anchor makes the hand-written run exit 2, and a stale entry hides nothing
but is reported only at the end of the generated sweep, so both fail here
in well under a second instead.  One runner serves both kinds of mutant;
it is checked here on a stand-in test that only reads the mutated file."""

import json
from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS, generated_mutants, sweep

SRC = Path(__file__).resolve().parents[1] / "src" / "triqw"


@pytest.mark.parametrize("name, file, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_hand_written_anchor_occurs_once(name, file, old, new):
    assert (SRC / file).read_text().count(old) == 1


def test_equivalent_entries_name_generated_mutants():
    entries = json.loads(EQUIVALENT.read_text())
    keys = {mutant.key for mutant in generated_mutants(SRC)}
    for entry in entries:
        lines = {line.strip() for line in (SRC / entry["file"]).read_text().splitlines()}
        assert entry["line"] in lines, entry
        assert (entry["file"], entry["line"], entry["mutation"]) in keys, entry
    assert len({(e["file"], e["line"], e["mutation"]) for e in entries}) == len(entries)


def test_sweep_tests_each_text_in_a_copy_and_restores_the_file(tmp_path):
    roots = [tmp_path / f"copy-{job}" for job in range(2)]
    for root in roots:
        (root / "src" / "triqw").mkdir(parents=True)
        (root / "src" / "triqw" / "m.py").write_text("x = 0\n")
    texts = [("m.py", f"x = {i}\n") for i in range(1, 8)]
    seen = sweep(roots, texts, lambda root: (root / "src" / "triqw" / "m.py").read_text())
    assert list(seen) == [text for _, text in texts]
    assert [(root / "src" / "triqw" / "m.py").read_text() for root in roots] == ["x = 0\n"] * 2
