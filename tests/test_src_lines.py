"""``tests/src_lines.py --checkout DIR`` counts the package of another
checkout, ``DIR/src/triqw``, as the in-tree run counts this one."""

import shutil
from pathlib import Path

from src_lines import main

ROOT = Path(__file__).resolve().parents[1]


def test_a_copy_of_the_checkout_counts_the_same(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "triqw", tmp_path / "src" / "triqw")
    assert main([]) == 0
    here = capsys.readouterr().out
    assert main(["--checkout", str(tmp_path)]) == 0
    there = capsys.readouterr().out
    assert there == here
    assert here.splitlines()[-2].split()[0] == "total"
