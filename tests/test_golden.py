"""Golden outputs: the benchmark's operations against its stored references.

Runs the ``phi-scan`` and ``walk`` workload operations in process through
the CLI, and the ``dephased`` library series over the reduced sample
times, and compares each output with ``perfbench/ref`` using the
benchmark's own comparison (same text between numbers, every number
within 1e-10 absolute) and the cross-path identities of the dephased
series.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import dephased  # noqa: E402
from check import compare, dephased_identities, load_refs  # noqa: E402
from workloads import cli_ops, dephased_series, dephased_taus, ref_dir  # noqa: E402

from triqw.cli import main  # noqa: E402

CLI_OPS = cli_ops("phi-scan") + cli_ops("walk")
CLI_REFS = load_refs(ref_dir(smoke=False), [name for name, _ in CLI_OPS])
SERIES = dephased_series()
DEPHASED_REFS = load_refs(ref_dir(smoke=True), [name for name, _, _ in SERIES])


@pytest.mark.parametrize("name,argv", CLI_OPS, ids=[name for name, _ in CLI_OPS])
def test_cli_output_matches_reference(capsys, name, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert compare(captured.out, CLI_REFS[name]) is None


@pytest.mark.parametrize("name,stats,partition", SERIES, ids=[name for name, _, _ in SERIES])
def test_dephased_series_matches_reference(name, stats, partition):
    text = dephased.series(stats, partition, dephased_taus(0, smoke=True))
    assert compare(text, DEPHASED_REFS[name]) is None
    assert dephased_identities(text) is None
