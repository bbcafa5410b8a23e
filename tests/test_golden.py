"""Golden outputs: the benchmark's operations against its stored references.

Runs the ``phi-scan`` and ``walk`` workload operations in process through
the CLI, and the ``dephased`` library series over the reduced and the full
seed-0 sample times, and compares each output with ``perfbench/ref`` using
the benchmark's own comparison (same text between numbers, every number
within 1e-10 absolute) and the cross-path identities of the dephased
series.  The full series hold roundoff-level values (about 1e-7 of
``eps_T`` on PPT cuts) that move with the last bits of the amplitudes, so
they pin the mixed-state path's arithmetic.
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
DEPHASED_REFS = {
    smoke: load_refs(ref_dir(smoke), [name for name, _, _ in SERIES]) for smoke in (True, False)
}
DEPHASED_CASES = [
    pytest.param(name, stats, partition, smoke, id=name if smoke else f"{name}-full")
    for smoke in (True, False)
    for name, stats, partition in SERIES
]


@pytest.mark.parametrize("name,argv", CLI_OPS, ids=[name for name, _ in CLI_OPS])
def test_cli_output_matches_reference(capsys, name, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert compare(captured.out, CLI_REFS[name]) is None


@pytest.mark.parametrize("name,stats,partition,smoke", DEPHASED_CASES)
def test_dephased_series_matches_reference(name, stats, partition, smoke):
    text = dephased.series(stats, partition, dephased_taus(0, smoke))
    assert compare(text, DEPHASED_REFS[smoke][name]) is None
    assert dephased_identities(text) is None
