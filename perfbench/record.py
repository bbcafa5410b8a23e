"""Record every operation's output from the current code as the stored reference.

Writes ``perfbench/ref/`` (seed 0, default sizes) and ``perfbench/ref/smoke/``
(the self-test's reduced sizes).  Run it only at a commit whose outputs
are the ones later commits must reproduce:

    python3 perfbench/record.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from check import Gate, write_ref
from run import run_pass
from workloads import OUT, WORKLOADS, ref_dir


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    for smoke in (False, True):
        for workload in WORKLOADS:
            gate = Gate({})
            with tempfile.TemporaryDirectory(dir=OUT) as scratch:
                run_pass(workload, 0, smoke, Path(scratch), gate)
            if gate.failed:
                print("\n".join(gate.reasons), file=sys.stderr)
                return 1
            for name, text in gate.first.items():
                write_ref(ref_dir(smoke), name, text)
            print(f"recorded {workload}{' (smoke)' if smoke else ''}: {sorted(gate.first)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
