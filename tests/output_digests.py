"""Digests of the program's outputs: one line per output, for diffing two trees.

Runs each output below in a fresh child process against the ``src`` of a
checkout and prints one line per output: its name, the sha256 of its
stdout, its exit code and its stderr (JSON-quoted, so it stays on one
line).  Two runs diffed line by line show which outputs a change moves,
byte for byte:

* ``chi``, ``phi-scan``, the four walks (bosons and fermions, adjacent
  and alternating partitions) and both snapshots at their defaults, in
  CSV and in JSON;
* ``walk --stats bosons --steps 10000`` and ``phi-scan --partition
  1,4|2,5|3,6`` on a 21 x 21 grid;
* ``perfbench/dephased.py --seed 0`` and ``--seed 7``;
* configuration errors that exit 2: overflowing, infinite and nan times,
  too few walk samples and too many grid steps.

Children run with one BLAS thread, as the benchmark's do.  Not collected
by pytest (the name does not match ``test_*.py``) and not part of tier-1;
a run takes about 10 s.

Usage: python tests/output_digests.py [--checkout DIR]

For example, unpack the parent commit with ``git archive`` into DIR, then
diff ``python tests/output_digests.py --checkout DIR`` against a run on
this tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WALK_PARTITIONS = {"adjacent": "1,2|3,4|5,6", "alternating": "1,4|2,5|3,6"}
STATS = ("bosons", "fermions")

DEFAULTS = [("chi", ["chi"]), ("phi-scan", ["phi-scan"])]
DEFAULTS += [
    (f"walk-{stats}-{name}", ["walk", "--stats", stats, "--partition", partition])
    for stats in STATS
    for name, partition in WALK_PARTITIONS.items()
]
DEFAULTS += [(f"snapshot-{stats}", ["snapshot", "--stats", stats]) for stats in STATS]

CLI_OUTPUTS = [
    (f"{name}-{fmt}", argv + ["--format", fmt]) for name, argv in DEFAULTS for fmt in ("csv", "json")
]
CLI_OUTPUTS += [
    ("walk-bosons-10000-steps", ["walk", "--stats", "bosons", "--steps", "10000"]),
    (
        "phi-scan-alternating-21",
        ["phi-scan", "--partition", "1,4|2,5|3,6", "--alpha-steps", "21", "--beta-steps", "21"],
    ),
    ("error-walk-tau-max-1e308", ["walk", "--tau-max", "1e308"]),
    ("error-walk-tau-max-1.7e308", ["walk", "--tau-max", "1.7e308"]),
    ("error-walk-tau-max-inf", ["walk", "--tau-max", "inf"]),
    ("error-snapshot-tau-nan", ["snapshot", "--tau", "nan"]),
    ("error-walk-steps-1", ["walk", "--steps", "1"]),
    ("error-phi-scan-alpha-steps-502", ["phi-scan", "--alpha-steps", "502"]),
]
DEPHASED_SEEDS = (0, 7)


def outputs(checkout: Path):
    """(name, argv) of every output, run from ``checkout``."""
    python = sys.executable
    for name, args in CLI_OUTPUTS:
        yield name, [python, "-m", "triqw.cli"] + args
    for seed in DEPHASED_SEEDS:
        script = str(checkout / "perfbench" / "dephased.py")
        yield f"dephased-seed-{seed}", [python, script, "--seed", str(seed)]


def digest(argv, checkout: Path) -> tuple[str, int, str]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, timeout=600)
    sha = hashlib.sha256(result.stdout).hexdigest()
    return sha, result.returncode, result.stderr.decode("utf-8", "replace")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    for name, command in outputs(checkout):
        sha, code, err = digest(command, checkout)
        print(f"{name:34} {sha} {code} {json.dumps(err)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
