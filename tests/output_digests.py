"""Digests of the program's outputs: one line per output, for diffing two trees.

Runs each output below in a fresh child process against the ``src`` of a
checkout and prints one line per output: its name, the sha256 of its
stdout, its exit code and its stderr (JSON-quoted, so it stays on one
line).  Two runs diffed line by line show which outputs a change moves,
byte for byte:

* the operations of the benchmark's ``phi-scan`` and ``walk`` workloads
  (``chi``, ``phi-scan``, the four walks and both snapshots at their
  defaults), in CSV and in JSON;
* ``walk --stats bosons --steps 10000``, a 1001-step fermion walk on
  the alternating partition, whose last block of times is partial, and
  ``phi-scan --partition 1,4|2,5|3,6`` on a 21 x 21 grid;
* ``perfbench/dephased.py --seed 0`` and ``--seed 7``;
* configuration errors that exit 2: overflowing, infinite and nan times,
  too few walk samples and too many grid steps.

Children get the benchmark's BLAS thread count.  Not collected by pytest
(the name does not match ``test_*.py``) and not part of tier-1; a run
takes about 10 s.

With ``--diff DIR`` it also runs every output from the checkout DIR and,
under each output whose stdout differs, prints how many of its numeric
fields moved, the largest absolute change and the line it is on, in
both trees (the row of a CSV, the field of a JSON listing).  The outputs
are compared line by line and number by number; when the lines or the
numbers on a line do not pair up, it says where.

Usage: python tests/output_digests.py [--checkout DIR] [--diff DIR]

For example, unpack the parent commit with ``git archive`` into DIR, then
run ``python tests/output_digests.py --diff DIR`` on this tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import BLAS_ENV, BLAS_THREADS, PARTITIONS, cli_ops  # noqa: E402

DEFAULTS = cli_ops("phi-scan") + cli_ops("walk")
CLI_OUTPUTS = [
    (f"{name}-{fmt}", argv + ["--format", fmt]) for name, argv in DEFAULTS for fmt in ("csv", "json")
]
CLI_OUTPUTS += [
    ("walk-bosons-10000-steps", ["walk", "--stats", "bosons", "--steps", "10000"]),
    (
        "walk-fermions-alternating-1001",
        ["walk", "--stats", "fermions", "--partition", PARTITIONS["alternating"], "--steps", "1001",
         "--format", "json"],
    ),
    (
        "phi-scan-alternating-21",
        ["phi-scan", "--partition", PARTITIONS["alternating"], "--alpha-steps", "21",
         "--beta-steps", "21"],
    ),
    ("error-walk-tau-max-1e308", ["walk", "--tau-max", "1e308"]),
    ("error-walk-tau-max-1.7e308", ["walk", "--tau-max", "1.7e308"]),
    ("error-walk-tau-max-inf", ["walk", "--tau-max", "inf"]),
    ("error-snapshot-tau-nan", ["snapshot", "--tau", "nan"]),
    ("error-walk-steps-1", ["walk", "--steps", "1"]),
    ("error-phi-scan-alpha-steps-502", ["phi-scan", "--alpha-steps", "502"]),
]
# (name, argv) of every output, run from the root of a checkout
OUTPUTS = [(name, [sys.executable, "-m", "triqw.cli", *args]) for name, args in CLI_OUTPUTS]
OUTPUTS += [(f"dephased-seed-{seed}", [sys.executable, "perfbench/dephased.py", "--seed", str(seed)])
            for seed in (0, 7)]
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run(argv, checkout: Path) -> tuple[bytes, int, str]:
    """Stdout, exit code and stderr of one output, run from ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               **dict.fromkeys(BLAS_ENV, str(BLAS_THREADS)))
    result = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, timeout=600)
    return result.stdout, result.returncode, result.stderr.decode("utf-8", "replace")


def numeric_diff(old: str, new: str) -> str:
    """How the numbers of output ``new`` differ from those of ``old``: the
    fields moved, the largest absolute change and its line in both."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return f"{len(old_lines)} lines -> {len(new_lines)} lines"
    moved = fields = 0
    worst = (-1.0, 0)
    for row, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        xs, ys = NUMBER.findall(a), NUMBER.findall(b)
        if len(xs) != len(ys):
            return f"line {row}: {len(xs)} numbers -> {len(ys)} numbers"
        fields += len(xs)
        for x, y in zip(xs, ys):
            if x != y:
                moved += 1
                worst = max(worst, (abs(float(y) - float(x)), row))
    change, row = worst
    if not moved:
        return f"stdout differs, but none of its {fields} numeric fields moved"
    return (f"{moved} of {fields} numeric fields moved; largest |change| {change:.3g} "
            f"at line {row}: {old_lines[row - 1].strip()!r} -> {new_lines[row - 1].strip()!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--diff", type=Path, metavar="DIR", help="checkout to compare with")
    args = parser.parse_args(argv)
    for name, command in OUTPUTS:
        out, code, err = run(command, args.checkout.resolve())
        print(f"{name:34} {hashlib.sha256(out).hexdigest()} {code} {json.dumps(err)}", flush=True)
        if args.diff:
            other = run(command, args.diff.resolve())
            if other[0] != out:
                print(f"  {numeric_diff(other[0].decode(), out.decode())}", flush=True)
            if other[1:] != (code, err):
                print(f"  exit {other[1]} -> {code}; stderr {json.dumps(other[2])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
