"""Self-test of the benchmark, on reduced sizes.

Checks that

* every workload, traced and untraced, emits exactly the metrics that
  BENCHMARK.json names, with every operation correct;
* a seed without stored outputs is still checked (cross-path identities);
* a reference value moved by more than the tolerance is counted as a failed
  operation and makes the run exit non-zero, while a move below the
  tolerance is not counted;
* without the program's sources the run exits non-zero and prints no result.

The perturbed and bare cases run a copy of the benchmark in a temporary
tree under ``perfbench/out/``, so the stored references are never touched.

Usage: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from check import NUMBER, load_refs, write_ref
from workloads import BENCH, OUT, ROOT, SRC, TOLERANCE, WORKLOADS, ref_dir

PERTURBED_OP = "walk-fermions-adjacent"


def run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    """(exit code, parsed result line or None) of one smoke run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def copy_tree(directory: Path, with_src: bool) -> Path:
    """A checkout of the benchmark (and the program's sources) under ``directory``."""
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, directory / BENCH.name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", directory)
    if with_src:
        shutil.copytree(SRC, directory / SRC.name, ignore=skip)
    return directory


def perturbed_tree(directory: Path, delta: float) -> Path:
    """A checkout whose smoke reference of PERTURBED_OP has one value moved by ``delta``."""
    copy_tree(directory, with_src=True)
    refs = directory / BENCH.name / ref_dir(smoke=True).relative_to(BENCH)
    text = load_refs(refs, [PERTURBED_OP])[PERTURBED_OP]
    match = next(m for m in NUMBER.finditer(text) if 1e-3 < abs(float(m.group())) < 10)
    moved = repr(float(match.group()) + delta)
    write_ref(refs, PERTURBED_OP, text[: match.start()] + moved + text[match.end() :])
    return directory


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message, flush=True)
        if not condition:
            failures.append(message)

    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, result = run(workload, trace)
            names = {m["name"] for m in spec[group]}
            expect(rc == 0 and result is not None and result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: every operation correct")
            expect(result is not None and set(result["metrics"]) == names,
                   f"{workload} trace={trace}: emits every {group} metric")

    rc, result = run("dephased", 0, seed=7)
    expect(rc == 0 and result is not None and result["correct"] and result["attempted"] > 0,
           "dephased seed 7: checked by the cross-path identities")

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        rc, result = run("walk", 0, cwd=perturbed_tree(tmp / "far", 100 * TOLERANCE))
        expect(rc != 0 and result is not None and not result["correct"] and result["failed"] >= 1,
               "a reference value moved by 100x the tolerance counts as a failure")
        rc, result = run("walk", 0, cwd=perturbed_tree(tmp / "near", 0.01 * TOLERANCE))
        expect(rc == 0 and result is not None and result["failed"] == 0,
               "a reference value moved by 0.01x the tolerance does not")

        rc, result = run("walk", 0, cwd=copy_tree(tmp / "bare", with_src=False))
        expect(rc != 0 and result is None, "without src/ the run exits non-zero with no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
