"""The triqw benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload {phi-scan,walk,dephased} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it repeats passes of the workload for ``--seconds``
seconds (at least MIN_PASSES) and reports the end-to-end metrics of
BENCHMARK.json:

* ``wall_s``      mean wall time of one pass, first spawn to last exit;
* ``setup_s``     mean wall time of a child that only starts Python and
                  imports ``triqw.cli`` (``triqw`` for ``dephased``), sampled
                  before every pass and after the last;
* ``peak_rss_mb`` median over passes of the largest child max-RSS.

The speed of a shared machine drifts by tens of percent over minutes: in
the ten-run sets of baseline.json the measured seconds spread by IQR/median
up to 0.37, and the medians of two consecutive sets of the same code
differed by up to 35%, more than the largest bound the benchmark may set.
So one fixed calibration child (``calibrate.py``, independent of triqw, the
same for every workload and for set-up) runs before the first pass and
after every pass, and ``wall_s`` and ``setup_s`` are the measured means
multiplied by CALIBRATION_REF_S / (mean calibration time of the run): the
seconds they would take on the machine of the baseline, where the
calibration child's median time was CALIBRATION_REF_S.  A ratio of run
totals follows drift within the run better than per-pass ratios do.  The
measured seconds are printed as ``measured_wall_s`` and
``measured_setup_s``, and every raw sample is kept in the result file.

A pass of ``phi-scan`` and ``walk`` spawns the triqw CLI once per operation;
a pass of ``dephased`` spawns one child that calls the library
(``dephased.py``).  With ``--trace 1`` one child runs the traced
in-process pass (``traced.py``) and the per-layer metrics are reported.

Every operation output is checked: a non-zero exit, anything on stderr, a
value more than 1e-10 from the stored reference, a repeat that is not
byte-identical, or a broken cross-path identity counts as a failed
operation.  ``failed / attempted`` is the error rate.  Any failure makes
the result ``correct: false`` and the exit code 1; a missing program or
reference exits 2 without a result.

The last stdout line is the JSON result; the lines before it give the
provenance and each metric with its unit.  The full result is also
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from check import Gate, OpResult, load_refs
from workloads import (
    BLAS_THREADS,
    OUT,
    ROOT,
    SRC,
    WORKLOADS,
    child_env,
    cli_ops,
    has_reference,
    op_names,
    ref_dir,
)

MIN_PASSES = 2
SETUP_PER_POINT = 2
# Median over the first baseline set (baseline.json) of a run's mean
# calibrate.py time; wall_s and setup_s are seconds at that machine speed.
CALIBRATION_REF_S = 0.443
# Every child is killed at this many seconds after the start, so a run ends
# within the 180 s the benchmark contract allows.
DEADLINE_S = 170.0

_START = time.perf_counter()


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program or reference)."""


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, max RSS in MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(max(1.0, DEADLINE_S - (start - _START)), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def _children(workload: str, seed: int, smoke: bool) -> list[list[str]]:
    python = sys.executable
    if workload == "dephased":
        argv = [python, "perfbench/dephased.py", "--seed", str(seed)]
        return [argv + (["--smoke"] if smoke else [])]
    return [[python, "-m", "triqw.cli"] + args for _, args in cli_ops(workload, smoke)]


def _split_dephased(text: str) -> dict[str, str]:
    """Operation outputs of the dephased child, keyed by their ``## name`` header."""
    parts = {}
    for block in text.split("## ")[1:]:
        name, _, body = block.partition("\n")
        parts[name] = body
    return parts


def run_checked(argv: list[str], scratch: Path, what: str) -> tuple[float, str]:
    """Run a child that must succeed silently: (wall seconds, stdout)."""
    rc, wall, _ = spawn(argv, scratch / "aux.out", scratch / "aux.err")
    err = _read(scratch / "aux.err")
    if rc != 0 or err:
        raise BenchError(f"{what} failed ({rc}): {err[-2000:]}")
    return wall, _read(scratch / "aux.out")


def sample_setup(workload: str, scratch: Path) -> list[float]:
    """Wall times of SETUP_PER_POINT children that only import the program."""
    module = "triqw" if workload == "dephased" else "triqw.cli"
    argv = [sys.executable, "-c", f"import {module}"]
    return [run_checked(argv, scratch, f"'import {module}'")[0] for _ in range(SETUP_PER_POINT)]


def run_pass(workload: str, seed: int, smoke: bool, scratch: Path, gate: Gate):
    """One pass: (wall seconds, peak child RSS in MB); outputs go through ``gate``."""
    children = _children(workload, seed, smoke)
    peak = 0.0
    codes = []
    start = time.perf_counter()
    for i, argv in enumerate(children):
        rc, _, rss = spawn(argv, scratch / f"{i}.out", scratch / f"{i}.err")
        codes.append(rc)
        peak = max(peak, rss)
    wall = time.perf_counter() - start

    names = op_names(workload, smoke)
    for i, rc in enumerate(codes):
        text, err = _read(scratch / f"{i}.out"), _read(scratch / f"{i}.err")
        if workload == "dephased":
            parts = _split_dephased(text)
            for name in names:
                gate.check(name, OpResult(rc, err, parts.get(name, "")))
        else:
            gate.check(names[i], OpResult(rc, err, text))
    return wall, peak


def calibrate(scratch: Path) -> float:
    """Wall seconds of the fixed calibration child (``calibrate.py``)."""
    return run_checked([sys.executable, "perfbench/calibrate.py"], scratch, "calibration")[0]


def end_to_end(args, gate: Gate, scratch: Path) -> tuple[dict, dict]:
    sample_setup(args.workload, scratch)  # the first imports write the bytecode cache
    calibrate(scratch)
    calibrations = [calibrate(scratch)]
    setup, walls, peaks = [], [], []
    start = time.perf_counter()
    while True:
        # Set-up is sampled before every pass and after the last, so that it
        # spans the run as the passes do.
        setup += sample_setup(args.workload, scratch)
        now = time.perf_counter()
        if len(walls) >= MIN_PASSES and (
            now - start >= args.seconds or now - _START > DEADLINE_S - 2 * max(walls)
        ):
            break
        wall, peak = run_pass(args.workload, args.seed, args.smoke, scratch, gate)
        calibrations.append(calibrate(scratch))
        walls.append(wall)
        peaks.append(peak)
    speed = CALIBRATION_REF_S / statistics.mean(calibrations)
    metrics = {
        "wall_s": statistics.mean(walls) * speed,
        "setup_s": statistics.mean(setup) * speed,
        "peak_rss_mb": statistics.median(peaks),
    }
    detail = {
        "passes": len(walls),
        "measured_wall_s": statistics.mean(walls),
        "measured_setup_s": statistics.mean(setup),
        "pass_wall_s": walls,
        "pass_peak_rss_mb": peaks,
        "setup_s": setup,
        "calibration_s": calibrations,
    }
    return metrics, detail


def traced(args, gate: Gate, scratch: Path) -> tuple[dict, dict]:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    argv = [sys.executable, "perfbench/traced.py", "--workload", args.workload,
            "--seed", str(args.seed), "--spans", str(spans)]
    wall, out = run_checked(argv + (["--smoke"] if args.smoke else []), scratch, "traced pass")
    report = json.loads(out)
    for results in report["passes"]:
        for name, result in results.items():
            gate.check(name, OpResult(**result))
    detail = {"passes": len(report["passes"]), "spans": str(spans.relative_to(ROOT)), "child_wall_s": wall}
    return report["metrics"], detail


def provenance(args, passes: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": passes,
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="triqw benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes (self-test)")
    args = parser.parse_args()

    try:
        if not (SRC / "triqw" / "cli.py").is_file():
            raise BenchError(f"no triqw sources under {SRC}")
        units = declared_metrics(bool(args.trace))
        names = op_names(args.workload, args.smoke)
        refs = {}
        if has_reference(args.workload, args.seed):
            refs = load_refs(ref_dir(args.smoke), names)
        gate = Gate(refs)
        OUT.mkdir(parents=True, exist_ok=True)
        measure = traced if args.trace else end_to_end
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            values, detail = measure(args, gate, Path(scratch))
        if set(values) != set(units):
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    prov = provenance(args, detail["passes"])
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, provenance=prov, error_rate=gate.failed / gate.attempted,
                  detail=detail, failures=gate.reasons)
    smoke = "-smoke" if args.smoke else ""
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(prov, sort_keys=True))
    for reason in gate.reasons[:20]:
        print(f"FAILED {reason}")
    print(f"error_rate {record['error_rate']:.6g} ({gate.failed}/{gate.attempted} operations)")
    for name in ("measured_wall_s", "measured_setup_s"):
        if name in detail:
            print(f"{name} {detail[name]:.6g} s (not rescaled)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
