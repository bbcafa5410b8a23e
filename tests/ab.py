"""A/B harness: alternating benchmark runs of two trees, one summary per metric.

Runs each tree's own ``perfbench/run.py --trace 0`` for one workload, in
``--pairs`` pairs, each run as long as the head tree's ``BENCHMARK.json``
``run_seconds`` (recorded as the entry's ``seconds``).  The base tree runs
first in even pairs, the head tree in odd ones.  Each run reads its
end-to-end metrics from the last stdout line of ``run.py``.  Each pair
also starts with a ``python -c "import numpy"`` child, timed from spawn
to exit: the floor of ``wall_s`` and ``setup_s`` that no change to
``src`` can move.  Its quartiles go into the entry's ``floor`` block,
next to each side's median ``measured_setup_s`` (the set-up time that
``run.py`` prints before rescaling it by the calibration child), which
is what it compares with.  With ``--tier1`` instead of ``--workload``,
each run is the tier-1 command in that tree, its one metric ``wall_s``
is the command's wall time, and the counts of passed and failed tests
of every run are recorded, because the known failures make the command
exit non-zero.  Every child gets the benchmark's BLAS thread count.  For
every metric of the head tree's ``BENCHMARK.json`` (for ``--tier1``,
for ``wall_s``) it reports:

* each side's median and quartiles, and the head's median relative to
  the base's;
* the pairs in which the head is better and worse (ties count for
  neither) and the two-sided exact sign-test p-value over them;
* whether a gain holds by the benchmark's rule: better in at least nine
  tenths of the pairs, and the medians further apart than the base's
  interquartile range; and whether a loss holds by the same rule turned
  round;
* whether the head is within the metric's bound of the base (the tier-1
  time has no bound, so there it is null).

A ``run.py`` that exits non-zero (it exits 1 on a failed operation)
stops the harness; the attempted and failed operations of both sides
are recorded.  Each tree is recorded by the sha256 of its ``src`` (the
byte stream of ``run.py``'s provenance), its ``git_commit`` and a
``dirty`` flag: a tree that is the top of a git checkout whose ``src``
matches its ``HEAD`` records that commit and ``dirty: false``; any
other, such as an unpacked ``git archive``, records ``git_commit: null``
and ``dirty: true``, so a record never names a commit whose ``src`` it
did not run.  The summary goes to stdout and into ``BENCH_<label>.json``
at the root of the checkout holding this script, under
``<workload>-seed<seed>`` or ``tier1``, next to the file's other
entries, with the machine (nproc, Python, numpy, BLAS and BLAS threads)
of this interpreter, which runs both trees.

With ``--history`` it runs nothing and prints each workload's base and
head medians of every metric, for every ``BENCH_*.json`` committed in
this checkout, in the order the files were first committed.  It reads
both schemas in the repository: this script's ``runs`` (sides ``base``
and ``head``) and the earlier ``workloads`` block with its
``holdout_seed_<n>`` sets (sides ``parent`` and ``change``).

Not collected by pytest (the name does not match ``test_*.py``) and not
part of tier-1.  A pair takes about twice ``run_seconds`` plus start-up.

Usage: python tests/ab.py --base DIR --head DIR (--workload W | --tier1)
           --pairs N --label L [--seed S]
       python tests/ab.py --history

For example, unpack the parent commit with ``git archive`` into DIR and
compare it with this tree.  A tree compared with a copy of itself should
show no gain.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import BLAS_ENV, BLAS_THREADS  # noqa: E402

SIDES = ("base", "head")
WIN_SHARE = 0.9  # share of pairs the better side must win for a gain
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
FLOOR = [sys.executable, "-c", "import numpy"]


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with the benchmark's BLAS thread count."""
    return dict(os.environ, **dict.fromkeys(BLAS_ENV, str(BLAS_THREADS)), **extra)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` in ``tree``: its JSON result and provenance."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run.py exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("provenance "):
            result["provenance"] = json.loads(line[len("provenance "):])
        elif line.startswith("measured_setup_s "):
            result["measured_setup_s"] = float(line.split()[1])
    return result


def time_floor() -> float:
    """Wall seconds of one ``FLOOR`` child, from spawn to exit."""
    start = time.perf_counter()
    subprocess.run(FLOOR, env=child_env(), check=True, timeout=600)
    return time.perf_counter() - start


def floor_block(floor: list[float], results: dict[str, list[dict]]) -> dict:
    """The ``floor`` entry: the quartiles of the floor children's seconds,
    and each side's median measured set-up time, all uncalibrated."""
    setup = {
        side: statistics.median(r["measured_setup_s"] for r in results[side])
        for side in SIDES
    }
    return {
        "command": "python -c 'import numpy'",
        "unit": "s",
        **dict(zip(("q1", "median", "q3"), quartiles(floor))),
        "runs": floor,
        "measured_setup_s": setup,
    }


def run_tier1(tree: Path) -> dict:
    """One tier-1 command in ``tree``: its wall time as ``wall_s`` and the
    counts of pytest's summary line."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = child_env(PYTHONPATH=path)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=1800)
    wall = time.perf_counter() - start
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", summary)}
    return {"metrics": {"wall_s": {"value": wall}}, "tests": counts}


def machine_and_trees(trees: dict[str, Path]) -> tuple[dict, dict]:
    """(machine block, trees block) of a record: this interpreter's versions,
    and each tree's ``src`` sha256 as ``run.py`` takes it and its commit."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    machine = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
               "numpy": numpy.__version__, "blas": blas, "blas_threads": BLAS_THREADS}
    shas = {}
    for side, tree in trees.items():
        digest = hashlib.sha256()
        for path in sorted((tree / "src").rglob("*.py")):
            digest.update(path.relative_to(tree / "src").as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
        shas[side] = {"src_sha256": digest.hexdigest(), **tree_commit(tree)}
    return machine, shas


def tree_commit(tree: Path) -> dict:
    """``git_commit`` and ``dirty`` of a tree: its ``HEAD`` when the tree is
    the top of a git checkout and ``src`` has no change against ``HEAD``
    (untracked files included), else null and dirty."""

    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != tree.resolve():
        return {"git_commit": None, "dirty": True}
    commit, changes = git("rev-parse", "HEAD"), git("status", "--porcelain", "--", "src")
    if commit is None or changes != "":
        return {"git_commit": None, "dirty": True}
    return {"git_commit": commit, "dirty": False}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def summarise(runs: dict[str, list[float]], better: str, bound: float | None) -> dict:
    """Medians, quartiles, pair counts and verdicts of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(runs["base"], runs["head"]))
    wins = sum(sign * (h - b) < 0 for b, h in pairs)
    losses = sum(sign * (h - b) > 0 for b, h in pairs)
    stats = {side: dict(zip(("q1", "median", "q3"), quartiles(runs[side]))) for side in SIDES}
    base, head = stats["base"]["median"], stats["head"]["median"]
    base_iqr = stats["base"]["q3"] - stats["base"]["q1"]
    return {
        **stats,
        "head_vs_base": head / base - 1.0,
        "head_better_in_pairs": wins,
        "head_worse_in_pairs": losses,
        "sign_test_p": sign_test(wins, losses),
        "base_iqr": base_iqr,
        "gain": wins >= WIN_SHARE * len(pairs) and sign * (base - head) > base_iqr,
        "loss": losses >= WIN_SHARE * len(pairs) and sign * (head - base) > base_iqr,
        "within_bound": None if bound is None else sign * (head / base - 1.0) <= bound,
        "runs": runs,
    }


def bench_entries(record: dict):
    """(key, entry) of every workload measurement of a BENCH record, in
    either schema, keyed ``<workload>-seed<seed>`` (or ``tier1``)."""
    yield from record.get("runs", {}).items()
    sets = {record.get("seeds", {}).get("benchmark"): record.get("workloads", {})}
    for key, value in record.items():
        if key.startswith("holdout_seed_"):
            sets[int(key[len("holdout_seed_"):])] = value
    for seed, workloads in sets.items():
        for workload, entry in workloads.items():
            yield f"{workload}-seed{seed}", entry


def medians(entry: dict):
    """(metric, base median, head median) of each metric of one entry."""
    for name, value in entry.items():
        if not isinstance(value, dict):
            continue
        sides = [value.get(side) for side in (SIDES if "base" in value else ("parent", "change"))]
        if all(isinstance(side, dict) and "median" in side for side in sides):
            yield name, sides[0]["median"], sides[1]["median"]


def history(root: Path) -> int:
    """Print the medians of every committed BENCH file, oldest first."""
    log = subprocess.run(
        ["git", "log", "--reverse", "--diff-filter=A", "--format=%h", "--name-only", "--",
         "BENCH_*.json"], cwd=root, capture_output=True, text=True)
    if log.returncode != 0:
        raise SystemExit(f"--history needs a git checkout: {log.stderr.strip()}")
    seen, commit = set(), None
    for line in log.stdout.splitlines():
        if not line.startswith("BENCH_"):
            commit = line or commit
            continue
        if line in seen:
            continue
        seen.add(line)
        show = subprocess.run(["git", "show", f"HEAD:{line}"], cwd=root, capture_output=True,
                              text=True)
        if show.returncode != 0:  # deleted since
            continue
        print(f"{line} (added in {commit})")
        for key, entry in bench_entries(json.loads(show.stdout)):
            for name, base, head in medians(entry):
                print(f"  {key:20} {name:12} {base:10.4g} -> {head:10.4g} ({head / base - 1:+.1%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="tree of the parent")
    parser.add_argument("--head", type=Path, help="tree of the change")
    kind = parser.add_mutually_exclusive_group(required=True)
    kind.add_argument("--workload")
    kind.add_argument("--tier1", action="store_true", help="time the tier-1 command instead")
    kind.add_argument("--history", action="store_true", help="print the committed medians")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--label", help="writes BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.history:
        return history(ROOT)
    required = ("base", "head", "pairs", "label")
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    if args.pairs < 2:  # quartiles need two runs per side
        parser.error("--pairs must be at least 2")
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    benchmark = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    spec, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    if args.tier1:
        spec = [dict(metric, bound=None) for metric in spec if metric["name"] == "wall_s"]
    machine, shas = machine_and_trees(trees)
    if args.tier1:
        key, measure = "tier1", run_tier1
    else:
        key = f"{args.workload}-seed{args.seed}"
        measure = functools.partial(run, workload=args.workload, seed=args.seed, seconds=seconds)

    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    first, floor = [], []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        if not args.tier1:
            floor.append(time_floor())
        for side in order:
            results[side].append(measure(trees[side]))
        values = {side: results[side][-1]["metrics"]["wall_s"]["value"] for side in SIDES}
        print(f"pair {i + 1}/{args.pairs}: wall_s base {values['base']:.4f} "
              f"head {values['head']:.4f}", flush=True)

    common = {"pairs": args.pairs, "first_in_pair": first, "trees": shas}
    if args.tier1:
        entry = {
            "command": " ".join(["PYTHONPATH=src python", *TIER1]),
            **common,
            "tests": {side: [r["tests"] for r in results[side]] for side in SIDES},
        }
    else:
        entry = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": seconds,
            **common,
            "operations": {
                side: {n: sum(r[n] for r in results[side]) for n in ("failed", "attempted")}
                for side in SIDES
            },
            "floor": floor_block(floor, results),
        }
        f = entry["floor"]
        print(f"floor (python -c 'import numpy', measured): {f['median']:.4g} "
              f"[{f['q1']:.4g}-{f['q3']:.4g}] s; measured setup_s base "
              f"{f['measured_setup_s']['base']:.4g} head {f['measured_setup_s']['head']:.4g}")
    for metric in spec:
        name = metric["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        entry[name] = summarise(runs, metric["better"], metric["bound"])
        entry[name]["unit"] = metric["unit"]
        e = entry[name]
        base, head = e["base"], e["head"]
        print(f"{name}: base {base['median']:.4g} [{base['q1']:.4g}-{base['q3']:.4g}] "
              f"head {head['median']:.4g} [{head['q1']:.4g}-{head['q3']:.4g}] "
              f"({e['head_vs_base']:+.1%}); head better in {e['head_better_in_pairs']}, "
              f"worse in {e['head_worse_in_pairs']} of {args.pairs}; sign test p = "
              f"{e['sign_test_p']:.3g}; gain {e['gain']}; loss {e['loss']}; "
              f"within bound {e['within_bound']}")
    if args.tier1:
        failed = 0
        for side in SIDES:
            outcomes = sorted({json.dumps(counts, sort_keys=True) for counts in entry["tests"][side]})
            print(f"{side} tier-1 outcomes: {', '.join(outcomes)}")
    else:
        failed = entry["operations"]["base"]["failed"] + entry["operations"]["head"]["failed"]
        print(f"failed operations: {failed}")

    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {"label": args.label}
    record["machine"] = machine
    record.setdefault("runs", {})[key] = entry
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
