"""A/B harness: alternating benchmark runs of two trees, one summary per metric.

Runs each tree's own ``perfbench/run.py --trace 0`` for one workload, in
``--pairs`` pairs.  The side that runs first alternates: the base tree
first in even pairs, the head tree first in odd ones.  Each run reads its
end-to-end metrics from the last stdout line of ``run.py``.  For every
metric of the head tree's ``BENCHMARK.json`` it reports:

* each side's median and quartiles, and the head's median relative to
  the base's;
* the pairs in which the head is better and worse (ties count for
  neither) and the two-sided exact sign-test p-value over them;
* whether a gain holds by the benchmark's rule: better in at least nine
  tenths of the pairs, and the medians further apart than the base's
  interquartile range;
* whether the head is within the metric's bound of the base.

A run that exits non-zero (``run.py`` exits 1 on a failed operation)
stops the harness; the attempted and failed operations of both sides
are recorded.  The summary goes
to stdout and into ``BENCH_<label>.json`` at the root of the checkout
holding this script, under ``<workload>-seed<seed>``; entries for other
workloads and seeds already in the file are kept, so one label can
collect several runs.  The file also records the machine: nproc, Python,
numpy, BLAS and BLAS threads, from the provenance that ``run.py`` prints.

Not collected by pytest (the name does not match ``test_*.py``) and not
part of tier-1.  A pair takes about twice ``--seconds`` plus start-up.

Usage: python tests/ab.py --base DIR --head DIR --workload W --pairs N
           --label L [--seed S] [--seconds S]

For example, unpack the parent commit with ``git archive`` into DIR and
compare it with this tree.  A tree compared with a copy of itself should
show no gain.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")
WIN_SHARE = 0.9  # share of pairs the better side must win for a gain


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
    return result


def _pick(result: dict, keys) -> dict:
    return {key: result.get("provenance", {}).get(key) for key in keys}


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


def summarise(runs: dict[str, list[float]], better: str, bound: float) -> dict:
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
        "within_bound": sign * (head / base - 1.0) <= bound,
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="tree of the parent")
    parser.add_argument("--head", type=Path, required=True, help="tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())["end_to_end"]

    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    first = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            results[side].append(run(trees[side], args.workload, args.seed, args.seconds))
        values = {side: results[side][-1]["metrics"]["wall_s"]["value"] for side in SIDES}
        print(f"pair {i + 1}/{args.pairs}: wall_s base {values['base']:.4f} "
              f"head {values['head']:.4f}", flush=True)

    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "first_in_pair": first,
        "trees": {side: _pick(results[side][0], ("git_commit", "src_sha256")) for side in SIDES},
        "operations": {
            side: {
                "failed": sum(r["failed"] for r in results[side]),
                "attempted": sum(r["attempted"] for r in results[side]),
            }
            for side in SIDES
        },
    }
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
              f"{e['sign_test_p']:.3g}; gain {e['gain']}; within bound {e['within_bound']}")
    failed = entry["operations"]["base"]["failed"] + entry["operations"]["head"]["failed"]
    print(f"failed operations: {failed}")

    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {"label": args.label}
    machine = ("nproc", "python", "numpy", "blas", "blas_threads")
    record["machine"] = _pick(results["head"][0], machine)
    record.setdefault("runs", {})[f"{args.workload}-seed{args.seed}"] = entry
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
