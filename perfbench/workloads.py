"""Workload definitions shared by the benchmark runner and its child processes.

An operation is one CLI invocation or one statistics x partition series of
the ``dephased`` workload; every operation yields one text output that is
checked against a stored reference.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REF = BENCH / "ref"

WORKLOADS = ("phi-scan", "walk", "dephased")

# Every child gets this BLAS/OpenMP thread count explicitly; one thread keeps
# runs comparable across machines and is never more than nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

STATS = ("bosons", "fermions")
PARTITIONS = {"adjacent": "1,2|3,4|5,6", "alternating": "1,4|2,5|3,6"}

TAU_MAX = 20.0
DEPHASED_SAMPLES = 400
# Reduced sizes of the self-test's smoke run.
SMOKE_PHI_STEPS = ("7", "5")
SMOKE_STEPS = 30

# Absolute tolerance of every numeric comparison with a reference.
TOLERANCE = 1e-10


def cli_ops(workload: str, smoke: bool = False) -> list[tuple[str, list[str]]]:
    """(operation name, triqw CLI arguments) of one pass of a CLI workload."""
    if workload == "phi-scan":
        scan = ["phi-scan"]
        if smoke:
            scan += ["--alpha-steps", SMOKE_PHI_STEPS[0], "--beta-steps", SMOKE_PHI_STEPS[1]]
        return [("chi", ["chi"]), ("phi-scan", scan)]
    if workload == "walk":
        steps = ["--steps", str(SMOKE_STEPS)] if smoke else []
        ops = [
            (f"walk-{stats}-{name}", ["walk", "--stats", stats, "--partition", part] + steps)
            for stats in STATS
            for name, part in PARTITIONS.items()
        ]
        return ops + [(f"snapshot-{stats}", ["snapshot", "--stats", stats]) for stats in STATS]
    return []


def dephased_series() -> list[tuple[str, str, str]]:
    """(operation name, statistics, partition) of the ``dephased`` workload."""
    return [
        (f"dephased-{stats}-{name}", stats, part)
        for stats in STATS
        for name, part in PARTITIONS.items()
    ]


def op_names(workload: str, smoke: bool = False) -> list[str]:
    if workload == "dephased":
        return [name for name, _, _ in dephased_series()]
    return [name for name, _ in cli_ops(workload, smoke)]


def dephased_taus(seed: int, smoke: bool = False) -> list[float]:
    """Sample times on [0, TAU_MAX]: a uniform grid for seed 0, sorted draws otherwise."""
    samples = SMOKE_STEPS if smoke else DEPHASED_SAMPLES
    if seed == 0:
        return [TAU_MAX * i / (samples - 1) for i in range(samples)]
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, TAU_MAX) for _ in range(samples))


def has_reference(workload: str, seed: int) -> bool:
    """Only the seed-0 sample times of ``dephased`` have stored outputs."""
    return workload != "dephased" or seed == 0


def ref_dir(smoke: bool) -> Path:
    return REF / "smoke" if smoke else REF


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's sources and a fixed BLAS thread count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    return env
