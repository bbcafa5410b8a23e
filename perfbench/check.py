"""Correctness gate: every operation output against its reference and its repeats.

An output is split into numeric tokens and the text between them.  The
text must match the reference exactly and every number must lie within
``TOLERANCE`` of the reference, so CSV and JSON outputs share one rule.
"""

from __future__ import annotations

import gzip
import re
from dataclasses import dataclass, field
from pathlib import Path

from workloads import TOLERANCE

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


@dataclass
class OpResult:
    """One execution of one operation."""

    rc: int
    stderr: str
    text: str


@dataclass
class Gate:
    """Counts attempted and failed operations and keeps the reasons.

    ``first`` holds each operation's first output, which every repeat must
    match byte for byte.
    """

    refs: dict[str, str]
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    first: dict[str, str] = field(default_factory=dict)

    def check(self, name: str, result: OpResult) -> bool:
        self.attempted += 1
        reason = self._reason(name, result)
        if reason is None:
            return True
        self.failed += 1
        self.reasons.append(f"{name}: {reason}")
        return False

    def _reason(self, name: str, result: OpResult) -> str | None:
        if result.rc != 0:
            return f"exit code {result.rc}"
        if result.stderr:
            return f"stderr: {result.stderr.strip().splitlines()[-1][:200]}"
        first = self.first.setdefault(name, result.text)
        if result.text != first:
            return "repeat is not byte-identical"
        if name in self.refs:
            mismatch = compare(result.text, self.refs[name])
            if mismatch:
                return mismatch
        if name.startswith("dephased-"):
            return dephased_identities(result.text)
        return None


def load_refs(directory: Path, names) -> dict[str, str]:
    refs = {}
    for name in names:
        path = directory / f"{name}.txt.gz"
        if not path.is_file():
            raise FileNotFoundError(f"missing reference {path}")
        refs[name] = gzip.decompress(path.read_bytes()).decode("utf-8")
    return refs


def write_ref(directory: Path, name: str, text: str) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    data = gzip.compress(text.encode("utf-8"), mtime=0)
    (directory / f"{name}.txt.gz").write_bytes(data)


def _split(text: str) -> tuple[list[str], list[float]]:
    return NUMBER.split(text), [float(tok) for tok in NUMBER.findall(text)]


def compare(text: str, ref: str) -> str | None:
    """None when ``text`` matches ``ref`` within TOLERANCE, else the first difference."""
    skeleton, values = _split(text)
    ref_skeleton, ref_values = _split(ref)
    if skeleton != ref_skeleton or len(values) != len(ref_values):
        return "output layout differs from the reference"
    for i, (value, expected) in enumerate(zip(values, ref_values)):
        if not abs(value - expected) <= TOLERANCE:
            return f"value #{i} is {value!r}, reference {expected!r}"
    return None


def dephased_identities(text: str) -> str | None:
    """Cross-path identities that hold for any sample times.

    Every time-averaged density matrix has trace one, and the mixed-state
    eps_T of the rank-one first average equals the pure-state eps_T of
    the same walk state.
    """
    lines = text.strip().splitlines()
    try:
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:-1]]
        label, pure = lines[-1].split(",")
        pure = float(pure)
        if label != "pure_eps_T_1" or not rows or any(len(row) != 3 for row in rows):
            raise ValueError
    except (ValueError, IndexError):
        return "malformed dephased output"
    worst = max(abs(row[2] - 1.0) for row in rows)
    if not worst <= TOLERANCE:
        return f"time-averaged state has trace off by {worst!r}"
    if not abs(rows[0][1] - pure) <= TOLERANCE:
        return f"mixed eps_T {rows[0][1]!r} differs from pure eps_T {pure!r}"
    return None
