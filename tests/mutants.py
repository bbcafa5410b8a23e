"""Mutation check: how many tier-1 tests kill each one-line mutant of ``src/``.

Copies the checkout (without ``.git`` and caches) to a temporary
directory and runs tier-1 there, once unmutated to learn which tests fail
anyway, then once per mutant with its one-line change applied.  A mutant's
text must occur exactly once in its file.  The count printed for a mutant
is the number of tests that fail under it but pass unmutated.

With ``--generated`` it runs the one-node AST mutants of every module in
``src/triqw`` instead (see ``generated_mutants``): each runs tier-1 with
``pytest -x`` and the unmutated failures deselected, so a mutant is killed
by its first failing test, a timeout or a crash.  Survivors keyed in
``tests/equivalent_mutants.json`` (file, source line text and mutation,
so moving a line keeps its entry) are known to be equivalent or benign;
the run prints every other survivor, and every entry that no longer
names a surviving mutant.  Two copies run side by side.

pytest runs from the copy's root: ``pyproject.toml`` puts that root's
``src`` first on ``sys.path``, so a copy imported only through
``PYTHONPATH`` would test the unmutated checkout instead.  The copy's
``conftest.py`` loads a hypothesis profile without the shrink phase and
without the example database, with derandomized examples: a failing
property fails either way, but shrinking it can take minutes, and a
database shared between runs, or fresh random examples, would make one
mutant's result depend on the run.  Each pytest child has one BLAS
thread and, like the run itself, at most 4 GiB of address space, so a
mutant that asks for a huge array fails instead of exhausting the machine.

Every run leaves out ``tests/test_mutation_tooling.py``, the tier-1 check
that the anchors and the equivalent entries still match ``src/``: a
mutant rewrites a line of ``src/``, so that check would fail under any
mutant on a line it reads.

Not collected by pytest (the name does not match ``test_*.py``) and not
part of tier-1; a run takes about 20 s per hand-written mutant on two
cores, and the generated sweep about 20 minutes with two jobs.

Usage: python tests/mutants.py [--checkout DIR] [--generated]
Exit code 0 if every mutant is killed (generated: every survivor is a
known equivalent), 1 if one survives, 2 if a hand-written mutant's text
does not match exactly once.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

# (name, file under src/triqw, original text, mutated text)
MUTANTS = [
    ("boson-bunching-dropped", "observables.py", "bunching = n * (n - 1.0)", "bunching = 0.0 * n"),
    (
        "probability-floor-1e-8",
        "entanglement.py",
        "PROBABILITY_FLOOR = 1e-14",
        "PROBABILITY_FLOOR = 1e-8",
    ),
    (
        "density-block-signs-dropped",
        "entanglement.py",
        "return parts * sector.signs / prob[:, None, None]",
        "return parts / prob[:, None, None]",
    ),
    (
        "pure-block-signs-dropped",
        "entanglement.py",
        "states[rows[:, None], sector.index] * sector.sign / np.sqrt(prob)",
        "states[rows[:, None], sector.index] / np.sqrt(prob)",
    ),
    (
        "qubit-negativity-root-dropped",
        "entanglement.py",
        "2.0 * np.sqrt(np.sum(np.abs(minors) ** 2, axis=-1))",
        "2.0 * np.sum(np.abs(minors) ** 2, axis=-1)",
    ),
    (
        "tpn-arithmetic-mean",
        "entanglement.py",
        "negs[b, k, 3] = np.cbrt(cut.prod(axis=-1))",
        "negs[b, k, 3] = cut.mean(axis=-1)",
    ),
    (
        "public-tpn-arithmetic-mean",
        "entanglement.py",
        "np.cbrt(_negativity(rho.mat[None], rho.dims)[0].prod())",
        "_negativity(rho.mat[None], rho.dims)[0].mean()",
    ),
    (
        "party-float-truncated",
        "entanglement.py",
        "return _integer(party, message, high=len(rho.dims) - 1)",
        "return _integer(int(party), message, high=len(rho.dims) - 1)",
    ),
    (
        "qubit-scatter-last-row-only",
        "entanglement.py",
        "= amps[..., hard] * sign[hard]",
        "= amps.reshape(-1, amps.shape[-1])[-1, hard] * sign[hard]",
    ),
    (
        "qubit-check-first-row-only",
        "entanglement.py",
        "if amps[..., ~hard].any():",
        "if amps.reshape(-1, amps.shape[-1])[0, ~hard].any():",
    ),
    (
        "qubit-sign-dropped",
        "entanglement.py",
        "= amps[..., hard] * sign[hard]",
        "= amps[..., hard]",
    ),
    (
        "fermion-creation-sign-dropped",
        "fock.py",
        "sign = -1.0 if sum(occ[:i]) % 2 else 1.0",
        "sign = 1.0",
    ),
    ("eps-g-norm-term", "entanglement.py", "(dim**3 - 1) * norm**2", "dim**3 * norm**2"),
    (
        "eps-g-purity-weight",
        "entanglement.py",
        "dim * (dim - 1) * purities",
        "dim * dim * purities",
    ),
    (
        "eps-g-marginal-conjugate-dropped",
        "entanglement.py",
        "rows @ rows.conj().swapaxes(-1, -2)",
        "rows @ rows.swapaxes(-1, -2)",
    ),
    (
        "phi-weight-root-two",
        "states.py",
        "math.sin(alpha) / math.sqrt(2.0)",
        "math.sin(alpha) / 2.0",
    ),
    ("csv-precision", "cli.py", '"%.12g"', '"%.11g"'),
    (
        "integer-guard-ignores-low",
        "fock.py",
        "checked is None or checked < low or",
        "checked is None or checked < 0 or",
    ),
    (
        "integer-guard-high-off-by-one",
        "fock.py",
        "(high is not None and checked > high)",
        "(high is not None and checked > high + 1)",
    ),
    (
        "evolve-basis-stats-unchecked",
        "dynamics.py",
        "(basis.n_particles, basis.n_modes, basis.stats) != shape",
        "(basis.n_particles, basis.n_modes) != shape[:2]",
    ),
    (
        "integers-accept-bool",
        "fock.py",
        "operator.index(None if isinstance(value, bool) else value)",
        "operator.index(value)",
    ),
    (
        "real-check-dropped",
        "fock.py",
        "if isinstance(value, bool) or not isinstance(value, numbers.Real):",
        "if False:",
    ),
    ("walk-default-steps", "scans.py", "TIME_SAMPLES = 400", "TIME_SAMPLES = 401"),
    (
        "plan-rows-ascending",
        "fock.py",
        "for row in range(L - 1, -1, -1):",
        "for row in range(L):",
    ),
    (
        "first-creation-zero-sign-kept",
        "fock.py",
        "terms = parts[first] + 0.0",
        "terms = parts[first]",
    ),
    (
        "stack-first-matrix-only",
        "fock.py",
        "-flat.imag), axis=1), amps):",
        "-flat.imag), axis=1)[[0] * len(flat)], amps):",
    ),
    (
        "propagator-phases-on-row-axis",
        "dynamics.py",
        "(sines * phases[..., None, :])",
        "(sines * phases[..., :, None])",
    ),
    (
        "fermions-share-a-site",
        "fock.py",
        "any(n > 1 for n in init)",
        "any(n > 2 for n in init)",
    ),
    (
        "probability-sum-batch-order",
        "entanglement.py",
        "np.ascontiguousarray(weights).sum(axis=-1).real",
        "weights.sum(axis=-1).real",
    ),
    (
        "scan-eps-t-last-bit",
        "scans.py",
        "eps_t[i] = _eps_t_kernel(dec, amps)[2]",
        "eps_t[i] = _eps_t_kernel(dec, amps)[2] * (1.0 + 2.0**-52)",
    ),
    ("cli-tau-max-renamed", "cli.py", '"--tau-max"', '"--t-max"'),
    (
        "report-sectors-renamed",
        "entanglement.py",
        "    sectors: tuple[SectorRecord, ...]",
        "    records: tuple[SectorRecord, ...]",
    ),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
PROFILE = """
from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.generate], database=None, derandomize=True
)
settings.load_profile("mutants")
"""
EQUIVALENT = Path(__file__).resolve().parent / "equivalent_mutants.json"
TOOLING_TEST = "tests/test_mutation_tooling.py"
MEMORY_LIMIT = 4 << 30
JOBS = 2  # copies of the checkout that the generated sweep tests side by side
# Operator swaps of the generated sweep, by AST node class.
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And,
}


class Generated(NamedTuple):
    """One generated mutant: the source span it replaces and its key."""

    file: str
    line: str  # the stripped text of the span's first line
    mutation: str
    span: tuple[int, int, int, int]  # lineno, col_offset, end_lineno, end_col_offset
    text: str

    @property
    def key(self) -> tuple[str, str, str]:
        return self.file, self.line, self.mutation


def _swapped(op: ast.AST) -> str:
    return f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"


def _mutated(node: ast.AST):
    """(mutation, mutated node) for each one-node mutant of ``node``."""
    if isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
        new = copy.copy(node)
        new.op = SWAPS[type(node.op)]()
        yield _swapped(node.op), new
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                new = copy.copy(node)
                new.ops = node.ops[:i] + [SWAPS[type(op)]()] + node.ops[i + 1 :]
                yield _swapped(op) + (f" (op {i + 1})" if len(node.ops) > 1 else ""), new
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield "drop USub", node.operand
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value + 1 if type(node.value) is int else node.value * 2
        if value != node.value:
            yield f"{node.value!r} -> {value!r}", ast.Constant(value)


def generated_mutants(src: Path) -> list[Generated]:
    """The one-node mutants of every module under ``src``: ``+``/``-``,
    ``*``/``/`` and ``**``/``*`` swaps, ``<``/``<=``, ``>``/``>=``,
    ``==``/``!=`` and ``and``/``or`` flips, a dropped unary minus, and
    each numeric constant plus one (ints) or doubled (floats other than
    zero).  Each replaces its node's source span with the parenthesised
    mutated node, so the rest of the file keeps its text.  f-strings are
    skipped, because Python before 3.12 gives no positions inside them.
    A key repeated on one line gets a ``#2``, ``#3``, ... suffix in
    span order."""
    mutants = []
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        found = []
        stack = [ast.parse(source)]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.JoinedStr):
                continue
            stack.extend(ast.iter_child_nodes(node))
            for mutation, new in _mutated(node):
                span = (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)
                found.append((span, mutation, f"({ast.unparse(new)})"))
        seen: dict[tuple[str, str], int] = {}
        for span, mutation, text in sorted(found):
            line = lines[span[0] - 1].strip()
            seen[line, mutation] = seen.get((line, mutation), 0) + 1
            if seen[line, mutation] > 1:
                mutation += f" #{seen[line, mutation]}"
            mutants.append(Generated(path.name, line, mutation, span, text))
    return mutants


def apply(source: str, mutant: Generated) -> str:
    """``source`` with ``mutant``'s span replaced by its text."""
    lines = source.splitlines(keepends=True)
    start, col, end, end_col = mutant.span
    head = "".join(lines[: start - 1]) + lines[start - 1][:col]
    return head + mutant.text + lines[end - 1][end_col:] + "".join(lines[end:])


def _pytest(root: Path, *args: str, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore", TOOLING_TEST, *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )


def failing_tests(root: Path) -> set[str]:
    """Ids of the tier-1 tests that fail or error when run from ``root``."""
    result = _pytest(root, "-rfE", timeout=1800)
    return {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in result.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def copy_checkout(checkout: Path, root: Path) -> Path:
    shutil.copytree(checkout, root, ignore=IGNORE)
    with open(root / "tests" / "conftest.py", "a") as conftest:
        conftest.write(PROFILE)
    return root


def run_hand_written(checkout: Path, tmp: Path) -> int:
    root = copy_checkout(checkout, tmp / "checkout")
    for name, file, old, new in MUTANTS:
        count = (root / "src" / "triqw" / file).read_text().count(old)
        if count != 1:
            print(f"error: mutant {name}: text occurs {count} times in {file}")
            return 2
    baseline = failing_tests(root)
    print(f"unmutated: {len(baseline)} failing tests", flush=True)
    print(f"{'mutant':36} {'file':16} kills")
    survivors = 0
    for name, file, old, new in MUTANTS:
        path = root / "src" / "triqw" / file
        original = path.read_text()
        path.write_text(original.replace(old, new))
        try:
            kills = len(failing_tests(root) - baseline)
        finally:
            path.write_text(original)
        survivors += kills == 0
        print(f"{name:36} {file:16} {kills}", flush=True)
    return 1 if survivors else 0


def run_generated(checkout: Path, tmp: Path) -> int:
    mutants = generated_mutants(checkout / "src" / "triqw")
    equivalent = {(e["file"], e["line"], e["mutation"]) for e in json.loads(EQUIVALENT.read_text())}
    roots = queue.SimpleQueue()
    for job in range(JOBS):
        roots.put(copy_checkout(checkout, tmp / f"checkout-{job}"))
    baseline = sorted(failing_tests(tmp / "checkout-0"))
    deselect = [arg for test in baseline for arg in ("--deselect", test)]
    print(f"{len(mutants)} mutants; unmutated: {len(baseline)} failing tests deselected", flush=True)

    def survives(mutant: Generated) -> bool:
        root = roots.get()
        path = root / "src" / "triqw" / mutant.file
        original = path.read_text()
        path.write_text(apply(original, mutant))
        try:
            return _pytest(root, "-x", *deselect, timeout=600).returncode == 0
        except subprocess.TimeoutExpired:
            return False
        finally:
            path.write_text(original)
            roots.put(root)

    with ThreadPoolExecutor(JOBS) as pool:
        survived = [m for m, alive in zip(mutants, pool.map(survives, mutants)) if alive]
    new = [m for m in survived if m.key not in equivalent]
    stale = equivalent - {m.key for m in survived}
    for m in new:
        print(f"survivor: {m.file}:{m.span[0]}: {m.mutation}: {m.line}")
    for file, line, mutation in sorted(stale):
        print(f"stale equivalent entry: {file}: {mutation}: {line}")
    print(
        f"total {len(mutants)}, killed {len(mutants) - len(survived)}, survived {len(survived)}"
        f" ({len(survived) - len(new)} known equivalent, {len(new)} new)"
    )
    return 1 if new else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--generated", action="store_true", help="run the generated sweep")
    args = parser.parse_args(argv)
    # Set here, not in the children: they inherit it, and a preexec_fn is
    # unsafe next to the generated sweep's threads.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    with tempfile.TemporaryDirectory(prefix="triqw-mutants-") as tmp:
        if args.generated:
            return run_generated(args.checkout.resolve(), Path(tmp))
        return run_hand_written(args.checkout, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
