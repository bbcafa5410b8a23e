"""Mutation check: how many tier-1 tests kill each one-line mutant of ``src/``.

Copies the checkout (without ``.git`` and caches) to ``JOBS`` temporary
directories and runs tier-1 in one of them unmutated, to learn which
tests fail anyway.  Then ``sweep`` runs each mutant, of either kind, in
whichever copy is free, with its change applied and undone after.  A
hand-written mutant (``MUTANTS``) must find its text exactly once in its
file; it runs the whole of tier-1, and its printed count is the number
of tests that fail under it but pass unmutated.  With ``--generated`` the
mutants are the one-node AST mutants of every module in ``src/triqw``
(see ``generated_mutants``): each runs tier-1 with ``pytest -x`` and the
unmutated failures deselected, so it is killed by its first failing
test, a timeout or a crash.  Survivors keyed in
``tests/equivalent_mutants.json`` (file, source line text and mutation,
so moving a line keeps its entry) are known to be equivalent or benign;
the run prints every other survivor, and every entry that no longer
names a surviving mutant.

pytest runs from the copy's root: ``pyproject.toml`` puts that root's
``src`` first on ``sys.path``, so a copy imported only through
``PYTHONPATH`` would test the unmutated checkout instead.  The copy's
``conftest.py`` loads a hypothesis profile without the shrink phase and
the example database, with derandomized examples: a failing property
fails either way, but shrinking can take minutes, and a shared database
or fresh random examples would make a mutant's result depend on the
run.  Each pytest child has the benchmark's BLAS thread count and, like
the run itself, at most 4 GiB of address space, so a mutant that asks
for a huge array fails instead of exhausting the machine.  Every run
leaves out ``tests/test_mutation_tooling.py``, the tier-1 check that the
anchors and the equivalent entries still match ``src/``, which any
mutant on a line it reads would fail.

Not collected by pytest (the name does not match ``test_*.py``) and not
part of tier-1; with two jobs on two cores the hand-written run takes
about 10 s per mutant, and the generated sweep about 20 minutes.

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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import BLAS_ENV, BLAS_THREADS  # noqa: E402

# (name, file under src/triqw, original text, mutated text)
MUTANTS = [
    ("boson-bunching-dropped", "observables.py", "np.diag(n * (n - 1.0) / 4)", "np.diag(0.0 * n)"),
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
        "negs[rows, k, 3] = np.cbrt(cut.prod(axis=-1))",
        "negs[rows, k, 3] = cut.mean(axis=-1)",
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
        "walk-block-tail-dropped",
        "scans.py",
        "for lo in range(0, steps, _WALK_BLOCK):",
        "for lo in range(0, steps - steps % _WALK_BLOCK, _WALK_BLOCK):",
    ),
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
        "state-array-eq-restored",
        "fock.py",
        "@dataclass(eq=False)\nclass DensityMatrix:",
        "@dataclass\nclass DensityMatrix:",
    ),
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
JOBS = 2  # copies of the checkout that mutants run in side by side
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
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               **dict.fromkeys(BLAS_ENV, str(BLAS_THREADS)))
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


def copies(checkout: Path, tmp: Path) -> list[Path]:
    """``JOBS`` copies of the checkout under ``tmp``, with the hypothesis profile."""
    roots = [tmp / f"checkout-{job}" for job in range(JOBS)]
    for root in roots:
        shutil.copytree(checkout, root, ignore=IGNORE)
        with open(root / "tests" / "conftest.py", "a") as conftest:
            conftest.write(PROFILE)
    return roots


def sweep(roots: list[Path], mutants, test):
    """``test(root)`` for each ``(file, text)``, in order, with ``text``
    written over ``file`` of a free copy ``root`` and the file restored
    after.  The copies run side by side."""
    free = queue.SimpleQueue()
    for root in roots:
        free.put(root)

    def one(mutant):
        file, text = mutant
        root = free.get()
        path = root / "src" / "triqw" / file
        original = path.read_text()
        path.write_text(text)
        try:
            return test(root)
        finally:
            path.write_text(original)
            free.put(root)

    with ThreadPoolExecutor(len(roots)) as pool:
        yield from pool.map(one, mutants)


def run_hand_written(checkout: Path, tmp: Path) -> int:
    texts = []
    for name, file, old, new in MUTANTS:
        original = (checkout / "src" / "triqw" / file).read_text()
        if original.count(old) != 1:
            print(f"error: mutant {name}: text occurs {original.count(old)} times in {file}")
            return 2
        texts.append((file, original.replace(old, new)))
    roots = copies(checkout, tmp)
    baseline = failing_tests(roots[0])
    print(f"unmutated: {len(baseline)} failing tests", flush=True)
    print(f"{'mutant':36} {'file':16} kills")
    survivors = 0
    for (name, file, _, _), failing in zip(MUTANTS, sweep(roots, texts, failing_tests)):
        kills = len(failing - baseline)
        survivors += kills == 0
        print(f"{name:36} {file:16} {kills}", flush=True)
    return 1 if survivors else 0


def run_generated(checkout: Path, tmp: Path) -> int:
    mutants = generated_mutants(checkout / "src" / "triqw")
    equivalent = {(e["file"], e["line"], e["mutation"]) for e in json.loads(EQUIVALENT.read_text())}
    roots = copies(checkout, tmp)
    baseline = sorted(failing_tests(roots[0]))
    deselect = [arg for test in baseline for arg in ("--deselect", test)]
    print(f"{len(mutants)} mutants; unmutated: {len(baseline)} failing tests deselected", flush=True)

    def survives(root: Path) -> bool:
        try:
            return _pytest(root, "-x", *deselect, timeout=600).returncode == 0
        except subprocess.TimeoutExpired:
            return False

    src = checkout / "src" / "triqw"
    texts = [(m.file, apply((src / m.file).read_text(), m)) for m in mutants]
    survived = [m for m, alive in zip(mutants, sweep(roots, texts, survives)) if alive]
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
    run = run_generated if args.generated else run_hand_written
    with tempfile.TemporaryDirectory(prefix="triqw-mutants-") as tmp:
        return run(args.checkout.resolve(), Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
