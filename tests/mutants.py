"""Mutation check: how many tier-1 tests kill each one-line mutant of ``src/``.

Copies the checkout (without ``.git`` and caches) to a temporary
directory and runs tier-1 there, once unmutated to learn which tests fail
anyway, then once per mutant with its one-line change applied.  A mutant's
text must occur exactly once in its file.  The count printed for a mutant
is the number of tests that fail under it but pass unmutated.

pytest runs from the copy's root: ``pyproject.toml`` puts that root's
``src`` first on ``sys.path``, so a copy imported only through
``PYTHONPATH`` would test the unmutated checkout instead.  The copy's
``conftest.py`` loads a hypothesis profile without the shrink phase and
without the example database: a failing property fails either way, but
shrinking it can take minutes, and a database shared between runs would
make one mutant's result depend on the mutants run before it.

Not collected by pytest (the name does not match ``test_*.py``) and not
part of tier-1; a run takes about 20 s per mutant on two cores.

Usage: python tests/mutants.py [--checkout DIR]
Exit code 0 if every mutant is killed, 1 if one survives, 2 if a mutant's
text does not match exactly once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

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
        "return parts * np.outer(sector.sign, sector.sign) / prob[:, None, None]",
        "return parts / prob[:, None, None]",
    ),
    (
        "pure-block-signs-dropped",
        "entanglement.py",
        "sector.index] * sector.sign / np.sqrt(prob)",
        "sector.index] / np.sqrt(prob)",
    ),
    (
        "tpn-arithmetic-mean",
        "entanglement.py",
        "negs[b, col] = np.column_stack([cuts, np.cbrt(cuts.prod(axis=-1))])",
        "negs[b, col] = np.column_stack([cuts, cuts.mean(axis=-1)])",
    ),
    (
        "public-tpn-arithmetic-mean",
        "entanglement.py",
        "np.cbrt(_negativity(rho.mat[None], rho.dims, [0, 1, 2])[0].prod())",
        "_negativity(rho.mat[None], rho.dims, [0, 1, 2])[0].mean()",
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
        "= amps[..., index >= 0]",
        "= amps.reshape(-1, amps.shape[-1])[-1, index >= 0]",
    ),
    (
        "qubit-check-first-row-only",
        "entanglement.py",
        "if amps[..., index < 0].any():",
        "if amps.reshape(-1, amps.shape[-1])[0, index < 0].any():",
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
    ("walk-default-steps", "scans.py", "TIME_SAMPLES = 400", "TIME_SAMPLES = 401"),
    (
        "plan-rows-ascending",
        "fock.py",
        "for row in range(L - 1, -1, -1):",
        "for row in range(L):",
    ),
    (
        "stack-first-matrix-only",
        "fock.py",
        "for mat, amp in zip(flat, amps):",
        "for mat, amp in zip(flat[[0] * len(flat)], amps):",
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
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
PROFILE = """
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.generate], database=None)
settings.load_profile("mutants")
"""


def failing_tests(root: Path) -> set[str]:
    """Ids of the tier-1 tests that fail or error when run from ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True, timeout=1800,
    )
    return {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in result.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="triqw-mutants-") as tmp:
        root = Path(tmp) / "checkout"
        shutil.copytree(args.checkout, root, ignore=IGNORE)
        with open(root / "tests" / "conftest.py", "a") as conftest:
            conftest.write(PROFILE)
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


if __name__ == "__main__":
    sys.exit(main())
