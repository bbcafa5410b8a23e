"""Size of the ``triqw`` package: total and code lines per module, and public names.

A code line is a line that is not blank, not a comment and not part of a
docstring (the module's, a class's or a function's).  The last line is
the number of names in ``triqw.__all__``, read from the package's
``__init__.py`` without importing it.  ``--checkout DIR`` counts the
package of another checkout, ``DIR/src/triqw``.  Not collected by pytest
(the name does not match ``test_*.py``).

Usage: python tests/src_lines.py [--checkout DIR]
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold code other than comments and docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def public_names(init: Path) -> list[str]:
    """The literal ``__all__`` list assigned in a package's ``__init__.py``."""
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise ValueError(f"{init} assigns no __all__")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    package = args.checkout / "src" / "triqw"
    total = code = 0
    print(f"{'module':20} {'lines':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        lines, n_code = len(text.splitlines()), code_lines(text)
        total, code = total + lines, code + n_code
        print(f"{path.name:20} {lines:6} {n_code:6}")
    print(f"{'total':20} {total:6} {code:6}")
    print(f"{'__all__ names':20} {len(public_names(package / '__init__.py')):6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
