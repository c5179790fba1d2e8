"""Code lines of each module of the package, and their total.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (a string that opens a module, class
or function body) are not counted, and a statement that spans several
lines counts each of them.

    python3 tests/code_lines.py [--src DIR ...]

Each ``--src`` is a package source directory (default: this checkout's
``src``); with several, each gets a column, so two versions of the
package are compared module by module.  Not a pytest module.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count(src: Path) -> dict[str, int]:
    """Code lines by module name of the package under ``src``."""
    return {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted((src / "selrestr").glob("*.py"))
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", help="package source directory")
    args = parser.parse_args()
    sources = args.src or [HERE.parent / "src"]
    columns = [count(src) for src in sources]
    modules = sorted(set().union(*columns))
    width = max(map(len, modules + ["total"]))
    for src in sources:
        print(f"# {src}")
    for module in modules:
        cells = "".join(f"{column.get(module, '-'):>8}" for column in columns)
        print(f"{module:<{width}}{cells}")
    print(f"{'total':<{width}}" + "".join(f"{sum(c.values()):>8,}" for c in columns))


if __name__ == "__main__":
    main()
