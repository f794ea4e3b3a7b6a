"""Count the code lines of the h2cost package: the measure of its size.

A code line is a physical line that holds a token of code. Blank lines,
comment-only lines and the lines of docstrings (the first statement of a
module, class or function when it is a string) do not count; a line
inside a multi-line expression, or inside a string that is not a
docstring, does.

    python tests/code_lines.py [DIR]

prints each module's count and the total for DIR (default: src/h2cost
next to this file). It checks no threshold.
"""

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "h2cost"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at path."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
