"""Count the code lines of Python modules: lines that hold a token other
than a comment, with blank lines and docstrings left out.

A line counts when ``tokenize`` finds a token on it that is not a
comment or a line break; a token that spans lines (a string) counts every
line it covers.  The lines of each module, class and function docstring,
found through ``ast``, are then taken out.

Usage: python tools/code_lines.py [PATH ...]   (default: src/bicomplex)

Prints one line per module, then the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: pathlib.Path) -> int:
    """The number of code lines in the module at ``path``."""
    with tokenize.open(path) as handle:
        source = handle.read()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [pathlib.Path(arg) for arg in argv] or [pathlib.Path("src/bicomplex")]
    files = sorted(
        file for path in paths for file in (path.rglob("*.py") if path.is_dir() else [path])
    )
    total = 0
    for file in files:
        count = code_lines(file)
        total += count
        print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
