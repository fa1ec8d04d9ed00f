"""Count the code lines of each ``src/lupi`` module, and their total.

    python3 tools/code_lines.py [DIR]

A code line is a source line that holds some token other than a comment,
not counting blank lines and docstrings (a string literal that is the first
statement of a module, class or function). A token spanning several lines,
such as a multi-line string, counts every line it spans. Prints one
``count file`` line per module of DIR (``src/lupi`` of this checkout by
default), sorted by name, then ``count total``. Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    if len(argv) > 1:
        print("usage: code_lines.py [DIR]", file=sys.stderr)
        return 1
    root = Path(argv[0]) if argv else ROOT / "src" / "lupi"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
