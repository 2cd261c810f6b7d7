"""Print the raw lines and the code lines of the Python files under each tree given.

Code lines are the raw lines less blank lines, comment lines and docstring
lines, so deleting a docstring or a comment moves the raw count alone:

    python3 tools/src_lines.py src

prints ``src: <raw> raw lines, <code> code lines``.  A line that holds both
code and a trailing comment counts as code.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold a token other than a comment, outside docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/src_lines.py TREE [TREE ...]", file=sys.stderr)
        return 2
    for root in argv:
        texts = [path.read_text(encoding="utf-8") for path in sorted(Path(root).rglob("*.py"))]
        raw = sum(len(text.splitlines()) for text in texts)
        code = sum(code_lines(text) for text in texts)
        print(f"{root}: {raw} raw lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
