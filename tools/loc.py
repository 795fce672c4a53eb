"""Count code lines in Python files: lines that hold a token other than a
comment, and that are not part of a module, class or function docstring.

Usage: python3 tools/loc.py [PATH ...]   (default: the repository's
src/rbannulus, wherever the script is run from)

Prints one line per file and the total.  Directories are searched for
*.py files.  Standard library only.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers covered by docstrings in the parsed module."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def count(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                     if n not in skip)
    return len(lines)


def main(argv) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or [root / "src" / "rbannulus"]
    files = []
    for p in paths:
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    total = 0
    for f in files:
        n = count(f.read_text())
        total += n
        print("%6d  %s" % (n, os.path.relpath(f)))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
