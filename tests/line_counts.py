"""Print the lines of each module of src/dtcsim as docstring, comment, blank
and code, each line counted once.

A line inside a module, class or function docstring is a docstring line,
blank or not; any other line that holds a token of code (a line of a
multi-line string included) is code, even with a trailing comment; a line
with only a comment is a comment, and the rest are blank.  Run as

    python tests/line_counts.py [path ...]

with the modules of src/dtcsim as the default paths.  pytest does not
collect this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "code")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dtcsim"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_counts(source: str) -> dict:
    """The number of lines of ``source`` of each kind of :data:`KINDS`."""
    docstring = docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if number in docstring else "code" if number in code
                else "comment" if number in comment else "blank")
        counts[kind] += 1
    return counts


def main(paths) -> None:
    rows = [(path.name, line_counts(path.read_text())) for path in paths]
    rows.append(("total", {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}))
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS + ("lines",)))
    for name, counts in rows:
        print(f"{name:<16}" + "".join(f"{counts[kind]:>11}" for kind in KINDS)
              + f"{sum(counts.values()):>11}")


if __name__ == "__main__":
    main([Path(arg) for arg in sys.argv[1:]] or sorted(PACKAGE.glob("*.py")))
