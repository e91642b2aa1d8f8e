"""Print the lines of each module of src/dtcsim as docstring, comment, blank
and code, each line counted once.

A line inside a module, class or function docstring is a docstring line,
blank or not; any other line that holds a token of code (a line of a
multi-line string included) is code, even with a trailing comment; a line
with only a comment is a comment, and the rest are blank.  Run as

    python tests/line_counts.py [path ...]

with the modules of src/dtcsim as the default paths, or as

    python tests/line_counts.py --against REV

for the lines of each kind in src/dtcsim at the git revision REV, in the
working tree and their difference, and the same for the lines of each
module.  pytest does not collect this file.
"""

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "code")
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dtcsim"
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


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def sources_at(rev: str) -> dict:
    """Module name -> source of each module of src/dtcsim at git revision ``rev``."""
    names = _git("ls-tree", "--name-only", f"{rev}:src/dtcsim").split()
    return {name: _git("show", f"{rev}:src/dtcsim/{name}")
            for name in names if name.endswith(".py")}


def _total(counts: list) -> dict:
    return {kind: sum(c[kind] for c in counts) for kind in KINDS}


def main(paths) -> None:
    rows = [(path.name, line_counts(path.read_text())) for path in paths]
    rows.append(("total", _total([counts for _, counts in rows])))
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS + ("lines",)))
    for name, counts in rows:
        print(f"{name:<16}" + "".join(f"{counts[kind]:>11}" for kind in KINDS)
              + f"{sum(counts.values()):>11}")


def compare(rev: str) -> None:
    """Print the lines of each kind, then of each module, of src/dtcsim at
    ``rev`` and in the working tree, and the change."""
    before = {name: line_counts(source) for name, source in sources_at(rev).items()}
    after = {path.name: line_counts(path.read_text()) for path in PACKAGE.glob("*.py")}
    old, new = _total(list(before.values())), _total(list(after.values()))
    kinds = [(kind, old[kind], new[kind]) for kind in KINDS]
    kinds.append(("lines", sum(old.values()), sum(new.values())))
    modules = [(name, sum(before.get(name, {}).values()), sum(after.get(name, {}).values()))
               for name in sorted(before.keys() | after.keys())]
    for title, rows in (("kind", kinds), ("module", modules)):
        print(f"{title:<16}{rev:>11}{'now':>11}{'change':>11}")
        for name, was, now in rows:
            print(f"{name:<16}{was:>11}{now:>11}{now - was:>+11}")
        print()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Lines of each kind in src/dtcsim.")
    parser.add_argument("paths", nargs="*", type=Path)
    parser.add_argument("--against", metavar="REV",
                        help="compare src/dtcsim with the git revision REV")
    args = parser.parse_args()
    if args.against:
        compare(args.against)
    else:
        main(args.paths or sorted(PACKAGE.glob("*.py")))
