"""Count the lines of src/sharmonic by kind: code, docstring, comment-only, blank.

Usage, from the root of a checkout:

    python3 tools/src_lines.py [--parent PATH]

It prints one row per module and a total row.  With ``--parent`` (a second
checkout, for example the parent commit made with ``git clone`` or ``git
archive``) every cell reads ``parent -> this tree``, and a module present
in one tree only counts as 0 lines in the other.

The kinds, per line:

- docstring: spanned by the docstring of a module, class or function
  (found with ``ast``);
- code: any other line spanned by a token that is not a comment (found with
  ``tokenize``), so each line of a multi-line expression or string counts;
- comment: holding a comment and nothing else;
- blank: holding only whitespace, inside a docstring too, so a blank line of
  a docstring counts twice and the four columns can add up to more than the
  file's lines.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(text: str) -> dict[str, int]:
    """Lines of one Python source text by kind (see the module docstring)."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        counts["blank"] += not stripped
        if number in doc:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
    return counts


def count_tree(tree: Path) -> dict[str, dict[str, int]]:
    """Counts per module of the tree's src/sharmonic, keyed by file name."""
    return {path.name: count_lines(path.read_text(encoding="utf-8"))
            for path in sorted((tree / "src" / "sharmonic").glob("*.py"))}


def table(this: dict[str, dict[str, int]], parent: dict[str, dict[str, int]] | None = None) -> str:
    """The per-module rows and a total row as aligned text; with parent,
    each cell reads "parent -> this"."""
    trees = [this] if parent is None else [parent, this]
    trees = [{**tree, "total": {kind: sum(counts[kind] for counts in tree.values())
                                for kind in KINDS}} for tree in trees]
    zero = dict.fromkeys(KINDS, 0)
    lines = [f"{'file':<16}" + "".join(f"{kind:>14}" for kind in KINDS)]
    for name in sorted(set().union(*trees) - {"total"}) + ["total"]:
        cells = (" -> ".join(str(tree.get(name, zero)[kind]) for tree in trees) for kind in KINDS)
        lines.append(f"{name:<16}" + "".join(f"{cell:>14}" for cell in cells))
    return "\n".join(lines) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="second checkout to count beside this one")
    opts = ap.parse_args()
    parent = count_tree(opts.parent.resolve()) if opts.parent else None
    print(table(count_tree(ROOT), parent), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
