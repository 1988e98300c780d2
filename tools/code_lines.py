"""Count the code of each module of ``src/syndef``: its code lines (lines
holding a token other than a comment, leaving out docstrings and blank
lines, read with ``ast`` and ``tokenize``), its ``wc -l`` lines, and its
public names (functions, memoised ones included, and classes defined at the
top level without a leading underscore, exception classes left out, and each
public static method of such a class).  ``tests/test_surface.py`` holds its
enumeration to these names.  The last line totals the names of the
declared surface, every module but ``cli`` and ``rng``.  Standard library
only.

Run from the repository root::

    python tools/code_lines.py            # the package under src/syndef
    python tools/code_lines.py PATH ...   # other modules or directories
"""

from __future__ import annotations

import ast
import builtins
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "syndef"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines that hold code: a token other than a comment, outside docstrings."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {line for tok in tokens if tok.type not in _NOT_CODE
             for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(source)))


def public_names(source: str) -> list[str]:
    """Public module-level functions and classes, exception classes left out,
    and the public static methods of those classes as ``Class.method``."""
    names, errors = [], {n for n, v in vars(builtins).items()
                         if isinstance(v, type) and issubclass(v, BaseException)}
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif any(isinstance(b, ast.Name) and b.id in errors for b in node.bases):
            errors.add(node.name)
        else:
            names.append(node.name)
            names += [f"{node.name}.{f.name}" for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                      and any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in f.decorator_list)]
    return names


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [SRC]
    files = sorted(f for p in paths for f in (p.glob("*.py") if p.is_dir() else [p]))
    total_code = total_wc = total_names = surface = 0
    print(f"{'module':<16}{'code':>6}{'wc -l':>7}{'public':>8}")
    for f in files:
        source = f.read_text(encoding="utf-8")
        code, wc, names = code_lines(source), source.count("\n"), len(public_names(source))
        total_code, total_wc, total_names = total_code + code, total_wc + wc, total_names + names
        surface += 0 if f.stem in ("cli", "rng") else names
        print(f"{f.stem:<16}{code:>6}{wc:>7}{names:>8}")
    print(f"{'total':<16}{total_code:>6}{total_wc:>7}{total_names:>8}")
    print(f"{'surface':<16}{'':>13}{surface:>8}  (every module but cli and rng)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
