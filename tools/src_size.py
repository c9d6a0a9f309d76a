"""Print the size of the sqglab package, the measure of ROADMAP aim 2.

    python tools/src_size.py [SRC_DIR]

Three numbers, one per line:
- ``lines``: all lines of the ``.py`` files under SRC_DIR (default: the
  ``src`` directory beside this script's directory);
- ``code_lines``: the lines that are not blank, not comment-only, and not
  part of a module, class or function docstring (located with ``ast``);
- ``public_names``: the names that ``sqglab/__init__.py`` imports.
"""

import ast
import sys
from pathlib import Path

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(src: Path) -> tuple[int, int, int]:
    total = code = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        skip = docstring_lines(ast.parse(text))
        lines = text.splitlines()
        total += len(lines)
        code += sum(1 for number, line in enumerate(lines, start=1)
                    if number not in skip and line.strip()
                    and not line.strip().startswith("#"))
    init = ast.parse((src / "sqglab" / "__init__.py").read_text(encoding="utf-8"))
    names = sum(len(node.names) for node in init.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__")
    return total, code, names


def main(argv):
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total, code, names = sizes(src)
    print(f"lines {total}")
    print(f"code_lines {code}")
    print(f"public_names {names}")


if __name__ == "__main__":
    main(sys.argv[1:])
