"""Print the size of the sqglab package, the measure of ROADMAP aim 2.

    python tools/src_size.py [SRC_DIR]

Five numbers, one per line:
- ``lines``: all lines of the ``.py`` files under SRC_DIR (default: the
  ``src`` directory beside this script's directory);
- ``code_lines``: the lines that are not blank, not comment-only, and not
  part of a module, class or function docstring (located with ``ast``);
- ``public_names``: the names that ``sqglab/__init__.py`` imports or lists
  in ``__all__``, so the names it loads on first use count too;
- ``private_imports``: the ``_``-prefixed names that one module imports from
  another by relative import (``from .spectral import _pack``), counted once
  per importing module;
- ``config_keys``: the entries of the literal ``_KEYS`` dict in
  ``sqglab/config.py``, the keys a run config may set.
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


def sizes(src: Path) -> tuple[int, int, int, int, int]:
    total = code = private = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        skip = docstring_lines(tree)
        private += len(private_imports(tree))
        lines = text.splitlines()
        total += len(lines)
        code += sum(1 for number, line in enumerate(lines, start=1)
                    if number not in skip and line.strip()
                    and not line.strip().startswith("#"))
    init = ast.parse((src / "sqglab" / "__init__.py").read_text(encoding="utf-8"))
    config = ast.parse((src / "sqglab" / "config.py").read_text(encoding="utf-8"))
    return total, code, len(public_names(init)), private, config_keys(config)


def private_imports(tree: ast.AST) -> set[tuple[str, str]]:
    """The (module, name) pairs of the ``_``-prefixed names a parsed module
    imports by relative ``from`` imports, anywhere in it."""
    return {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")}


def public_names(init: ast.Module) -> set[str]:
    """The names a parsed ``__init__.py`` binds by ``from`` imports, and the
    strings of its literal ``__all__``."""
    names = {alias.asname or alias.name for node in init.body
             if isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names}
    for node in init.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(e.value for e in node.value.elts
                         if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return names


def config_keys(config: ast.Module) -> int:
    """The number of entries of a parsed ``config.py``'s literal ``_KEYS``."""
    for node in config.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "_KEYS"
                        for t in node.targets)):
            return len(node.value.keys)
    raise SystemExit("sqglab/config.py has no literal _KEYS dict")


def main(argv):
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total, code, names, private, keys = sizes(src)
    print(f"lines {total}")
    print(f"code_lines {code}")
    print(f"public_names {names}")
    print(f"private_imports {private}")
    print(f"config_keys {keys}")


if __name__ == "__main__":
    main(sys.argv[1:])
