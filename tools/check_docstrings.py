#!/usr/bin/env python
"""Docstring lint for the modules carrying the bitwise-equivalence promise.

The counting-sort / partitioning surface (and the
sort-period tuner and calibration fit next to the cost model) makes two
promises that live only in prose: every rendering is *bitwise-identical*
to its reference, and every entry point documents its *thread-safety*.
Prose promises rot silently, so this lint makes them structural:

* every public ``def`` / ``class`` (and public method of a public
  class) in the target modules must carry a docstring;
* every *module-level public function* must additionally state both
  promises — its docstring must contain at least one equivalence
  keyword (``bitwise`` / ``identical`` / ``equivalen`` / ``determinis``
  / ``same permutation`` / ``stable``) and at least one safety keyword
  (``thread`` / ``concurren`` / ``process`` / ``race`` / ``reentran``).

A name is public when it has no leading underscore; dunder methods are
exempt (their contracts are the language's).  Wired into
``make docs-check`` (and so ``make check``).  Run directly for a
file:line listing of violations; exit 1 if any.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the modules whose public surface carries the promise
TARGET_MODULES = (
    "src/repro/particles/sorting.py",
    "src/repro/parallel/partition.py",
    "src/repro/model/costmodel.py",
)

EQUIV_KEYWORDS = (
    "bitwise", "identical", "equivalen", "determinis",
    "same permutation", "stable",
)
SAFETY_KEYWORDS = ("thread", "concurren", "process", "race", "reentran")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _check_function(node, rel, errors, *, module_level):
    doc = ast.get_docstring(node)
    if not doc:
        errors.append(f"{rel}:{node.lineno}: public "
                      f"{'function' if module_level else 'method'} "
                      f"{node.name!r} has no docstring")
        return
    if not module_level:
        return
    low = doc.lower()
    if not any(k in low for k in EQUIV_KEYWORDS):
        errors.append(
            f"{rel}:{node.lineno}: {node.name!r} docstring states no "
            f"equivalence promise (none of: {', '.join(EQUIV_KEYWORDS)})"
        )
    if not any(k in low for k in SAFETY_KEYWORDS):
        errors.append(
            f"{rel}:{node.lineno}: {node.name!r} docstring states no "
            f"thread-safety contract (none of: {', '.join(SAFETY_KEYWORDS)})"
        )


def check_module(path: Path) -> list[str]:
    """All docstring-promise violations in one module, as file:line text."""
    rel = path.relative_to(ROOT)
    tree = ast.parse(path.read_text(), filename=str(rel))
    errors: list[str] = []
    if not ast.get_docstring(tree):
        errors.append(f"{rel}:1: module has no docstring")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                _check_function(node, rel, errors, module_level=True)
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if not ast.get_docstring(node):
                errors.append(f"{rel}:{node.lineno}: public class "
                              f"{node.name!r} has no docstring")
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _is_public(sub.name)
                        and not sub.name.startswith("__")):
                    _check_function(sub, rel, errors, module_level=False)
    return errors


def main(argv=None) -> int:
    paths = [ROOT / m for m in (argv or TARGET_MODULES)]
    errors: list[str] = []
    for path in paths:
        if not path.exists():
            errors.append(f"{path}: target module missing")
            continue
        errors.extend(check_module(path))
    if errors:
        print("check_docstrings: FAIL")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_docstrings: OK — {len(paths)} modules hold the "
          f"docstring promises")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or None))
