"""Every module-level name under ``src/kodlat`` is used somewhere.

A function, class or assignment at the top level of a library module must
occur outside its own definition: elsewhere in its module, or anywhere in
``src``, ``tests`` or ``perfbench`` (string mentions, such as the traced
names of the benchmark, count as uses).  Dunder names like ``__all__`` are
exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "kodlat").glob("*.py"))


def _defined_names(tree: ast.Module):
    """(name, first line, last line) of each top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def dead_names() -> list[str]:
    texts = {
        path: path.read_text()
        for part in ("src", "tests", "perfbench")
        for path in (ROOT / part).rglob("*.py")
    }
    dead = []
    for path in LIBRARY:
        lines = texts[path].splitlines()
        for name, first, last in _defined_names(ast.parse(texts[path])):
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            outside = "\n".join(lines[: first - 1] + lines[last:])
            uses = len(word.findall(outside)) + sum(
                len(word.findall(text)) for other, text in texts.items() if other != path
            )
            if not uses:
                dead.append(f"{path.name}:{first}: {name}")
    return dead


def test_no_dead_module_level_names():
    assert dead_names() == []
