"""The package imports nothing at run time but the standard library and
numpy, the one dependency README and ``pyproject.toml`` name."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mimoloc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_every_import_is_relative_standard_or_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert not outside
