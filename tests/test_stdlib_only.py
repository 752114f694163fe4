"""orbint runs on the standard library alone.

mpmath and hypothesis are installed for the tests, so an accidental runtime
import of either would not fail at run time here; this reads the imports
instead.
"""

import ast
import pathlib
import sys

import orbint

PACKAGE = pathlib.Path(orbint.__file__).parent


def imported_modules(path):
    """(line, top-level module) of every absolute import in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_relative_or_stdlib():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    outside = [
        f"{path.name}:{line} imports {module}"
        for path in files
        for line, module in imported_modules(path)
        if module not in sys.stdlib_module_names
    ]
    assert not outside, "\n".join(outside)
