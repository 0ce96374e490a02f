"""Every name a `defsets` module imports is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "defsets"

# names a module imports only so that callers can import them from it
REEXPORTS = {"satdefs": {"CapExceeded"}, "colordefs": {"CapExceeded"}}


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd(os)\n") == \
        [(2, "b")]


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # it imports the package's public names
            continue
        names = [(line, name) for line, name in unused_imports(path.read_text())
                 if name not in REEXPORTS.get(path.stem, ())]
        if names:
            found[path.name] = names
    assert not found
