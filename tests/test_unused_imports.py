"""Every name a module of ftdp imports is used in it. The repository has no
linter, so this parses each module and lists the imported names that no
expression of the module refers to. __future__ imports and __init__.py,
which imports to re-export, are left out."""

import ast
import os

import ftdp

SRC = os.path.dirname(os.path.abspath(ftdp.__file__))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


def test_src_has_no_unused_imports():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as fh:
                unused = unused_imports(fh.read())
            if unused:
                found[name] = unused
    assert not found, f"imported but never used: {found}"
