"""Every function, method, class and constant that ftdp defines is used by
ftdp itself, so no code in src/ is reachable only from tests. This parses
every module and lists each definition whose name nothing in the package
refers to, as a name or an attribute, outside the definition itself.
Dunder methods, which Python calls itself, are left out, and so are the
names in ALLOWED. Names are matched without their owner, so a method that
shares its name with a used one (ControlPlane.reconfig, RingGroup.reconfig)
passes unseen."""

import ast
import collections
import os

import ftdp

SRC = os.path.dirname(os.path.abspath(ftdp.__file__))

# Definitions that nothing in ftdp uses, each on purpose.
ALLOWED = {
    # Item 9: wrapped by name by perfbench's trace hook (perfbench/hook),
    # which fails at start-up on a name it cannot find; they go once the
    # hook skips a missing name (ROADMAP item 9).
    "kernels.copy_into",
    "replica.IntraGroup.all_gather",
    "replica.ControlPlane.reconfig",
    "wire.encode_frame",
    "wire.encode_chunk",
    "wire.decode_chunk",
    # The package version, read by packaging tools.
    "__init__.__version__",
    # The `ftdp` console script (pyproject.toml).
    "cli.main",
}


def definitions(module: str, tree: ast.Module) -> dict[str, ast.AST]:
    """Qualified name -> node of each module-level function, class and
    UPPER_CASE or dunder constant, and of each method of a module-level
    class."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[f"{module}.{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    out[f"{module}.{node.name}.{item.name}"] = item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and (
                        target.id.lstrip("_").isupper() or target.id.startswith("__")):
                    out[f"{module}.{target.id}"] = node
    return out


def names_used(root: ast.AST) -> collections.Counter:
    """How often each name or attribute occurs in the expressions under root."""
    used = collections.Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Qualified names of the definitions in sources (module -> source)
    that no code in sources refers to outside the definition itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum((names_used(tree) for tree in trees.values()), collections.Counter())
    found = []
    for module, tree in trees.items():
        for qualified, node in definitions(module, tree).items():
            name = qualified.rsplit(".", 1)[1]
            if everywhere[name] == names_used(node)[name]:
                found.append(qualified)
    return sorted(found)


def test_scan_finds_an_unreferenced_definition():
    sources = {
        "a": "LIMIT = 3\nUNUSED = 4\n"
             "class Box:\n"
             "    def __init__(self):\n        self.n = LIMIT\n"
             "    def used(self):\n        return self.n\n"
             "    def idle(self):\n        return self.idle()\n"
             "def helper():\n    return Box().used()\n",
        "b": "from a import helper\nprint(helper())\n",
    }
    assert unreferenced(sources) == ["a.Box.idle", "a.UNUSED"]


def test_src_defines_nothing_it_does_not_use():
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                sources[name[:-3]] = fh.read()
    found = [q for q in unreferenced(sources) if q not in ALLOWED]
    assert not found, f"defined in src/ftdp but used only outside it: {found}"
    defined = {q for module, text in sources.items()
               for q in definitions(module, ast.parse(text))}
    assert ALLOWED <= defined, f"allowed but gone: {sorted(ALLOWED - defined)}"
