"""Every parameter of a function in ftdp is used in it. The repository has
no linter, so this parses each module and lists the parameters that no
expression in their function's body names. self, cls and names starting
with _ are left out, and so are the parameters in ALLOWED."""

import ast
import os

import ftdp

SRC = os.path.dirname(os.path.abspath(ftdp.__file__))

# (module, function, parameter) -> why it stays unused
ALLOWED = {
    ("replica.py", "barrier", "rank"): "every IntraGroup op takes the caller's rank",
    ("replica.py", "reconfig", "decision"): "hook stub, item 9",
}


def unused_parameters(source: str) -> list[tuple[str, str]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  *filter(None, (a.vararg, a.kwarg)))]
        body = node.body if isinstance(node.body, list) else [node.body]
        used = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [(name, p) for p in params
                  if p not in used and p not in ("self", "cls") and not p.startswith("_")]
    return found


def test_scan_finds_an_unused_parameter():
    snippet = (
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    return a + d + len(args)\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        def inner(y):\n"
        "            return x\n"
        "        return inner\n"
    )
    assert sorted(unused_parameters(snippet)) == [("f", "b"), ("f", "kw"), ("inner", "y")]


def test_src_has_no_unused_parameters():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                found += [(name, fn, p) for fn, p in unused_parameters(fh.read())]
    assert sorted(set(found) - ALLOWED.keys()) == [], "parameters no body names"
    stale = ALLOWED.keys() - set(found)
    assert not stale, f"allowed but now used or gone: {stale}"
