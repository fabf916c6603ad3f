import ast
import pathlib
import re

import mvamp

PACKAGE = pathlib.Path(mvamp.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_siblings_private_names():
    # each module's _-prefixed names are its own: a name another module needs
    # is public, or the code that needs it lives with it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("mvamp"):
                continue
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names if _private(alias.name)]
    assert not found, found


ROOT = pathlib.Path(__file__).resolve().parents[1]
# a dotted string such as perfbench's "stability.classify_fixed_point" names
# the function it traces
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _read_names(tree: ast.AST) -> set[str]:
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            reads.update(node.value.split("."))
    return reads


def test_every_package_name_has_a_caller():
    # code with no caller is deleted, or moved to tests/oracles.py when it is
    # an independent check the tests compare against: every top-level name in
    # src/mvamp is read somewhere in the package, perfbench or the scripts
    callers = [PACKAGE, ROOT / "perfbench", ROOT / "scripts"]
    reads = set()
    for path in sorted(p for d in callers for p in d.rglob("*.py")):
        reads |= _read_names(ast.parse(path.read_text(), str(path)))
    unread = [f"{path.name}: {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name in _top_level_names(ast.parse(path.read_text(), str(path)))
              if name not in reads]
    assert not unread, unread
