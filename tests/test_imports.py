import ast
import pathlib

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
