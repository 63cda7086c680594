"""Every function, method and class of the package has a caller in it.

A definition whose name no name, attribute or import alias of src/advaug
references exists only for the tests. The taped reference (`autodiff`,
`loss`) is exempt as a definer: it exists to check the kernels against.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "advaug"
REFERENCE_ONLY = {"autodiff", "loss"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_definition_has_a_caller_in_the_package():
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, DEFINITIONS):
                if path.stem not in REFERENCE_ONLY:
                    defined.setdefault(node.name, f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name.rsplit(".", 1)[-1])
    uncalled = sorted(where for name, where in defined.items()
                      if name not in referenced
                      and not (name.startswith("__") and name.endswith("__")))
    assert not uncalled, uncalled
