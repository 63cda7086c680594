"""README.md and the package docstrings name only attributes that exist."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "advaug"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem != "__init__")
# `module.attr`, in single or double backticks, with or without `advaug.`
REFERENCE = re.compile(r"`+(?:advaug\.)?(%s)\.(\w+)" % "|".join(MODULES))
# `classifier.npz` and the like name files, not attributes
FILE_SUFFIXES = {"csv", "ini", "json", "npz"}


def docstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield f"{path.name}, {getattr(node, 'name', 'module')}", doc


def test_backticked_references_name_existing_attributes():
    texts = [("README.md", (ROOT / "README.md").read_text(encoding="utf-8"))]
    for path in sorted(PACKAGE.glob("*.py")):
        texts.extend(docstrings(path))
    stale = []
    for where, text in texts:
        for module, attr in REFERENCE.findall(text):
            if attr in FILE_SUFFIXES:
                continue
            if not hasattr(importlib.import_module(f"advaug.{module}"), attr):
                stale.append(f"{where}: {module}.{attr}")
    assert not stale, stale
