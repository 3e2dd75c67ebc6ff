"""Every name a module or test file imports is used in it (no linter is
installed), and the package imports nothing beyond the standard library and
numpy."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "tokendrop").glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))
ALLOWED_PACKAGES = sys.stdlib_module_names | {"numpy"}


def unused_imports(source):
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nprint(os.sep)\n") == [(2, "system")]


def outside_imports(source):
    """Top-level packages of the absolute imports in `source` that are
    neither standard library nor numpy."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return sorted(packages - ALLOWED_PACKAGES)


def test_finds_an_import_from_outside_the_standard_library():
    source = ("import os.path\nimport scipy.linalg\nfrom numpy import fft\n"
              "from . import model\nfrom .vocab import PAD_ID\nfrom yaml import safe_load\n")
    assert outside_imports(source) == ["scipy", "yaml"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "tokendrop").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_the_standard_library_and_numpy(path):
    assert outside_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_test_file_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
