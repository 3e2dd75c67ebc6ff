"""Every config key is read somewhere in the package, so no knob outlives its readers."""

import ast
import pathlib

from tokendrop import config
from tokendrop.config import RunConfig

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "tokendrop"


def attributes_read(source):
    """Names read as `<expr>.<name>` anywhere in `source`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_finds_attribute_reads_only():
    source = "class C:\n    knob: int = 0\n\ncfg.used = 1\nprint(cfg.read)\n"
    assert attributes_read(source) == {"read"}


def test_every_config_key_is_read_in_the_package():
    read = set()
    for path in PACKAGE.glob("*.py"):
        read |= attributes_read(path.read_text(encoding="utf-8"))
    unread = [f"[{section}] {key}" for section, obj in config._sections(RunConfig()).items()
              for key in config._keys(section, obj) if key not in read]
    assert unread == []
