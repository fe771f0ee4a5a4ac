"""The hand-written export lists name only what their modules define, and
only what the program itself uses; the code names README.md gives
resolve."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import copsurv

MODULES = ["copsurv"] + [f"copsurv.{info.name}"
                         for info in pkgutil.iter_modules(copsurv.__path__)]
SUBMODULES = MODULES[1:]

ROOT = Path(__file__).resolve().parents[1]
# The program: the package and the benchmark harness.  The package's
# __init__ only re-exports, so it is an export list too.
PROGRAM = [p for d in ("src", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py"))
           if p != ROOT / "src" / "copsurv" / "__init__.py"]
EXPORT_LIST = re.compile(r"^__all__\s*=\s*\[.*?\]", re.S | re.M)


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def _program_lines():
    lines = []
    for path in PROGRAM:
        text = EXPORT_LIST.sub("", path.read_text(encoding="utf-8"))
        lines += text.splitlines()
    return lines


@pytest.mark.parametrize("name", SUBMODULES)
def test_exported_names_are_used_by_the_program(name):
    """A public name that only tests call is dead code: every name in a
    submodule's __all__ must appear in the program somewhere other than
    the line that defines it (a def, class or module-level assignment)."""
    lines = _program_lines()
    unused = []
    for export in getattr(importlib.import_module(name), "__all__", ()):
        word = re.compile(rf"\b{re.escape(export)}\b")
        definition = re.compile(
            rf"^(?:def|class)\s+{re.escape(export)}\b"
            rf"|^{re.escape(export)}\s*(?::[^=]*)?=")
        if not any(word.search(line) and not definition.match(line)
                   for line in lines):
            unused.append(export)
    assert unused == []


README = (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("dotted", sorted(set(
    re.findall(r"\bcopsurv(?:\.[A-Za-z_]\w*)+", README))))
def test_readme_code_name_resolves(dotted):
    pkgutil.resolve_name(dotted)


def test_readme_sketch_names_resolve():
    """Without running the sketch: every `cs.<name>` is an attribute of
    the package root, and every name it imports from a module exists."""
    section = README.split("## Library sketch", 1)[1]
    sketch = section.split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\bcs\.([A-Za-z_]\w*)", sketch))
    assert names
    assert sorted(n for n in names if not hasattr(copsurv, n)) == []
    for module, imported in re.findall(r"^from (copsurv[\w.]*) import (.+)$",
                                       sketch, re.M):
        for name in imported.split(","):
            pkgutil.resolve_name(f"{module}.{name.strip()}")
