"""The hand-written export lists name only what their modules define, and
only what the program itself uses; the code names README.md gives
resolve."""

import importlib
import io
import pkgutil
import re
import tokenize
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


def _program_names():
    """(name, line) of every NAME token of the program outside its export
    lists: a string, comment or docstring holds no NAME token."""
    names = []
    for path in PROGRAM:
        text = EXPORT_LIST.sub("", path.read_text(encoding="utf-8"))
        names += [(tok.string, tok.line) for tok
                  in tokenize.generate_tokens(io.StringIO(text).readline)
                  if tok.type == tokenize.NAME]
    return names


@pytest.mark.parametrize("name", SUBMODULES)
def test_exported_names_are_used_by_the_program(name):
    """A public name that only tests call is dead code: every name in a
    submodule's __all__ must appear as code in the program somewhere
    other than the line that defines it (a def, class or module-level
    assignment)."""
    names = _program_names()
    unused = []
    for export in getattr(importlib.import_module(name), "__all__", ()):
        definition = re.compile(
            rf"^(?:def|class)\s+{re.escape(export)}\b"
            rf"|^{re.escape(export)}\s*(?::[^=]*)?=")
        if not any(token == export and not definition.match(line)
                   for token, line in names):
            unused.append(export)
    assert unused == []


SOURCES = sorted((ROOT / "src" / "copsurv").glob("*.py"))
# A module-level `def _x`, `class _X` or `_X =`; group 1 or 2 is the name.
PRIVATE_DEFINITION = re.compile(
    r"(?:def|class)\s+(_[^\W_]\w*)|(_[^\W_]\w*)\s*(?::[^=]*)?=")


def test_private_module_names_are_used():
    """A private helper that nothing calls is dead code too: every
    private module-level name in the package must appear in src/ on a
    line other than one that defines it."""
    lines = [line for path in SOURCES
             for line in path.read_text(encoding="utf-8").splitlines()]
    defines = [(m := PRIVATE_DEFINITION.match(line)) and (m[1] or m[2])
               for line in lines]
    unused = sorted(
        name for name in set(defines) - {None}
        if not any(re.search(rf"\b{name}\b", line) and defined != name
                   for line, defined in zip(lines, defines)))
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
