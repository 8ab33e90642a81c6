"""Static checks on the package source."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import nmflow
from nmflow import channels

PACKAGE = Path(nmflow.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never uses; names listed in __all__ count as used."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_detects_leftovers():
    source = "import os\nfrom math import prod, sqrt\nfrom . import qmat\n__all__ = ['qmat']\nsqrt(2)\n"
    assert unused_imports(source) == ["os", "prod"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source: str) -> set[str]:
    """Module-level names a module defines and the methods of its classes,
    dunder names left out."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names |= {item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def private_names(source: str) -> set[str]:
    """Module-level names and methods starting with a single underscore that a
    module defines."""
    return {name for name in defined_names(source) if name.startswith("_")}


def referenced_names(source: str) -> set[str]:
    """Names a module reads, looks up as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unreferenced_private_names(sources: list[str]) -> list[str]:
    defined = set().union(*map(private_names, sources))
    return sorted(defined - set().union(*map(referenced_names, sources)))


def unreferenced_names(sources: list[str], users: list[str]) -> list[str]:
    """Names and methods the sources define that none of the users references."""
    defined = set().union(*map(defined_names, sources))
    return sorted(defined - set().union(*map(referenced_names, users)))


def test_unreferenced_private_names_detects_leftovers():
    sources = ["_USED = 1\n_UNUSED = 2\ndef _helper():\n    return _USED\n",
               "def _dead():\n    pass\n", "from .a import _helper\n"]
    assert unreferenced_private_names(sources) == ["_UNUSED", "_dead"]


def test_every_private_name_is_referenced():
    # A refactor that leaves a private helper without callers leaves dead code.
    assert unreferenced_private_names([path.read_text(encoding="utf-8") for path in MODULES]) == []


def test_unreferenced_names_detects_leftovers():
    sources = ["LIMIT = 1\nclass Basis:\n    def size(self):\n        return LIMIT\n"
               "    def dim(self):\n        pass\n"]
    assert unreferenced_names(sources, sources + ["Basis().size()\n"]) == ["dim"]


def test_every_name_is_used_outside_the_unit_tests():
    # Code that only unit tests reach belongs in the tests: a name counts as
    # used when the package, the benchmark or the acceptance suite references
    # it. Names match without their owner, so a method named like another
    # attribute passes unseen (RateChannel.a once hid behind every `.a`, and
    # GadcChannel.kraus behind KrausChannel.kraus).
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    users = sources + [path.read_text(encoding="utf-8")
                       for path in [*sorted(PERFBENCH.glob("*.py")), ACCEPTANCE]]
    assert unreferenced_names(sources, users) == []


def test_cli_references_no_channel_class():
    # The CLI asks every family the same questions (as_affine, divisibility),
    # so it needs no family dispatch and no channel class.
    tree = ast.parse((PACKAGE / "channels.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert {"RateChannel", "GadcChannel", "AmpDampChannel", "TabulatedRate"} <= classes
    cli_source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert referenced_names(cli_source) & classes == set()


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_points_resolve():
    # The benchmark's tracer wraps these names from the outside; a rename in
    # nmflow would leave its per-layer metrics silently at zero.
    tracer = load_tracer()
    for module, name in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"nmflow.{module}"), name)), (module, name)
    source = TRACER.read_text(encoding="utf-8")
    families = {node.attr for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "channels"} - {"RateSpec"}
    assert families >= {"RateChannel", "AmpDampChannel", "GadcChannel"}
    for name in families:
        assert "as_affine" in vars(getattr(channels, name)), name
    subclasses = list(tracer._subclasses(channels.RateSpec))
    assert {cls.__name__ for cls in subclasses} >= {"ConstantRate", "TabulatedRate", "CallableRate"}
    for cls in subclasses:
        assert cls.integral is not channels.RateSpec.integral, cls.__name__
