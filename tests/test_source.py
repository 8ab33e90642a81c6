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


def defaulted_parameters(source: str) -> set[tuple[str, str, int | None]]:
    """(function, parameter, position) of every parameter with a default, of
    module-level functions and methods; the position counts the arguments a
    call passes before it (self excluded), None for keyword-only parameters."""
    params = set()
    for node in ast.walk(ast.parse(source)):
        body = node.body if isinstance(node, (ast.Module, ast.ClassDef)) else []
        for fn in body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            if isinstance(node, ast.ClassDef) and not static:
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            params |= {(fn.name, arg.arg, i) for i, arg in enumerate(positional) if i >= first}
            params |= {(fn.name, arg.arg, None)
                       for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default}
    return params


def passed_arguments(source: str) -> tuple[set[str], set[tuple[str, int]]]:
    """The keywords that calls pass, and (callee name, position) of the
    arguments they pass by position. An argument that only forwards a
    parameter of the enclosing function under its own name passes nothing."""
    keywords, positions = set(), set()

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = {arg.arg for arg in node.args.posonlyargs + node.args.args
                      + node.args.kwonlyargs}
        if isinstance(node, ast.Call):
            def forwards(value):
                return isinstance(value, ast.Name) and value.id in params

            keywords.update(kw.arg for kw in node.keywords if not forwards(kw.value))
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                if not forwards(arg):
                    positions.add((name, i))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(ast.parse(source), set())
    return keywords, positions


def unpassed_defaults(sources: list[str], users: list[str]) -> list[str]:
    """The defaulted parameters of the sources that no call of the users sets,
    as "function(parameter)"."""
    keywords, positions = set(), set()
    for user in users:
        kw, pos = passed_arguments(user)
        keywords |= kw
        positions |= pos
    params = set().union(*map(defaulted_parameters, sources))
    return sorted(f"{fn}({name})" for fn, name, i in params
                  if name not in keywords and (fn, i) not in positions)


def test_unpassed_defaults_detects_leftovers():
    sources = ["def scan(grid, margin=1e-10, *, tol=1e-4, seed=0):\n"
               "    return refine(grid, margin, tol=tol)\n"
               "def refine(grid, margin=0.0, tol=1e-4):\n    pass\n"
               "class Channel:\n    def at(self, t, clamp=False):\n        pass\n"]
    users = sources + ["scan(g, seed=3)\nChannel().at(1.0, True)\n"]
    assert unpassed_defaults(sources, users) == ["refine(margin)", "refine(tol)",
                                                  "scan(margin)", "scan(tol)"]


def _decorator_name(node) -> str | None:
    # dataclass for @dataclass, @dataclass(frozen=True) and @dataclasses.dataclass.
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def dataclass_fields(source: str) -> set[tuple[str, str]]:
    """(class, field) of every annotated field of a dataclass."""
    fields = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and "dataclass" in map(_decorator_name,
                                                                node.decorator_list):
            fields |= {(node.name, item.target.id) for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    return fields


def read_attributes(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(sources: list[str], users: list[str]) -> list[str]:
    """Dataclass fields of the sources that none of the users reads as an
    attribute, as "Class.field"."""
    read = set().union(*map(read_attributes, users))
    return sorted(f"{cls}.{name}" for cls, name in set().union(*map(dataclass_fields, sources))
                  if name not in read)


def test_unread_fields_detects_leftovers():
    sources = ["@dataclass(frozen=True)\nclass Result:\n    value: float\n    povm: object\n"
               "@dataclasses.dataclass\nclass Report:\n    onsets: tuple\n"
               "class Plain:\n    size: int\n"]
    users = sources + ["res.value\nres.povm = None\n"]
    assert unread_fields(sources, users) == ["Report.onsets", "Result.povm"]


def _package_and_users() -> tuple[list[str], list[str]]:
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    return sources, sources + [path.read_text(encoding="utf-8")
                               for path in [*sorted(PERFBENCH.glob("*.py")), ACCEPTANCE]]


def test_every_default_is_set_outside_the_unit_tests():
    # A default that no caller overrides is a constant in disguise, and a
    # knob that only unit tests turn is code that only they reach. Parameters
    # match by name, like the names above, or by callee name and position.
    assert unpassed_defaults(*_package_and_users()) == []


def test_every_field_is_read_outside_the_unit_tests():
    # A result field that no caller reads is work done for the unit tests.
    assert unread_fields(*_package_and_users()) == []


def test_cli_references_no_channel_class():
    # The CLI asks every family the same questions (as_affine, divisibility),
    # so it needs no family dispatch and no channel class.
    tree = ast.parse((PACKAGE / "channels.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert {"RateChannel", "GadcChannel", "AmpDampChannel", "TabulatedRate"} <= classes
    cli_source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert referenced_names(cli_source) & classes == set()


def channel_methods() -> set[str]:
    """The methods of the channel families, dunder methods left out."""
    families = (channels.RateChannel, channels.AmpDampChannel, channels.GadcChannel)
    return {name for cls in families for name in dir(cls)
            if not name.startswith("__") and callable(getattr(cls, name))}


@pytest.mark.parametrize("module", ["witness", "mepovm", "divisibility", "cli"])
def test_modules_ask_a_channel_only_the_interface_questions(module):
    # Inside the package a family is asked for its map, its intermediate maps
    # and its pointwise divisibility; every other reading of a map comes from
    # the map's Bloch data. The other methods (rates, gamma, probs_derivative)
    # serve the acceptance suite and the benchmark. Attributes only, so that a
    # parameter named like a method, as classify_intervals' gamma, does not count.
    methods = channel_methods()
    assert {"as_affine", "intermediate", "divisibility", "rates", "gamma"} <= methods
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert read_attributes(source) & methods <= {"as_affine", "intermediate", "divisibility"}


def test_witness_evolves_states_one_way():
    # Every driver in witness builds its evolved states as sum_r c_r(t) G_r
    # from the transfer entries of as_affine: none reads a superoperator.
    source = (PACKAGE / "witness.py").read_text(encoding="utf-8")
    assert "transfer" in read_attributes(source)
    assert "superop" not in read_attributes(source)


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
        # The GAD families inherit as_affine from _GadFamily; the tracer sets
        # its wrapper on each family class, so an inherited method is patched too.
        assert callable(getattr(getattr(channels, name), "as_affine", None)), name
    subclasses = list(tracer._subclasses(channels.RateSpec))
    assert {cls.__name__ for cls in subclasses} >= {"ConstantRate", "TabulatedRate", "CallableRate"}
    for cls in subclasses:
        assert cls.integral is not channels.RateSpec.integral, cls.__name__
