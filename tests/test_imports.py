import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "graphgrav").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"  # the package's exports are its imports
)


def unused_imports(source):
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_name():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def eager_array_imports(source):
    """numpy and scipy modules that a module imports at top level, so that
    importing it loads them."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] in ("numpy", "scipy")]


def test_finds_an_eager_array_import():
    source = (
        "import math, numpy as np\nfrom scipy.optimize import minimize\nfrom .graph import edge_key\n\n"
        "def f():\n    import scipy\n    return np, minimize, scipy\n"
    )
    assert eager_array_imports(source) == ["numpy", "scipy.optimize"]


def test_no_eager_array_imports():
    """Curvature, action and the command line need no arrays: a module of
    src/ imports numpy or scipy in the functions that use them, so that
    ``import graphgrav`` loads neither."""
    package = ROOT / "src" / "graphgrav"
    eager = [f"{p.name}:{m}" for p in sorted(package.glob("*.py")) for m in eager_array_imports(p.read_text())]
    assert eager == []


def top_level_definitions(source):
    """Names of the functions and classes a module defines at top level,
    pytest fixtures aside: pytest reads those, not a module."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(ast.unparse(d).startswith("pytest.fixture") for d in node.decorator_list)
    ]


def referenced_names(source):
    """Names a module reads, bare or as an attribute (``module.name``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_finds_an_unreferenced_definition():
    source = (
        "def used():\n    pass\n\nclass Gone:\n    pass\n\n"
        "@pytest.fixture\ndef line():\n    pass\n\nprint(used.__name__)\n"
    )
    defined = top_level_definitions(source)
    assert [name for name in defined if name not in referenced_names(source)] == ["Gone"]


def dead_definitions(package, conftest, tests, perfbench):
    """Top-level definitions, as ``file:name``, that their readers never
    read: those of the package modules (``package`` maps file names to
    sources) by the package or ``perfbench``, those of ``conftest`` by
    ``tests``.  A test is not a reader of the package."""
    package_read = set().union(*map(referenced_names, [*package.values(), *perfbench]))
    tests_read = set().union(*map(referenced_names, tests))
    dead = [
        f"{name}:{d}"
        for name, source in sorted(package.items())
        for d in top_level_definitions(source)
        if d not in package_read
    ]
    return dead + [f"conftest.py:{d}" for d in top_level_definitions(conftest) if d not in tests_read]


def test_finds_a_package_definition_only_tests_read():
    package = {"action.py": "def total():\n    return 0.0\n\ndef term():\n    return 1.0\n"}
    conftest = "def ball():\n    pass\n\ndef gone():\n    pass\n"
    tests = ["from conftest import ball\nfrom graphgrav.action import term\n\nball()\nterm()\n"]
    perfbench = ["import graphgrav.action\n\ngraphgrav.action.total()\n"]
    assert dead_definitions(package, conftest, tests, perfbench) == ["action.py:term", "conftest.py:gone"]


def test_every_definition_is_referenced():
    """A top-level function or class of the package that no module of src/
    or perfbench/ reads, or a helper of tests/conftest.py that no test
    module reads, is dead; an export in __init__.py is not a read."""
    package = ROOT / "src" / "graphgrav"
    modules = {p.name: p.read_text() for p in package.glob("*.py") if p.name != "__init__.py"}
    tests = [p.read_text() for p in (ROOT / "tests").glob("*.py")]
    perfbench = [p.read_text() for p in (ROOT / "perfbench").rglob("*.py")]
    conftest = (ROOT / "tests" / "conftest.py").read_text()
    assert dead_definitions(modules, conftest, tests, perfbench) == []


def unread_members(package, readers):
    """Methods and properties, as ``file:Class.name``, of the classes the
    package modules define (``package`` maps file names to sources) that no
    source in ``readers`` reads as an attribute; dunders are read by Python."""
    read = {
        node.attr for source in readers for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)
    }
    return [
        f"{name}:{cls.name}.{member.name}"
        for name, source in sorted(package.items())
        for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (member.name.startswith("__") and member.name.endswith("__"))
        and member.name not in read
    ]


def test_finds_an_unread_member():
    package = {
        "graph.py": (
            "class G:\n    def __len__(self):\n        return 0\n\n"
            "    @property\n    def size(self):\n        return 0\n\n"
            "    def used(self):\n        return self.size\n\n    def gone(self):\n        return 1\n"
        )
    }
    readers = [*package.values(), "gone = 1\nprint(gone)\n", "def f(g):\n    return g.used()\n"]
    assert unread_members(package, readers) == ["graph.py:G.gone"]


def test_every_member_is_read():
    """A method or property of a class in src/ is read as an attribute by a
    module of src/ or perfbench/; one that only tests read has no caller."""
    package = ROOT / "src" / "graphgrav"
    modules = {p.name: p.read_text() for p in package.glob("*.py")}
    perfbench = [p.read_text() for p in (ROOT / "perfbench").rglob("*.py")]
    assert unread_members(modules, [*modules.values(), *perfbench]) == []


def unread_exports(init_source, modules, outside):
    """Functions that ``init_source`` imports from a package module and that
    no other package module and no source in ``outside`` reads, in export
    order; ``modules`` maps each package module's name to its source."""
    unread = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            functions = {
                f.name for f in ast.parse(modules[node.module]).body if isinstance(f, ast.FunctionDef)
            }
            readers = [src for name, src in modules.items() if name != node.module] + outside
            read = set().union(*map(referenced_names, readers))
            unread += [a.name for a in node.names if a.name in functions and a.name not in read]
    return unread


def test_finds_an_unread_export():
    init = "from .a import K, f, g\nfrom .b import h\n"
    modules = {
        "a": "def f():\n    pass\n\ndef g():\n    return f()\n\nclass K:\n    pass\n",
        "b": "from .a import g\n\ndef h():\n    return g()\n",
    }
    assert unread_exports(init, modules, ["import pkg\npkg.h()\n"]) == ["f"]


def test_every_export_has_a_caller():
    """A function that __init__.py exports is read by another module of src/
    or by perfbench/; one that only its own module or the tests read is
    public surface with no caller."""
    package = ROOT / "src" / "graphgrav"
    modules = {p.stem: p.read_text() for p in package.glob("*.py") if p.name != "__init__.py"}
    outside = [p.read_text() for p in (ROOT / "perfbench").rglob("*.py")]
    assert unread_exports((package / "__init__.py").read_text(), modules, outside) == []


def raised_names(source):
    """Names of the exceptions a module's ``raise`` statements raise, called
    (``raise E(...)``) or not, bare or as an attribute (``errors.E``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def error_classes(source):
    """The classes an errors module defines, less those it derives others
    from: a base class is caught, not raised."""
    classes = [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    return [node.name for node in classes if node.name not in bases]


def test_finds_an_unraised_error():
    errors = "class Base(Exception):\n    pass\n\nclass Used(Base):\n    pass\n\nclass Named(Base):\n    pass\n"
    module = "def f(x):\n    if x:\n        raise errors.Used('x')\n    return Named\n"
    assert error_classes(errors) == ["Used", "Named"]
    assert [name for name in error_classes(errors) if name not in raised_names(module)] == ["Named"]


def test_every_error_is_raised():
    """Every class of errors.py is raised by a ``raise`` statement in src/;
    one that only tests name, or that is only caught, guards nothing."""
    package = ROOT / "src" / "graphgrav"
    raised = set().union(*(raised_names(p.read_text()) for p in package.glob("*.py")))
    assert [name for name in error_classes((package / "errors.py").read_text()) if name not in raised] == []


def unread_parameters(source):
    """Parameters, as ``function(name)``, that a function of ``source``,
    closures included, never reads; a name that starts with ``_`` is unread
    on purpose."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            read = {
                n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{node.name}({p.arg})" for p in params if p.arg not in read and not p.arg.startswith("_")
            ]
    return unread


def test_finds_an_unread_parameter():
    source = (
        "def outer(a, b, _c, *args, d=1, **kw):\n"
        "    def inner(x, y):\n        return a + x\n"
        "    b = 2\n    return inner(1, d)\n"
    )
    assert unread_parameters(source) == ["outer(b)", "outer(args)", "outer(kw)", "inner(y)"]


def test_every_parameter_is_read():
    """A parameter of a function in src/ that the function never reads is
    an input the caller must give for nothing; one kept for a fixed calling
    convention, such as the CLI's ``args.func(args, inp)``, starts with ``_``."""
    package = ROOT / "src" / "graphgrav"
    unread = [f"{p.name}:{f}" for p in sorted(package.glob("*.py")) for f in unread_parameters(p.read_text())]
    assert unread == []


def emit_callers(source):
    """Top-level functions of ``source``, other than ``main``, that call
    ``_emit``, closures included."""
    def emits(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_emit"

    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "main"
        and any(map(emits, ast.walk(node)))
    ]


def test_finds_an_emit_outside_main():
    source = (
        "def _emit(doc):\n    print(doc)\n\n"
        "def cmd(args):\n    def later():\n        _emit(args)\n    return later\n\n"
        "def quiet(args):\n    return args, True\n\n"
        "def main(argv):\n    _emit(quiet(argv))\n"
    )
    assert emit_callers(source) == ["cmd"]


def test_only_main_emits():
    """One writer: each command returns its document and verdict, and the
    CLI's ``main`` alone writes the document and picks the exit code."""
    assert emit_callers((ROOT / "src" / "graphgrav" / "cli.py").read_text()) == []


def report_builders(source):
    """Top-level definitions of ``source`` that call ``ActionReport``, bare or
    as an attribute, closures included; a call outside them is ``<module>``."""
    def builds(node):
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "ActionReport"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "ActionReport"
        )

    return [
        node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.parse(source).body
        if any(map(builds, ast.walk(node)))
    ]


def test_finds_a_report_built_outside_the_builder():
    source = (
        "def _report(g):\n    return ActionReport(g)\n\n"
        "def plain(g):\n    def later():\n        return action.ActionReport(g)\n    return later\n\n"
        "def ghy(g):\n    return _report(g)\n\n"
        "EMPTY = ActionReport(None)\n"
    )
    assert report_builders(source) == ["_report", "plain", "<module>"]


def test_only_the_builder_makes_action_reports():
    """One builder: ``action._report`` alone calls ``ActionReport``, so a
    plain action's edge-sum total and the 2|E| bound are stated once."""
    package = ROOT / "src" / "graphgrav"
    found = [f"{p.name}:{name}" for p in sorted(package.glob("*.py")) for name in report_builders(p.read_text())]
    assert found == ["action.py:_report"]


def power_of_two_readers(source):
    """Top-level definitions of ``source`` that read ``round`` or ``log2``,
    bare or as an attribute (``math.log2``), called or passed on (``map``),
    closures included; a read outside them is ``<module>``."""
    def reads(node):
        return (
            isinstance(node, ast.Name) and node.id in ("round", "log2")
            or isinstance(node, ast.Attribute) and node.attr == "log2"
        )

    return [
        node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.parse(source).body
        if any(map(reads, ast.walk(node)))
    ]


def test_finds_a_power_of_two_read_outside_its_rule():
    source = (
        "from math import log2\n\n"
        "def _unit_scaled(x):\n    return -round(math.log2(x))\n\n"
        "def exponent(xs):\n    def later():\n        return sum(map(log2, xs))\n    return later\n\n"
        "def digits(x):\n    return f'{x:.3f}'\n\n"
        "HALF = round(0.5)\n"
    )
    assert power_of_two_readers(source) == ["_unit_scaled", "exponent", "<module>"]


def test_one_power_of_two_rule():
    """One rule for the scale at which a tolerance is read: the nearest
    power of two, -round(mean log2 l), is taken by ``dynamics._unit_scaled``
    alone, so Newton's stop and ``verify_solution`` cannot read two."""
    package = ROOT / "src" / "graphgrav"
    found = [f"{p.name}:{name}" for p in sorted(package.glob("*.py")) for name in power_of_two_readers(p.read_text())]
    assert found == ["dynamics.py:_unit_scaled"]


FAMILY_FORMULAS = ("t1_next_ratios", "geometric_half_half_stats", "two_progression_x")


def family_code_outside_generators(generators, dynamics):
    """What places a tree solution family outside ``generators``: each name,
    as ``generators:name``, that the ``generators`` source imports from
    ``dynamics`` other than ``Setting`` (the module itself included), and
    each family formula, as ``dynamics:name``, that the ``dynamics`` source
    defines."""
    imported = []
    for node in ast.walk(ast.parse(generators)):
        if isinstance(node, ast.ImportFrom):
            from_dynamics = (node.module or "").split(".")[-1] == "dynamics"
            imported += [a.name for a in node.names if from_dynamics or a.name == "dynamics"]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[-1] == "dynamics"]
    defined = [name for name in top_level_definitions(dynamics) if name in FAMILY_FORMULAS]
    return [f"generators:{name}" for name in imported if name != "Setting"] + [f"dynamics:{name}" for name in defined]


def test_finds_family_code_outside_generators():
    generators = (
        "from .dynamics import Setting, verify_solution\nfrom . import dynamics, graph\n"
        "import graphgrav.dynamics\nfrom .graph import edge_key\n"
    )
    dynamics = "def two_progression_x(a, y):\n    pass\n\ndef verify_solution(g):\n    pass\n"
    assert family_code_outside_generators(generators, dynamics) == [
        "generators:verify_solution", "generators:dynamics", "generators:graphgrav.dynamics",
        "dynamics:two_progression_x",
    ]


def test_tree_families_live_in_generators():
    """``generators`` is the one module that knows the paper's tree solution
    families: their formulas are defined there, and it reads only the
    ``Setting`` type of the equations of motion."""
    package = ROOT / "src" / "graphgrav"
    generators, dynamics = ((package / f"{name}.py").read_text() for name in ("generators", "dynamics"))
    assert family_code_outside_generators(generators, dynamics) == []
