"""A module's name is public exactly when it has no leading _, and no module
states that a second time in an __all__ list.  Each public function, class,
constant and alias, and each member of a class, serves the package, not only
its own unit test.  No module reads another module's _private name, and none
calls np.roll or np.moveaxis, whose per-call cost the step path dropped."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import typing

import pytest

import starflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(starflow.__path__))
SRC = pathlib.Path(starflow.__file__).resolve().parent
# the files whose reads count as uses: the package source and the acceptance
# criteria
READERS = [*sorted(SRC.glob("*.py")), pathlib.Path(__file__).with_name("test_acceptance.py")]

# public names that neither the package nor the acceptance criteria read,
# each with the reason it is kept
UNUSED_ALLOWED = {
    "diagnostics.read_history_csv": "the v1 reader of the history.csv that run writes",
}


def names_read(path):
    """Every name the file reads as a variable or an attribute, leaving out
    a top-level def's or class's reads of its own name; an assignment is not
    a read."""
    read = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            if not isinstance(sub, (ast.Name, ast.Attribute)) or isinstance(sub.ctx, ast.Store):
                continue
            name = getattr(sub, "id", None) or getattr(sub, "attr", None)
            if name != own:
                read.add(name)
    return read


def attributes_read(path):
    """Every attribute name the file reads, as in obj.name; an assignment is
    not a read."""
    return {
        sub.attr
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store)
    }


def class_members(path):
    """(class, member) for each class the file defines at module level: its
    annotated fields, its methods and properties other than dunders, and each
    attribute its methods assign to self."""
    members = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                members.add((node.name, item.target.id))
            elif isinstance(item, ast.FunctionDef):
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    members.add((node.name, item.name))
                members.update(
                    (node.name, sub.attr) for sub in ast.walk(item)
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                )
    return members


def public_constants(path):
    """The names the file assigns at module level without a leading _: its
    constants and type aliases."""
    assigned = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned.update(
                sub.id for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name)
            )
    return {name for name in assigned if not name.startswith("_")}


def public_names(module):
    """The functions and classes that the module defines without a leading _."""
    return {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_declared_once(name):
    # the leading _ alone marks a name private; an __all__ list would state
    # the public API a second time, for every edit to keep in step
    module = importlib.import_module(f"starflow.{name}")
    assert not hasattr(module, "__all__"), f"starflow.{name} defines __all__"


@pytest.mark.parametrize("name", MODULES)
def test_every_public_function_and_class_is_used(name):
    # a use is a read in the package source, or in the acceptance criteria;
    # code that only its own unit test reaches is deleted
    read = set().union(*map(names_read, READERS))
    module = importlib.import_module(f"starflow.{name}")
    public = public_names(module) | public_constants(SRC / f"{name}.py")
    unused = {f"{name}.{attr}" for attr in public - read}
    assert unused == {key for key in UNUSED_ALLOWED if key.startswith(f"{name}.")}


# classes whose members may go unread as attributes, each with the reason
MEMBERS_ALLOWED = {
    "diagnostics.DiagnosticsRecord": "its fields reach history.csv and summary.json's "
    "final_record through its _fields and _asdict",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_class_member_is_read(name):
    # a member is used when the package source or the acceptance criteria
    # read an attribute of its name; one that only its own unit test reads
    # is deleted
    read = set().union(*map(attributes_read, READERS))
    unused = {
        f"{cls}.{member}"
        for cls, member in class_members(SRC / f"{name}.py")
        if member not in read and f"{name}.{cls}" not in MEMBERS_ALLOWED
    }
    assert unused == set()


# numpy calls whose cost per call the step path no longer pays, each with
# what replaces it
BANNED_CALLS = {
    "roll": "pad the field once by grid.pad_index and slice the padding",
    "moveaxis": "return a transposed view, array.transpose(...)",
}


@pytest.mark.parametrize("name", MODULES)
def test_no_roll_or_moveaxis_in_the_package(name):
    path = pathlib.Path(starflow.__file__).resolve().parent / f"{name}.py"
    found = {call: BANNED_CALLS[call] for call in BANNED_CALLS.keys() & names_read(path)}
    assert found == {}, f"starflow.{name} reads numpy's {found}"


def is_private(name):
    """A leading _ that does not open a dunder."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path):
    """The _private names of other starflow modules that the file reads:
    imported as `from .module import _name`, or read as `module._name` of a
    module imported by `from . import module`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.level == 1 and node.module is None or node.module == "starflow"
        own = node.level == 1 or (node.module or "").startswith("starflow.")
        for alias in node.names:
            if package:
                modules.add(alias.asname or alias.name)
            elif own and is_private(alias.name):
                found.add(f"{node.module.rpartition('.')[2]}.{alias.name}")
    found.update(
        f"{sub.value.id}.{sub.attr}" for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
        and sub.value.id in modules and is_private(sub.attr)
    )
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reads_another_modules_private_names(name):
    # a name with a leading _ is its module's own; what another module needs
    # gets a public name
    assert private_reads(SRC / f"{name}.py") == set()


@pytest.mark.parametrize("name", MODULES)
def test_named_tuple_annotations_are_evaluated(name):
    # under postponed evaluation typing.NamedTuple turns each annotation
    # string into a ForwardRef, class creation time that every process pays
    module = importlib.import_module(f"starflow.{name}")
    unevaluated = {
        f"{cls.__name__}.{field}": hint
        for cls in vars(module).values()
        if inspect.isclass(cls) and issubclass(cls, tuple) and hasattr(cls, "_fields")
        for field, hint in cls.__annotations__.items()
        if isinstance(hint, (str, typing.ForwardRef))
    }
    assert unevaluated == {}
