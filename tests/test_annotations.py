"""Every annotation in `src/revcat` resolves with `typing.get_type_hints`.

The classical modules import numpy and `revcat.quantum` only inside the
functions that use them, so a name such as `Isometry` or `np` in one of their
annotations comes from the module's `if TYPE_CHECKING:` block.  Each module is
resolved against its own globals plus what that block imports, and nothing
else: an annotation naming a type the module never imports fails here.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

import revcat
from revcat import classical as cl

SRC = Path(revcat.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def type_checking_names(module) -> dict:
    """What the module's top-level `if TYPE_CHECKING:` blocks import."""
    tree = ast.parse(Path(module.__file__).read_text())
    blocks = [node.body for node in tree.body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"]
    ns = {"__name__": module.__name__, "__package__": module.__package__}
    for body in blocks:
        exec(compile(ast.Module(body=body, type_ignores=[]), module.__file__, "exec"), ns)
    return {k: v for k, v in ns.items() if not k.startswith("__")}


def annotated(module):
    """The module's own functions and classes, and the methods, properties
    and `classical.once` memos of its classes, by qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cl.once):
                    member = member.method
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(f"revcat.{name}")
    localns = type_checking_names(module)
    unresolved, hints = [], 0
    for qualname, obj in annotated(module):
        try:
            hints += len(typing.get_type_hints(obj, localns=localns))
        except NameError as e:
            unresolved.append(f"{qualname}: {e}")
    assert unresolved == []
    assert hints > 0
