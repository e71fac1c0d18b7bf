"""Records are immutable by convention; this scan of the source checks it.

AST nodes, types, runtime values, trace events and violations are
dataclasses without `frozen=True`, so nothing stops a store to one of
their fields at run time.  The scan reads every module of the `actorcap`
package and reports:

- a `setattr`, `delattr`, `__setattr__` or `__delattr__` call anywhere
  but the interning in `lang.LangExpr.__new__`;
- a store to an attribute of `self` in a record class, outside
  `__post_init__`;
- a store, on any object but `self`, to an attribute named like a field
  of some record.

A record is every dataclass in the package except the mutable state
classes named in `STATE`.
"""

import ast
import pathlib

import actorcap

PACKAGE = pathlib.Path(actorcap.__file__).parent
STATE = frozenset({"Config", "Trace", "TypedProgram", "ExplorationReport"})
INTERNING = ("lang.py", "LangExpr", "__new__")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if isinstance(f, ast.Name) and f.id == "dataclass":
            return True
    return False


def _scoped(tree):
    """Each node of `tree`, with the names of its innermost enclosing class
    and function (None outside any)."""
    stack = [(tree, None, None)]
    while stack:
        node, cls, fn = stack.pop()
        yield node, cls, fn
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        stack.extend((child, cls, fn) for child in ast.iter_child_nodes(node))


def _is_setattr(func) -> bool:
    if isinstance(func, ast.Name):
        return func.id in ("setattr", "delattr")
    return isinstance(func, ast.Attribute) and func.attr in ("__setattr__", "__delattr__")


def dataclasses_of(modules) -> dict[str, ast.ClassDef]:
    return {
        node.name: node
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
    }


def findings(modules: dict[str, ast.Module]) -> list[str]:
    records = {
        name: cls for name, cls in dataclasses_of(modules).items() if name not in STATE
    }
    fields = {
        stmt.target.id
        for cls in records.values()
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    out = []
    for name, tree in modules.items():
        for node, cls, fn in _scoped(tree):
            where = f"{name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and _is_setattr(node.func):
                if (name, cls, fn) != INTERNING:
                    out.append(f"{where}: {ast.unparse(node.func)} call")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                if on_self and cls in records and fn != "__post_init__":
                    out.append(f"{where}: store to self.{node.attr} in record {cls}")
                elif not on_self and node.attr in fields:
                    out.append(
                        f"{where}: store to field {node.attr} of {ast.unparse(node.value)}"
                    )
    return sorted(out)


def package_modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), p.name) for p in sorted(PACKAGE.glob("*.py"))}


def test_no_record_is_mutated():
    assert findings(package_modules()) == []


def test_state_classes_are_dataclasses_of_the_package():
    assert STATE <= dataclasses_of(package_modules()).keys()


def test_the_scan_reports_each_kind_of_store():
    src = '''
from dataclasses import dataclass, field

@dataclass(slots=True)
class Rec:
    value: int
    cache: int = field(init=False)

    def __post_init__(self):
        self.cache = self.value

    def bump(self):
        self.value += 1

@dataclass
class Config:
    next_id: int = 0

    def fresh(self):
        self.next_id += 1

class Parser:
    def __init__(self):
        self.value = 0

def poke(r, cfg):
    r.value = 2
    del r.cache
    cfg.next_id = 3
    object.__setattr__(r, "value", 4)
    setattr(r, "value", 5)
'''
    assert findings({"m.py": ast.parse(src)}) == [
        "m.py:13: store to self.value in record Rec",
        "m.py:27: store to field value of r",
        "m.py:28: store to field cache of r",
        "m.py:30: object.__setattr__ call",
        "m.py:31: setattr call",
    ]
