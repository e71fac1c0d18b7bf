"""Structural comparison of parse trees, for tests.

Expression nodes compare by identity, so a test that asks whether two
parses agree calls `same_tree`.  It walks both trees on an explicit stack,
so any depth works, and compares every dataclass field except a node's
position `loc`, its `free` variables and a program's `source` text; tuples
compare item by item, and any other value with `==`.
"""

from dataclasses import fields, is_dataclass

IGNORED = frozenset({"loc", "free", "source"})


def same_tree(a, b) -> bool:
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, tuple):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif is_dataclass(x):
            stack.extend(
                (getattr(x, f.name), getattr(y, f.name))
                for f in fields(x) if f.name not in IGNORED
            )
        elif x != y:
            return False
    return True
