"""The exact-ideal hook is written once per kind of monoid.

An ``ast`` walk over ``src/sgclab`` reads every class, its bases and the
methods it defines.  No class defines a membership kernel
``exact_contains``: the package lists an ideal's members and never tests
a single point.  A right-LCM family gives its ``_lcm`` and inherits every
``exact_*`` method from ``RightLCMModel``; the one override is the free
monoid's member listing, which concatenates words instead of calling
``mul``.  A numerical token is its Apery tuple, so that family keeps no
canonicaliser ``_token`` and no code reads a conductor.
"""

import ast
from pathlib import Path

import sgclab

PACKAGE = Path(sgclab.__file__).resolve().parent


def _classes():
    """``{class name: (base names, names of the methods it defines)}``
    over every module of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                methods = {f.name for f in node.body
                           if isinstance(f, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))}
                out[node.name] = (bases, methods)
    return out


def _subclasses(classes, root):
    found, grew = set(), True
    while grew:
        grew = False
        for name, (bases, _) in classes.items():
            if name not in found and bases & (found | {root}):
                found.add(name)
                grew = True
    return found


def test_no_class_defines_a_membership_kernel():
    classes = _classes()
    assert "Model" in classes
    assert [name for name, (_, methods) in classes.items()
            if "exact_contains" in methods] == []


def test_right_lcm_families_state_only_their_lcm():
    classes = _classes()
    families = _subclasses(classes, "RightLCMModel")
    assert families == {"FreeAbelianModel", "FreeMonoidModel"}
    own = {(name, method) for name in families
           for method in classes[name][1] if method.startswith("exact_")}
    assert own == {("FreeMonoidModel", "exact_members_upto")}
    for name in families:
        assert "_lcm" in classes[name][1], name


def test_numerical_hook_keeps_no_canonicaliser_or_conductor():
    classes = _classes()
    assert "_token" not in classes["NumericalModel"][1]
    read = {node.attr for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    assert "conductor" not in read
    assert "_token" not in read
